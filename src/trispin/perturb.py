"""Low-energy effective Hamiltonians on the single-occupancy block.

Order two and order three in the tunneling are evaluated directly from
the matrix elements of V and the collision energies of the intermediate
states,

    H2[a, b] = - sum_g V[a, g] V[g, b] / E[g]
    H3[a, b] = + sum_{g, d} V[a, g] V[g, d] V[d, b] / (E[g] E[d])

with a, b inside the single-occupancy block M (all at E = 0) and g, d
running over the multiply-occupied complement.  Dropping the usual
cross terms of degenerate perturbation theory is justified by
P_M V P_M = 0, which is asserted at runtime.

The block is returned in spin order: position k of the matrix is the
n-qubit configuration whose bit i (big-endian) is 0 for an up atom on
site i and 1 for a down atom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import pauli

HERMITICITY_TOL = 1e-12


class DegenerateIntermediateError(ValueError):
    """An intermediate state reachable from M has zero collision energy."""


@dataclass
class SpinMap:
    """Bijection between the M block of a Fock basis and spin configurations."""

    basis: object
    m_indices: np.ndarray
    spin_to_fock: np.ndarray   # spin index -> basis position
    fock_to_spin: dict         # basis position -> spin index

    @property
    def n_sites(self):
        return self.basis.n_sites

    def spin_label(self, k):
        n = self.n_sites
        return "".join("ud"[(k >> (n - 1 - i)) & 1] for i in range(n))


def spin_map(basis, m_indices):
    """Order the single-occupancy states as n-qubit configurations."""
    n = basis.n_sites
    if len(m_indices) != 2 ** n:
        raise ValueError("single-occupancy block is not a full spin space")
    spin_to_fock = np.full(2 ** n, -1, dtype=int)
    for pos in m_indices:
        state = basis.states[pos]
        k = 0
        for site in range(n):
            nu, nd = state.site_occupations(site)
            if (nu, nd) == (1, 0):
                bit = 0
            elif (nu, nd) == (0, 1):
                bit = 1
            else:
                raise ValueError("state in M is not singly occupied")
            k |= bit << (n - 1 - site)
        if spin_to_fock[k] != -1:
            raise ValueError("duplicate spin configuration in M")
        spin_to_fock[k] = pos
    return SpinMap(basis, np.asarray(m_indices, dtype=int), spin_to_fock,
                   {int(p): int(k) for k, p in enumerate(spin_to_fock)})


@dataclass
class EffectiveHamiltonian:
    """Dense spin-space matrix with its perturbative provenance."""

    matrix: np.ndarray
    order: str
    provenance: str = "perturbative"

    @property
    def n_sites(self):
        return int(round(np.log2(self.matrix.shape[0])))

    def __add__(self, other):
        order = "+".join(sorted(set(self.order.split("+"))
                                | set(other.order.split("+"))))
        return EffectiveHamiltonian(self.matrix + other.matrix, order,
                                    self.provenance)


def _split_blocks(h0, v, m_indices):
    dim = h0.dim
    m = np.asarray(m_indices, dtype=int)
    f = np.setdiff1d(np.arange(dim), m)
    energies = h0.diagonal().real
    scale = max(1.0, np.abs(energies).max())
    if np.abs(energies[m]).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("block M is not at zero collision energy")
    vd = v.mat.toarray()
    vmf = vd[np.ix_(m, f)]
    vff = vd[np.ix_(f, f)]
    vmm = vd[np.ix_(m, m)]
    if vmm.size and np.abs(vmm).max() > 1e-13 * max(1.0, np.abs(vd).max()):
        raise ValueError("tunneling does not vanish inside the "
                         "single-occupancy block")
    ef = energies[f]
    reach1 = np.abs(vmf).sum(axis=0) > 0
    reach2 = reach1 | ((np.abs(vff[reach1, :]).sum(axis=0)) > 0)
    for reach in (reach1, reach2):
        if np.any(np.abs(ef[reach]) < 1e-12 * scale):
            raise DegenerateIntermediateError("degenerate intermediate state")
    return m, f, vmf, vff, ef


def to_spin_order(block, smap, m):
    """Reorder a block indexed like ``m`` into spin order."""
    position = np.empty(len(smap.basis), dtype=int)
    position[m] = np.arange(len(m))
    perm = position[smap.spin_to_fock]
    return block[np.ix_(perm, perm)]


def _check_hermitian(mat, what):
    defect = np.abs(mat - mat.conj().T).max()
    scale = max(1.0, np.abs(mat).max())
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(f"{what} lost hermiticity (defect {defect:.2e})")


def h_eff_second(h0, v, m_indices):
    """Superexchange block: hop out of M and straight back."""
    m, f, vmf, vff, ef = _split_blocks(h0, v, m_indices)
    block = -(vmf / ef) @ vmf.conj().T
    smap = spin_map(h0.basis, m_indices)
    block = to_spin_order(block, smap, m)
    _check_hermitian(block, "second-order effective Hamiltonian")
    return EffectiveHamiltonian(block, order="2")


def h_eff_third(h0, v, m_indices):
    """Two-intermediate processes; three-spin terms originate here."""
    m, f, vmf, vff, ef = _split_blocks(h0, v, m_indices)
    block = (vmf / ef) @ vff @ (vmf.conj().T / ef[:, None])
    smap = spin_map(h0.basis, m_indices)
    block = to_spin_order(block, smap, m)
    _check_hermitian(block, "third-order effective Hamiltonian")
    return EffectiveHamiltonian(block, order="3")


def h_eff_up_to_third(h0, v, m_indices):
    return h_eff_second(h0, v, m_indices) + h_eff_third(h0, v, m_indices)


def cross_second(h0, va, vb, m_indices):
    """Bilinear cross term of the order-2 map: engine(Va + Vb) order-2
    minus the two diagonal parts."""
    m, f, vamf, _, ef = _split_blocks(h0, va, m_indices)
    _, _, vbmf, _, _ = _split_blocks(h0, vb, m_indices)
    block = -(vamf / ef) @ vbmf.conj().T - (vbmf / ef) @ vamf.conj().T
    smap = spin_map(h0.basis, m_indices)
    return EffectiveHamiltonian(to_spin_order(block, smap, m), order="2",
                                provenance="cross")


@dataclass
class PauliDecomposition:
    """Map from Pauli strings to coefficients, c_P = Tr(P H) / 2^n."""

    n_sites: int
    coeffs: dict

    def __getitem__(self, string):
        return self.coeffs.get(string, 0.0 + 0j)

    def nonzero(self, tol=1e-14):
        return {s: c for s, c in self.coeffs.items() if abs(c) > tol}

    def reconstruct(self):
        dim = 2 ** self.n_sites
        out = np.zeros((dim, dim), dtype=complex)
        for string, coeff in self.coeffs.items():
            if coeff != 0:
                out += coeff * pauli.string_matrix(string)
        return out

    def weight(self, string):
        """Number of non-identity letters."""
        return sum(1 for ch in string if ch != "I")

    def to_json_records(self):
        records = []
        for string in sorted(self.coeffs):
            c = self.coeffs[string]
            records.append({"pauli": string, "re": float(c.real),
                            "im": float(c.imag)})
        return records


def _walsh_hadamard(a):
    """Unnormalised Walsh-Hadamard transform along the last axis of a
    (rows, 2^n) array, in place: a[:, z] <- sum_k (-1)^(z.k) a[:, k]."""
    rows, dim = a.shape
    half = 1
    while half < dim:
        pairs = a.reshape(rows, dim // (2 * half), 2, half)
        low = pairs[:, :, 0, :].copy()
        high = pairs[:, :, 1, :]
        pairs[:, :, 0, :] += high
        np.subtract(low, high, out=high)
        half *= 2
    return a


def pauli_decompose(h):
    """Exact Pauli-string expansion of a spin-space matrix.

    A string with X/Y mask x and Z/Y mask z is P = i^#Y X^x Z^z (since
    Y = i X Z), and X^x Z^z |k> = (-1)^(z.k) |k ^ x>, so

        c(x, z) = Tr(P M) / 2^n = i^#Y W[x, z] / 2^n,
        W[x, z] = sum_k (-1)^(z.k) M[k, k ^ x],

    one Walsh-Hadamard transform over k per flip mask x: O(n 4^n) work
    in all.  The coefficients are keyed by string in
    ``pauli.all_strings`` order, zeros included.
    """
    matrix = h.matrix if isinstance(h, EffectiveHamiltonian) else np.asarray(h)
    dim = matrix.shape[0]
    n = int(round(np.log2(dim)))
    if 2 ** n != dim:
        raise ValueError("matrix dimension is not a power of two")
    k = np.arange(dim)
    flipped = matrix[k[None, :], k[None, :] ^ k[:, None]]   # [x, k]
    walsh = _walsh_hadamard(flipped.astype(complex, copy=False))
    strings, x, z, phase = pauli.string_masks(n)
    values = phase * walsh[x, z] / dim
    return PauliDecomposition(n, dict(zip(strings, values)))


def _interaction_picture_block(h0, v, m, t):
    """P exp(-i(H0+V)t) P in spin order, via exact diagonalization."""
    h_full = (h0.mat + v.mat).toarray()
    evals, evecs = la.eigh(h_full)
    u_full = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    return u_full[np.ix_(m, m)]


def _oscillatory_second(vmf, ef, t):
    """Non-growing part of the second-order Dyson term: these carry
    exp(-iEt)-type factors and average away over long times."""
    w = (1.0 - np.exp(-1j * ef * t)) / ef ** 2
    return -(vmf * w) @ vmf.conj().T


def _oscillatory_third(vmf, vff, ef, t):
    """Non-growing part of the third-order Dyson term."""
    eg = ef[:, None]
    ed = ef[None, :]
    omega = eg - ed
    same = np.abs(omega) < 1e-12 * max(1.0, np.abs(ef).max())

    def osc(e):
        return (1.0 - np.exp(-1j * e * t)) / (1j * e)

    # triple time-ordered integral of e^{-i eg t1} e^{i(eg-ed)t2} e^{i ed t3}
    first = (t - osc(eg)) / (1j * eg)
    with np.errstate(divide="ignore", invalid="ignore"):
        second_neq = (osc(ed) - osc(eg)) / (1j * omega)
    g_equal = (-t * np.exp(-1j * eg * t) / (1j * eg)
               + (1.0 - np.exp(-1j * eg * t)) / (1j * eg) ** 2)
    second = np.where(same, np.broadcast_to(g_equal, omega.shape),
                      np.nan_to_num(second_neq))
    integral = (first - second) / (1j * ed)
    kernel = 1j * (integral + t / (eg * ed))   # secular part removed
    return vmf @ (kernel * vff) @ vmf.conj().T


def validate_by_evolution(h0, v, m_indices, h_eff, t):
    """Residual between exact projected evolution and exp(-i H_eff t).

    The exact propagator of H0 + V is evaluated in the interaction
    picture and projected on M; the fast-rotating second- and
    third-order components, which oscillate at the collision
    frequencies instead of accumulating secular phase and are not part
    of the effective description, are removed explicitly.  The returned
    operator-norm residual scales as (J/U)^4 * Ut when the tunneling is
    scaled down at fixed Ut.
    """
    m, f, vmf, vff, ef = _split_blocks(h0, v, m_indices)
    smap = spin_map(h0.basis, m_indices)

    exact = to_spin_order(_interaction_picture_block(h0, v, m, t), smap, m)
    wiggle = to_spin_order(_oscillatory_second(vmf, ef, t)
                           + _oscillatory_third(vmf, vff, ef, t), smap, m)
    reference = la.expm(-1j * h_eff.matrix * t)
    return la.norm(exact - wiggle - reference, 2)
