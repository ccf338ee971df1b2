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

Every result is in spin order: position k of a block is the n-qubit
configuration whose bit i (big-endian) is 0 for an up atom on site i
and 1 for a down atom.  ``partition`` is the one place that splits the
basis into M and F and puts M in that order; the exact elimination
(``trispin.adiabatic``) uses the same split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import pauli

HERMITICITY_TOL = 1e-12


class DegenerateIntermediateError(ValueError):
    """An intermediate state reachable from M has zero collision energy."""


def spin_map(basis, m_indices):
    """Order the single-occupancy states as n-qubit configurations:
    entry k is the basis position of configuration k, whose bit i
    (big-endian) is the down occupation of site i."""
    n = basis.n_sites
    if len(m_indices) != 2 ** n:
        raise ValueError("single-occupancy block is not a full spin space")
    m = np.asarray(m_indices, dtype=int)
    up, dn = basis.occ[m, 0::2], basis.occ[m, 1::2]
    if np.any(up + dn != 1):
        raise ValueError("state in M is not singly occupied")
    spin = dn @ (1 << np.arange(n - 1, -1, -1))
    if np.any(np.bincount(spin, minlength=2 ** n) > 1):
        raise ValueError("duplicate spin configuration in M")
    spin_to_fock = np.empty(2 ** n, dtype=int)
    spin_to_fock[spin] = m
    return spin_to_fock


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


@dataclass
class Partition:
    """Tunneling blocks and collision energies of the M/F split.

    ``m`` lists the basis positions of M in spin order and ``f`` those of
    the multiply-occupied rest in basis order; the V blocks and energies
    are indexed the same way.  The blocks are views of one dense copy of
    V, so a caller may change them in place but must not share them.
    """

    m: np.ndarray
    f: np.ndarray
    vmm: np.ndarray
    vmf: np.ndarray
    vff: np.ndarray
    em: np.ndarray
    ef: np.ndarray

    @property
    def energy_scale(self):
        """max(1, largest |collision energy|): the scale of zero tests."""
        return max(1.0, np.abs(self.em).max(initial=0.0),
                   np.abs(self.ef).max(initial=0.0))


def partition(h0, v, m_indices):
    """Split H0 and V into the single-occupancy block M, in spin order,
    and its complement F, densifying V once."""
    dim = h0.dim
    m = spin_map(h0.basis, m_indices)
    in_f = np.ones(dim, dtype=bool)
    in_f[m] = False
    f = np.flatnonzero(in_f)
    # scatter the nonzeros of V straight into the order (M, F)
    position = np.empty(dim, dtype=int)
    position[np.concatenate([m, f])] = np.arange(dim)
    mat = v.mat.tocsr()
    vd = np.zeros((dim, dim), dtype=mat.dtype)
    np.add.at(vd, (np.repeat(position, np.diff(mat.indptr)),
                   position[mat.indices]), mat.data)
    k = len(m)
    energies = h0.diagonal().real
    return Partition(m, f, vd[:k, :k], vd[:k, k:], vd[k:, k:],
                     energies[m], energies[f])


def _engine_partition(h0, v, m_indices):
    """The partition, with the conditions that orders 2 and 3 rely on."""
    p = partition(h0, v, m_indices)
    scale = p.energy_scale
    if np.abs(p.em).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("block M is not at zero collision energy")
    if p.vmm.size and (np.abs(p.vmm).max()
                       > 1e-13 * max(1.0, abs(v.mat).max())):
        raise ValueError("tunneling does not vanish inside the "
                         "single-occupancy block")
    reach1 = np.abs(p.vmf).sum(axis=0) > 0
    reach2 = reach1 | ((np.abs(p.vff[reach1, :]).sum(axis=0)) > 0)
    for reach in (reach1, reach2):
        if np.any(np.abs(p.ef[reach]) < 1e-12 * scale):
            raise DegenerateIntermediateError("degenerate intermediate state")
    return p


def _check_hermitian(mat, what):
    defect = np.abs(mat - mat.conj().T).max()
    scale = max(1.0, np.abs(mat).max())
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(f"{what} lost hermiticity (defect {defect:.2e})")


def h_eff_second(h0, v, m_indices):
    """Superexchange block: hop out of M and straight back."""
    p = _engine_partition(h0, v, m_indices)
    block = -(p.vmf / p.ef) @ p.vmf.conj().T
    _check_hermitian(block, "second-order effective Hamiltonian")
    return EffectiveHamiltonian(block, order="2")


def h_eff_third(h0, v, m_indices):
    """Two-intermediate processes; three-spin terms originate here."""
    p = _engine_partition(h0, v, m_indices)
    block = (p.vmf / p.ef) @ p.vff @ (p.vmf.conj().T / p.ef[:, None])
    _check_hermitian(block, "third-order effective Hamiltonian")
    return EffectiveHamiltonian(block, order="3")


def h_eff_up_to_third(h0, v, m_indices):
    return h_eff_second(h0, v, m_indices) + h_eff_third(h0, v, m_indices)


def cross_second(h0, va, vb, m_indices):
    """Bilinear cross term of the order-2 map: engine(Va + Vb) order-2
    minus the two diagonal parts."""
    pa = _engine_partition(h0, va, m_indices)
    pb = _engine_partition(h0, vb, m_indices)
    ef = pa.ef
    block = -(pa.vmf / ef) @ pb.vmf.conj().T - (pb.vmf / ef) @ pa.vmf.conj().T
    return EffectiveHamiltonian(block, order="2", provenance="cross")


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
        return pauli.pauli_sum(self.coeffs, self.n_sites)

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
    """P exp(-i(H0+V)t) P on the basis positions m, via exact
    diagonalization."""
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
    p = _engine_partition(h0, v, m_indices)
    exact = _interaction_picture_block(h0, v, p.m, t)
    wiggle = (_oscillatory_second(p.vmf, p.ef, t)
              + _oscillatory_third(p.vmf, p.vff, p.ef, t))
    reference = la.expm(-1j * h_eff.matrix * t)
    return la.norm(exact - wiggle - reference, 2)
