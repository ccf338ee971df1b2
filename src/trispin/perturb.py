"""Low-energy effective Hamiltonians on the single-occupancy block.

Order two and order three in the tunneling are evaluated directly from
the matrix elements of V and the collision energies of the intermediate
states,

    H2[a, b] = - sum_g V[a, g] V[g, b] / E[g]
    H3[a, b] = + sum_{g, d} V[a, g] V[g, d] V[d, b] / (E[g] E[d])

with a, b inside the single-occupancy block M (all at E = 0) and g, d
running over the multiply-occupied complement F.  Dropping the usual
cross terms of degenerate perturbation theory is justified by
P_M V P_M = 0, which is asserted at runtime.  V[a, g] vanishes unless g
is one hop from M, so both sums only visit that set R (288 of the 860
states of F for the fermionic zig-zag chain of six sites) and run on
the dense blocks V_MR and V_RR; V itself is never densified.

Every result is in spin order: position k of a block is the n-qubit
configuration whose bit i (big-endian) is 0 for an up atom on site i
and 1 for a down atom.  ``partition`` is the one place that splits the
basis into M and F and puts M in that order; the exact elimination
(``trispin.adiabatic``) uses the same split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """Dense spin-space matrix of an effective Hamiltonian."""

    matrix: np.ndarray

    def __add__(self, other):
        return EffectiveHamiltonian(self.matrix + other.matrix)


@dataclass
class Partition:
    """Tunneling and collision energies of the M/F split, kept sparse.

    ``m`` lists the basis positions of M in spin order and ``f`` those of
    the multiply-occupied rest in basis order.  V's nonzeros are the
    triples (``rows``, ``cols``, ``vals``) with positions in the order
    (M, F): position k < len(m) is ``m[k]``, position len(m) + k is
    ``f[k]``.  ``r`` lists the F states one hop from M, as positions
    within F; orders 2 and 3 visit no other intermediate state, so they
    run on the small dense blocks ``vmr`` = V_MR and ``vrr`` = V_RR.
    """

    m: np.ndarray
    f: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    em: np.ndarray
    ef: np.ndarray
    r: np.ndarray

    @property
    def energy_scale(self):
        """max(1, largest |collision energy|): the scale of zero tests."""
        return max(1.0, np.abs(self.em).max(initial=0.0),
                   np.abs(self.ef).max(initial=0.0))

    @property
    def er(self):
        return self.ef[self.r]

    def block(self, row_positions, col_positions):
        """Dense block of V on the given (M, F)-order positions."""
        dim = len(self.m) + len(self.f)
        row_of = np.full(dim, -1)
        row_of[row_positions] = np.arange(len(row_positions))
        col_of = np.full(dim, -1)
        col_of[col_positions] = np.arange(len(col_positions))
        i, j = row_of[self.rows], col_of[self.cols]
        keep = (i >= 0) & (j >= 0)
        out = np.zeros((len(row_positions), len(col_positions)),
                       dtype=self.vals.dtype)
        np.add.at(out, (i[keep], j[keep]), self.vals[keep])
        return out

    @cached_property
    def vmr(self):
        return self.block(np.arange(len(self.m)), len(self.m) + self.r)

    @cached_property
    def vrr(self):
        return self.block(len(self.m) + self.r, len(self.m) + self.r)


def partition(h0, v, m_indices):
    """Split H0 and V into the single-occupancy block M, in spin order,
    and its complement F, without densifying V."""
    dim = h0.dim
    m = spin_map(h0.basis, m_indices)
    in_f = np.ones(dim, dtype=bool)
    in_f[m] = False
    f = np.flatnonzero(in_f)
    # scatter the nonzeros of V straight into the order (M, F)
    position = np.empty(dim, dtype=int)
    position[np.concatenate([m, f])] = np.arange(dim)
    mat = v.mat.tocsr()
    rows = np.repeat(position, np.diff(mat.indptr))
    cols = position[mat.indices]
    k = len(m)
    reached = np.zeros(dim, dtype=bool)
    reached[cols[(rows < k) & (cols >= k) & (mat.data != 0)]] = True
    energies = h0.diagonal().real
    return Partition(m, f, rows, cols, mat.data, energies[m], energies[f],
                     np.flatnonzero(reached[k:]))


def _check_engine(p):
    """The conditions that orders 2 and 3 rely on."""
    scale = p.energy_scale
    if np.abs(p.em).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("block M is not at zero collision energy")
    k = len(p.m)
    size = np.abs(p.vals)
    into_m = p.cols < k
    if (size[(p.rows < k) & into_m].max(initial=0.0)
            > 1e-13 * max(1.0, size.max(initial=0.0))):
        raise ValueError("tunneling does not vanish inside the "
                         "single-occupancy block")
    # F states within two hops of M: R and the F states R hops to
    reach = np.zeros(k + len(p.f), dtype=bool)
    reach[k + p.r] = True
    reach[p.cols[reach[p.rows] & ~into_m & (size > 0)]] = True
    if np.any(np.abs(p.ef[reach[k:]]) < 1e-12 * scale):
        raise DegenerateIntermediateError("degenerate intermediate state")


def _engine_partition(h0, v, m_indices):
    """The partition, with the conditions that orders 2 and 3 rely on."""
    p = partition(h0, v, m_indices)
    _check_engine(p)
    return p


def _check_hermitian(mat, what):
    defect = np.abs(mat - mat.conj().T).max()
    scale = max(1.0, np.abs(mat).max())
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(f"{what} lost hermiticity (defect {defect:.2e})")


def _second_order(p):
    block = -(p.vmr / p.er) @ p.vmr.conj().T
    _check_hermitian(block, "second-order effective Hamiltonian")
    return EffectiveHamiltonian(block)


def _third_order(p):
    block = (p.vmr / p.er) @ p.vrr @ (p.vmr.conj().T / p.er[:, None])
    _check_hermitian(block, "third-order effective Hamiltonian")
    return EffectiveHamiltonian(block)


def h_eff_second(h0, v, m_indices):
    """Superexchange block: hop out of M and straight back."""
    return _second_order(_engine_partition(h0, v, m_indices))


def h_eff_third(h0, v, m_indices):
    """Two-intermediate processes; three-spin terms originate here."""
    return _third_order(_engine_partition(h0, v, m_indices))


def h_eff_up_to_third(h0, v, m_indices):
    return h_eff_second(h0, v, m_indices) + h_eff_third(h0, v, m_indices)


def cross_second(h0, va, vb, m_indices):
    """Bilinear cross term of the order-2 map: engine(Va + Vb) order-2
    minus the two diagonal parts."""
    pa = _engine_partition(h0, va, m_indices)
    pb = _engine_partition(h0, vb, m_indices)
    k = len(pa.m)
    r = np.union1d(pa.r, pb.r)
    a, b = (p.block(np.arange(k), k + r) for p in (pa, pb))
    ef = pa.ef[r]
    block = -(a / ef) @ b.conj().T - (b / ef) @ a.conj().T
    return EffectiveHamiltonian(block)


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


def _oscillatory_second(vmr, er, t):
    """Non-growing part of the second-order Dyson term: these carry
    exp(-iEt)-type factors and average away over long times."""
    w = (1.0 - np.exp(-1j * er * t)) / er ** 2
    return -(vmr * w) @ vmr.conj().T


def _oscillatory_third(vmr, vrr, er, t):
    """Non-growing part of the third-order Dyson term."""
    eg = er[:, None]
    ed = er[None, :]
    omega = eg - ed
    same = np.abs(omega) < 1e-12 * max(1.0, np.abs(er).max(initial=0.0))

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
    return vmr @ (kernel * vrr) @ vmr.conj().T


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
    wiggle = (_oscillatory_second(p.vmr, p.er, t)
              + _oscillatory_third(p.vmr, p.vrr, p.er, t))
    reference = la.expm(-1j * h_eff.matrix * t)
    return la.norm(exact - wiggle - reference, 2)
