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
basis into M and F and puts M in that order; only this module reads how
a ``Partition`` stores V.  Callers pass one partition to ``check_engine``,
the orders and ``trispin.adiabatic.eliminate``; the ``(h0, v, m)``
routes such as ``h_eff_second`` build their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

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
    V is assembled two ways: dense blocks (``block``, and ``vff`` = V_FF
    for the series check of ``trispin.adiabatic``, which runs on all of
    F) and the sparse H_FF that the elimination factors (``fast_block``).
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

    def components(self):
        """Connected component of each (M, F) position under V's nonzero
        pattern, labelled by its smallest position.

        Without species mixing these are the (n_up, n_down) sectors.
        Each pass lowers every label to the smallest label among itself
        and its neighbours, then to the label of that label, so the
        passes number about the logarithm of a component's diameter;
        scipy's ``connected_components`` costs several times more at
        triangle size.
        """
        ends = np.concatenate([self.rows, self.cols])
        starts = np.concatenate([self.cols, self.rows])
        label = np.arange(len(self.m) + len(self.f))
        total = label.sum()
        while True:
            np.minimum.at(label, ends, label[starts])
            label = label[label]
            # labels only fall, so an unchanged sum is a fixed point
            lowered = label.sum()
            if lowered == total:
                return label
            total = lowered

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

    @cached_property
    def vff(self):
        f = len(self.m) + np.arange(len(self.f))
        return self.block(f, f)

    def fast_block(self):
        """H_FF = V_FF + diag(E_F) in canonical CSC form, real when V is."""
        k, nf = len(self.m), len(self.f)
        inside_f = (self.rows >= k) & (self.cols >= k)
        diag = np.arange(nf)
        rows = np.concatenate([self.rows[inside_f] - k, diag])
        cols = np.concatenate([self.cols[inside_f] - k, diag])
        # assembled by hand: the COO route costs more than factoring the
        # 48 x 48 fast block of a triangle, and so does scipy's scan of
        # 64-bit indices for a narrower type; SuperLU takes 32-bit ones
        by_column = np.argsort(cols, kind="stable")
        indptr = np.zeros(nf + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=nf), out=indptr[1:])
        vals = self.vals if self.vals.imag.any() else self.vals.real
        hff = sp.csc_matrix(
            (np.concatenate([vals[inside_f], self.ef])[by_column],
             rows[by_column].astype(np.int32), indptr), shape=(nf, nf))
        hff.sum_duplicates()
        return hff


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


def check_engine(p):
    """Check the conditions that orders 2 and 3 rely on; returns ``p``."""
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
    return p


def _check_hermitian(mat, what):
    defect = np.abs(mat - mat.conj().T).max()
    scale = max(1.0, np.abs(mat).max())
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(f"{what} lost hermiticity (defect {defect:.2e})")


def second_order(p):
    block = -(p.vmr / p.er) @ p.vmr.conj().T
    _check_hermitian(block, "second-order effective Hamiltonian")
    return EffectiveHamiltonian(block)


def third_order(p):
    block = (p.vmr / p.er) @ p.vrr @ (p.vmr.conj().T / p.er[:, None])
    _check_hermitian(block, "third-order effective Hamiltonian")
    return EffectiveHamiltonian(block)


def h_eff_second(h0, v, m_indices):
    """Superexchange block: hop out of M and straight back."""
    return second_order(check_engine(partition(h0, v, m_indices)))


def h_eff_third(h0, v, m_indices):
    """Two-intermediate processes; three-spin terms originate here."""
    return third_order(check_engine(partition(h0, v, m_indices)))


def h_eff_up_to_third(h0, v, m_indices):
    p = check_engine(partition(h0, v, m_indices))
    return second_order(p) + third_order(p)


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
