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
the dense block V_MR and the sparse V_RR, order 3 as
(V_MR / E_R) (V_RR (V_MR^dag / E_R)); V itself is never densified.
When every entry of V is real, ``partition`` keeps its values real, so
the orders and the elimination run in real arithmetic; their results
are complex all the same.

Every result is in spin order: position k of a block is the n-qubit
configuration whose bit i (big-endian) is 0 for an up atom on site i
and 1 for a down atom.  M is the basis' whole single-occupancy block
(``Basis.single_occupancy``), so the structure of the split (the spin
order of M, the (M, F) positions of V's entries, their connected
components, the elimination's layout of M, the pattern of H_FF and its
blocks on the components) depends only on V's pattern.  Its one owner is V's
``Plan``: ``partition(h0, v)`` builds the split there once, and a
derivation only reads its values; a V built without a plan gets one
from its own pattern on first use.  Only this module reads how a
``Partition`` stores V.  Callers pass one partition to
``check_engine``, the orders and ``trispin.adiabatic.eliminate``; the
``(h0, v, m)`` routes such as ``h_eff_second`` check M and build their
own (``partition_with_m``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import pauli
from .hubbard import compress, pattern_plan

HERMITICITY_TOL = 1e-12


class DegenerateIntermediateError(ValueError):
    """An intermediate state reachable from M has zero collision energy."""


def spin_map(basis, m):
    """Order the single-occupancy states ``m`` as n-qubit configurations:
    entry k is the basis position of configuration k, whose bit i
    (big-endian) is the down occupation of site i."""
    n = basis.n_sites
    if len(m) != 2 ** n:
        raise ValueError("single-occupancy block is not a full spin space")
    m = np.asarray(m, dtype=int)
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


@dataclass(eq=False)
class Split:
    """The M/F split of one pattern of V: structure only, so one split
    serves every derivation that shares the pattern (``partition`` keeps
    it on V's ``Plan``), with the components of V's pattern, the
    elimination's layout of M and H_FF's pattern and blocks (``labels``,
    ``layout``, ``hff``, ``components``), built on first use.

    ``m`` lists the basis positions of M in spin order and ``f`` those of
    the multiply-occupied rest in basis order.  ``rows`` and ``cols`` are
    the positions of V's stored entries in the order (M, F): position
    k < len(m) is ``m[k]``, position len(m) + k is ``f[k]``.  ``mm``
    lists the entries of V_MM (none for a hop), ``mf`` those of V_MF and
    ``mf_targets`` their F columns, from which a partition reads which F
    states its values reach; ``ff`` lists the entries of V_FF.  H_FF is
    block-diagonal over the components: ``components`` gives each block
    its F positions and each of its entries a place in it, so that the
    elimination factors the blocks one by one without extracting them.
    """

    m: np.ndarray
    f: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        k = len(self.m)
        in_m = self.rows < k
        self.mm = np.flatnonzero(in_m & (self.cols < k))
        self.mf = np.flatnonzero(in_m & (self.cols >= k))
        self.mf_targets = self.cols[self.mf] - k
        self.ff = np.flatnonzero(~in_m & (self.cols >= k))
        for array in (self.m, self.f, self.rows, self.cols, self.mm,
                      self.mf, self.mf_targets, self.ff):
            array.flags.writeable = False

    @classmethod
    def of_pattern(cls, basis, indptr, indices):
        """The split of the CSR pattern (``indptr``, ``indices``) of V on
        ``basis``, with M the basis' single-occupancy block."""
        dim = len(basis)
        m = spin_map(basis, basis.single_occupancy)
        in_f = np.ones(dim, dtype=bool)
        in_f[m] = False
        f = np.flatnonzero(in_f)
        position = np.empty(dim, dtype=int)
        position[np.concatenate([m, f])] = np.arange(dim)
        return cls(m, f, np.repeat(position, np.diff(indptr)),
                   position[indices])

    @cached_property
    def labels(self):
        """Connected component of each (M, F) position under V's pattern,
        numbered in the order of the components' smallest positions;
        without species mixing, the (n_up, n_down) sectors."""
        dim = len(self.m) + len(self.f)
        graph = sp.coo_matrix((np.ones(len(self.rows)),
                               (self.rows, self.cols)), shape=(dim, dim))
        _, label = connected_components(graph, directed=False)
        label.flags.writeable = False
        return label

    @cached_property
    def layout(self):
        """The elimination's layout of M, as ``(column, same)``: the mask
        of the pairs of M states that share a component, and each M
        state's right-hand-side column, the number of M states before it
        in spin order within its component."""
        label = self.labels[:len(self.m)]
        same = label[:, None] == label
        column = np.tril(same, -1).sum(axis=1)
        for array in (column, same):
            array.flags.writeable = False
        return column, same

    @cached_property
    def hff(self):
        """H_FF in CSC form (``hubbard.compress``): the entries ``ff`` of
        V_FF, then the energies of F on the diagonal, which V, a hop,
        never touches."""
        k, nf = len(self.m), len(self.f)
        diag = np.arange(nf)
        rows = np.concatenate([self.rows[self.ff] - k, diag])
        cols = np.concatenate([self.cols[self.ff] - k, diag])
        return compress(cols, rows, nf)

    @cached_property
    def components(self):
        """H_FF's blocks on the connected components of V's pattern, the
        largest first, so that its factorisation runs on the least held
        memory.  Each is ``(states, entries, rows, indptr, columns)``:
        its F positions in F order, the stored entries of ``hff`` in its
        block in the block's CSC order (columns, then rows, in F order),
        and the CSC pattern of the block in the component's own
        positions, with each entry's column beside its row."""
        nf = len(self.f)
        _, indices, indptr = self.hff
        _, component, sizes = np.unique(self.labels[len(self.m):],
                                        return_inverse=True,
                                        return_counts=True)
        order = np.argsort(component, kind="stable")
        starts = np.concatenate([[0], np.cumsum(sizes)])
        rank = np.arange(nf) - np.repeat(starts[:-1], sizes)
        local = np.empty(nf, dtype=np.int32)
        local[order] = rank
        # the columns of H_FF in that order, each with its stored entries
        per_column = np.diff(indptr)[order]
        ends = np.cumsum(per_column)
        entries = (np.arange(ends[-1]) + np.repeat(
            indptr[order] + per_column - ends, per_column)).astype(np.int32)
        rows = local[indices[entries]]
        columns = np.repeat(rank.astype(np.int32), per_column)
        bounds = np.concatenate([[0], ends[starts[1:] - 1]])
        for array in (order, entries, rows, columns):
            array.flags.writeable = False
        blocks = []
        for b in np.argsort(-sizes, kind="stable"):
            states = slice(starts[b], starts[b + 1])
            stored = slice(bounds[b], bounds[b + 1])
            block_indptr = np.concatenate(
                [[0], ends[states] - bounds[b]]).astype(np.int32)
            block_indptr.flags.writeable = False
            blocks.append((order[states], entries[stored], rows[stored],
                           block_indptr, columns[stored]))
        return tuple(blocks)


@dataclass
class Partition:
    """Tunneling and collision energies of the M/F split, kept sparse.

    ``split`` holds the structure (``m``, ``f`` and the (M, F) positions
    ``rows`` and ``cols`` of V's entries, all read through this class),
    ``vals`` the values of those entries.  ``r`` lists the F states one
    nonzero hop from M, as positions within F; orders 2 and 3 visit no
    other intermediate state, so they run on the small dense block
    ``vmr`` = V_MR and the sparse ``vrr`` = V_RR.  V is assembled as
    dense blocks (``block``, and ``vff`` = V_FF for the series check of
    ``trispin.adiabatic``, which runs on all of F) and as the blocks
    H_MM and H_FF that the elimination reads (``slow_block``, and the
    sparse ``fast_block`` that it factors).  ``vals`` is real when all
    of V is (``partition`` decides), and every block follows its dtype.
    """

    split: Split
    vals: np.ndarray
    em: np.ndarray
    ef: np.ndarray
    r: np.ndarray

    @property
    def m(self):
        return self.split.m

    @property
    def f(self):
        return self.split.f

    @property
    def rows(self):
        return self.split.rows

    @property
    def cols(self):
        return self.split.cols

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
        """V_RR in CSR form.  The entries of V inside F come row by row
        and, within a row, column by column, in F order and so in R
        order: those between two states of R are already sorted."""
        k, nr = len(self.m), len(self.r)
        in_r = np.full(len(self.f), -1)
        in_r[self.r] = np.arange(nr)
        inside = self.split.ff
        i, j = in_r[self.rows[inside] - k], in_r[self.cols[inside] - k]
        keep = (i >= 0) & (j >= 0)
        indptr = np.zeros(nr + 1, dtype=np.int32)
        np.cumsum(np.bincount(i[keep], minlength=nr), out=indptr[1:])
        return sp.csr_matrix((self.vals[inside[keep]],
                              j[keep].astype(np.int32), indptr),
                             shape=(nr, nr))

    @cached_property
    def vff(self):
        f = len(self.m) + np.arange(len(self.f))
        return self.block(f, f)

    def slow_block(self):
        """H_MM = V_MM + diag(E_M), dense and complex, from the entries
        ``Split.mm`` of V_MM alone."""
        k, mm = len(self.m), self.split.mm
        out = np.zeros((k, k), dtype=complex)
        out[self.rows[mm], self.cols[mm]] = self.vals[mm]
        out[np.diag_indices(k)] += self.em
        return out

    def fast_block(self):
        """H_FF = V_FF + diag(E_F) in canonical CSC form, real when V is.

        The pattern comes from the split (``Split.hff``); the values are
        sorted into it.  SuperLU takes the 32-bit indices as they are.
        """
        order, indices, indptr = self.split.hff
        nf = len(self.f)
        return sp.csc_matrix(
            (np.concatenate([self.vals[self.split.ff], self.ef])[order],
             indices, indptr), shape=(nf, nf))


def partition(h0, v):
    """Split H0 and V into the basis' single-occupancy block M, in spin
    order, and its complement F, without densifying V.

    H0 and V must share a basis: the same object or equal rows in the
    same order, since H0's energies are read at V's positions.  The
    split is kept on V's ``Plan``; a V built without a plan gets one
    from its own pattern here and keeps it.
    """
    basis = v.basis
    if h0.basis is not basis and not np.array_equal(h0.basis.occ,
                                                    basis.occ):
        raise ValueError("H0 and V are not on the same basis")
    mat = v.mat.tocsr()
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    plan = v.plan
    if plan is None:
        plan = v.plan = pattern_plan(mat)
    if plan.split is None:
        plan.split = Split.of_pattern(basis, plan.indptr, plan.indices)
    split = plan.split
    # R is read from the values: an entry that is stored but zero does
    # not reach its F state
    reached = np.zeros(len(split.f), dtype=bool)
    reached[split.mf_targets[mat.data[split.mf] != 0]] = True
    energies = h0.diagonal().real
    # a real V is read in real arithmetic, by every order and block
    vals = mat.data if mat.data.imag.any() else mat.data.real
    return Partition(split, vals, energies[split.m], energies[split.f],
                     np.flatnonzero(reached))


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


def check_hermitian(mat, what):
    """``ValueError`` unless max|A - A^H| <= HERMITICITY_TOL max(1, max|A|)."""
    defect = np.abs(mat - mat.conj().T).max()
    scale = max(1.0, np.abs(mat).max())
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(f"{what} lost hermiticity (defect {defect:.2e})")


def spectral_norm(a):
    """The 2-norm of a dense matrix, its largest singular value, with
    the bits of ``scipy.linalg.norm(a, 2)`` but without its dispatch; a
    non-finite entry raises ``ValueError`` as there."""
    a = np.asarray_chkfinite(a)
    if not a.size:
        return np.float64(0.0)
    return np.linalg.svd(a, compute_uv=False)[0]


def second_order(p):
    block = -(p.vmr / p.er) @ p.vmr.conj().T
    check_hermitian(block, "second-order effective Hamiltonian")
    return EffectiveHamiltonian(block.astype(complex, copy=False))


def third_order(p):
    block = (p.vmr / p.er) @ (p.vrr @ (p.vmr.conj().T / p.er[:, None]))
    check_hermitian(block, "third-order effective Hamiltonian")
    return EffectiveHamiltonian(block.astype(complex, copy=False))


def partition_with_m(h0, v, m_indices):
    """``partition(h0, v)`` after checking ``m_indices`` (``spin_map``)
    unless it is the basis' own ``single_occupancy``: any M that passes
    lists that block, in an order that does not change the result."""
    if m_indices is not v.basis.single_occupancy:
        spin_map(v.basis, m_indices)
    return partition(h0, v)


def h_eff_second(h0, v, m_indices):
    """Superexchange block: hop out of M and straight back."""
    return second_order(check_engine(partition_with_m(h0, v, m_indices)))


def h_eff_third(h0, v, m_indices):
    """Two-intermediate processes; three-spin terms originate here."""
    return third_order(check_engine(partition_with_m(h0, v, m_indices)))


@dataclass
class PauliDecomposition:
    """Map from Pauli strings to coefficients, c_P = Tr(P H) / 2^n."""

    n_sites: int
    coeffs: dict

    def __getitem__(self, string):
        return self.coeffs.get(string, 0.0 + 0j)

    def nonzero(self, tol=1e-14):
        return {s: c for s, c in self.coeffs.items() if abs(c) > tol}


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
