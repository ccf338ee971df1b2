"""Zero-energy oracle: eliminate the multiply-occupied block exactly.

Setting the amplitudes of the energetically distant states stationary
turns the Schroedinger equation into a linear system for the fast block;
solving it at zero quasi-energy gives

    H_eff = H_MM - H_MF (H_FF)^{-1} H_FM,      H = H0 + V.

The full fast block, tunneling within it included, is inverted at the
energy of M, so this sums the E = 0 Brillouin-Wigner series to all
orders.  Through order 3 it equals the order-2/3 engine, of which it is
an independent check; from order 4 on it differs from the exact
low-energy effective Hamiltonian, whose levels sit at O(J^2/U) and not
at 0, by O(J^4/U^3).

``eliminate`` takes the partition the engine reads, in real arithmetic
when all of V is real (E_F always is); the result stays complex.  H_MM
is diag(E_M) plus the entries of V_MM, which no hop has.  H_FF is
block-diagonal over the connected components of V's pattern (without
species mixing, the conserved (n_up, n_down) sectors) and is factored
one component at a time, from the blocks that the M/F split lays out
once per plan (``perturb.Split.components``).  This is a size switch:
a component of at most ``DENSE_COMPONENT_DIM`` states is scattered into
a dense array and factored by LAPACK's ?getrf with partial pivoting
(Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM (1999)), which is
faster there; a larger one gets its own sparse LU (SuperLU,
minimum-degree ordering of H_b + H_b^T, which fits its symmetric
pattern).  Each block is Hermitian, so SuperLU runs in its symmetric
mode (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl.
20, 720 (1999)): the factorisation works on the structure of
H_b + H_b^T that the order was computed from, and it prefers diagonal
pivots.  The pivoting threshold stays at its default, so a diagonal
pivot is taken only where it passes the threshold test of partial
pivoting; an indefinite block (collision energies of both signs) keeps
that safeguard.  The general driver gives the same fill on these blocks
but takes longer, more than twice as long on the bosonic zig-zag chain
of six sites.  An exact zero pivot of either LU makes H_FF singular.
One factor object applies the factors component by component, so the
solves below see one solve with all of H_FF.
H_FM is nonzero only on the states R one hop from M, so the right-hand
sides have rows only there and only those rows of the solution are
used.  The components never couple, and neither do the LU factors of
their blocks, so the M states of different components share
one right-hand-side column: each takes its rank within its component
as its column, the one solve takes max_b |M_b| columns instead of 2^n
(20 instead of 64 for the fermionic zig-zag chain of six sites), and
entry (a, b) of the correction is read from the column of b where a
and b share a component and is zero elsewhere.  That layout is
structure, owned by the M/F split (``perturb.Split.layout``, built once
per plan); ``eliminate`` only packs, solves and reads back values.  The
correction is checked Hermitian within ``perturb.HERMITICITY_TOL``
before it is symmetrized, as the orders are.  The condition
number is a lower estimate of the 1-norm condition number kappa_1:
||H_FF||_1 exactly, times an estimate of ||H_FF^{-1}||_1 through solves
with the LU factors and their adjoint.  The estimate is Hager's
iteration with one column (t = 1) from the start vector (1, ..., 1) / n,
without random columns, so it is deterministic; it takes the steps of
scipy's ``onenormest(..., t=1)`` in the same order and gives its bits
(Hager, SIAM J. Sci. Stat. Comput. 5, 311 (1984); Higham & Tisseur,
SIAM J. Matrix Anal. Appl. 21, 1185 (2000)).  In practice it is within
a small factor of kappa_1; for Hermitian H_FF, kappa_1 bounds kappa_2
from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from .perturb import (EffectiveHamiltonian, check_engine, check_hermitian,
                      partition, partition_with_m, second_order,
                      spectral_norm, third_order)

COND_LIMIT = 1e12
# largest dense V_FF that ``series_compare`` builds: it holds the V_FF of
# the fermionic zig-zag chain of six sites (F = 860, 11.8 MB complex) and
# refuses seven (F = 3,304, 87 MB real, 175 MB complex); eight would take
# 1.3 GB real, 2.5 GB complex
SERIES_MAX_BYTES = 2 ** 26
# iterations of the 1-norm estimate, scipy's ``onenormest`` default
ONENORMEST_ITMAX = 5
# components of H_FF up to this many states are factored by LAPACK's
# dense ?getrf, larger ones by SuperLU.  On the components of the zig-zag
# chains (factors, 1-norm estimate and packed solve, one BLAS thread) the
# dense path took 0.46-0.76 of SuperLU's time from 30 to 515 states and
# 0.95 at 461 bosonic ones, 0.86-0.94 from 756 to 3,080 fermionic ones,
# but 1.22-1.33 from 1,506 to 3,116 bosonic ones.  A dense block holds
# all size^2 entries, 3.3-4.3 times SuperLU's fill from 345 to 1,190
# states, so the switch takes the gains of 1.3-2.2 times below it and
# leaves the few percent above it, which would hold 9 MB more at
# fermionic n = 8 (two blocks of 756 states); a dense block stays within
# 2.9 MB real, 5.8 MB complex
DENSE_COMPONENT_DIM = 600
# LAPACK's dense LU and its solve, per dtype of H_FF
_DENSE_LU = {np.dtype(t): get_lapack_funcs(("getrf", "getrs"), dtype=t)
             for t in (np.float64, np.complex128)}
_TRANS = {"N": 0, "T": 1, "H": 2}


@dataclass
class AdiabaticResult:
    """Eliminated Hamiltonian with the fast block's conditioning.

    ``condition_number`` is ||H_FF||_1 times the one-column Hager
    estimate of ||H_FF^{-1}||_1 from the LU factors, a deterministic
    lower estimate of kappa_1(H_FF) (``inf`` for a singular block, 0
    without a fast block); for Hermitian H_FF, kappa_1 >= kappa_2.
    """

    h_eff: EffectiveHamiltonian
    condition_number: float
    dims: tuple   # (total, fast, slow)


class _ComponentFactors:
    """LU factors of H_FF, one per connected component, applied component
    by component: ``solve(rhs, trans)`` solves H_FF X = B as SuperLU's
    does.  ``parts`` holds each component's F positions with its own
    solve, ``dense`` of them by LAPACK."""

    def __init__(self, parts, dtype, dense):
        self.parts, self.dtype, self.dense = parts, dtype, dense

    def solve(self, rhs, trans="N"):
        out = np.empty(rhs.shape, np.result_type(rhs, self.dtype))
        for states, solve in self.parts:
            out[states] = solve(rhs[states], trans)
        return out


def _dense_solve(getrs, lu, piv, rhs, trans):
    return getrs(lu, piv, rhs, trans=_TRANS[trans])[0]


def _factor_fast_block(hff, components):
    """LU factors of H_FF on its components (``Split.components``) and
    the 1-norm estimate of its condition; ``None`` and ``inf`` for an
    exactly singular block.

    A component of at most ``DENSE_COMPONENT_DIM`` states is scattered
    into a dense array and factored by LAPACK's ?getrf with partial
    pivoting; an exact zero pivot makes the block singular.  A larger
    one gets its own SuperLU factorisation.  Symmetric mode fits the
    Hermitian block: it works on the structure of H_FF + H_FF^T, as the
    minimum-degree order does, and prefers diagonal pivots; the default
    pivoting threshold keeps threshold partial pivoting for indefinite
    blocks."""
    getrf, getrs = _DENSE_LU[hff.dtype]
    parts, dense_parts = [], 0
    for states, entries, rows, indptr, cols in components:
        size = len(states)
        data = hff.data[entries]
        if size <= DENSE_COMPONENT_DIM:
            dense = np.zeros((size, size), dtype=hff.dtype, order="F")
            dense[rows, cols] = data
            lu, piv, info = getrf(dense, overwrite_a=True)
            if info > 0:
                return None, np.inf
            solve = partial(_dense_solve, getrs, lu, piv)
            dense_parts += 1
        else:
            block = sp.csc_matrix((data, rows, indptr), shape=(size, size))
            try:
                solve = spla.splu(block, permc_spec="MMD_AT_PLUS_A",
                                  options={"SymmetricMode": True}).solve
            except RuntimeError as exc:
                if "singular" not in str(exc):
                    raise
                return None, np.inf
        parts.append((states, solve))
    n = hff.shape[0]
    columns = np.repeat(np.arange(n), np.diff(hff.indptr))
    norm = np.bincount(columns, weights=np.abs(hff.data), minlength=n).max()
    lu = _ComponentFactors(parts, hff.dtype, dense_parts)
    return lu, norm * _inverse_one_norm(lu, n)


def _inverse_one_norm(lu, n):
    """Lower estimate of ||A^{-1}||_1 from the LU factors of A: Hager's
    iteration as scipy's ``_onenormest_core`` runs it at t = 1, step by
    step, so the result has its bits.  (A block of one state gives the
    exact value, as ``onenormest`` does by building the inverse.)"""
    x = np.full(n, 1 / n)
    s = np.zeros(n)
    est_old, k, j = 0, 1, None
    while True:
        y = lu.solve(x)
        est = np.abs(y).sum()
        if k >= 2 and est <= est_old:
            return est_old
        est_old, s_old = est, s
        if k > ONENORMEST_ITMAX:
            return est
        # sign(y), with sign(0) = 1; a sign vector parallel to the last
        # one ends the iteration
        s = y.copy()
        s[s == 0] = 1
        s /= np.abs(s)
        if np.dot(s, s_old) == n:
            return est
        h = np.abs(lu.solve(s, trans="H"))
        if k >= 2 and h.max() == h[j]:
            return est
        # the last of an unstable argsort, as scipy picks among ties
        j = np.argsort(h)[-1]
        x = np.zeros(n)
        x[j] = 1
        k += 1


def eliminate(p):
    """Exact elimination of the fast block of a partition."""
    k = len(p.m)
    block = p.slow_block()
    cond = 0.0
    if len(p.f):
        hff = p.fast_block()
        lu, cond = _factor_fast_block(hff, p.split.components)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise ValueError(
                "fast block not invertible; parameters too close to resonance")
        column, same = p.split.layout
        vmr = p.vmr
        # the rows of V_MR that share a column have disjoint supports
        packed = np.zeros((column.max() + 1, len(p.r)), dtype=vmr.dtype)
        np.add.at(packed, column, vmr)
        rhs = np.zeros((len(p.f), len(packed)), dtype=vmr.dtype)
        rhs[p.r] = packed.conj().T
        solved = vmr @ lu.solve(rhs)[p.r]
        block -= np.where(same, solved[:, column], 0)
    check_hermitian(block, "eliminated Hamiltonian")
    block = 0.5 * (block + block.conj().T)
    return AdiabaticResult(EffectiveHamiltonian(block), float(cond),
                           (k + len(p.f), len(p.f), k))


def adiabatic_eliminate(h0, v, m_indices):
    """Exact elimination of the fast block (M checked as for
    ``h_eff_second``): the spin-ordered effective Hamiltonian and the
    1-norm condition estimate of the fast block, at most ``COND_LIMIT``."""
    return eliminate(partition_with_m(h0, v, m_indices))


def _neumann(p, order):
    """Partial sum of -V_MF (D + V_FF)^-1 V_FM, D = diag(E_F), over all of
    F: -V_MF D^-1 V_FM at order 2, plus V_MF D^-1 V_FF D^-1 V_FM at
    order 3.  It runs on the dense blocks V_MF, V_FM and ``p.vff``, not
    on the states R one hop from M that the engine visits, so it checks
    the engine's restriction to R."""
    if np.any(np.abs(p.ef) < 1e-12 * p.energy_scale):
        raise ValueError("zero-energy fast state; series undefined")
    m, f = np.arange(len(p.m)), len(p.m) + np.arange(len(p.f))
    vmf = p.block(m, f)
    term = p.block(f, m) / p.ef[:, None]   # D^-1 V_FM
    block = -(vmf @ term)
    for _ in range(order - 2):
        term = -(p.vff @ term) / p.ef[:, None]
        block = block - vmf @ term
    return EffectiveHamiltonian(block)


def series_compare(h0, v):
    """Residuals between the exact elimination, its truncated series and
    the perturbative engine, all from one partition.  Requires the
    Neumann series to converge, i.e. the tunneling norm within the fast
    block below the smallest fast energy; that norm is the exact
    2-norm of the dense V_FF that the series reads too.  A V_FF beyond
    ``SERIES_MAX_BYTES`` is refused before it is built."""
    p = partition(h0, v)
    dense = len(p.f) ** 2 * p.vals.itemsize
    if dense > SERIES_MAX_BYTES:
        raise ValueError(f"fast block too large for the series check: "
                         f"dense V_FF would take {dense / 2 ** 20:.0f} MiB, "
                         f"limit {SERIES_MAX_BYTES / 2 ** 20:.0f} MiB")
    vff_norm = spectral_norm(p.vff)
    emin = np.abs(p.ef).min() if len(p.f) else np.inf
    if vff_norm >= emin:
        raise ValueError("tunneling too large: fast-block series does not "
                         f"converge (|V_FF| = {vff_norm:.3g} >= {emin:.3g})")
    exact = eliminate(p)
    check_engine(p)
    h2 = second_order(p)
    h3 = third_order(p)
    series3 = _neumann(p, 3)
    engine = h2.matrix + h3.matrix
    return {
        "adiabatic_vs_engine": spectral_norm(exact.h_eff.matrix - engine),
        "series_vs_engine": spectral_norm(series3.matrix - engine),
        "engine_third_norm": spectral_norm(h3.matrix),
        "condition_number": exact.condition_number,
        "dims": exact.dims,
    }
