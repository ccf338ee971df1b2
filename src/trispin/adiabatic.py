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

``eliminate`` takes the partition the engine reads; its sparse H_FF is
factored once by sparse LU (SuperLU, minimum-degree ordering of
H_FF + H_FF^T, which fits its symmetric pattern), in real arithmetic
when all of V is real (E_F always is); the result stays complex.  H_FM
is nonzero only on the states R one hop from M, so the right-hand sides
have rows only there and only those rows of the solution are used.  The
connected components of V's pattern (without species mixing, the
conserved (n_up, n_down) sectors) never couple, and neither do the LU
factors of their blocks, so the M states of different components share
one right-hand-side column: each takes its rank within its component
as its column, the one solve takes max_b |M_b| columns instead of 2^n
(20 instead of 64 for the fermionic zig-zag chain of six sites), and
entry (a, b) of the correction is read from the column of b where a
and b share a component and is zero elsewhere.  The condition
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

import numpy as np
import scipy.sparse.linalg as spla

from .perturb import (EffectiveHamiltonian, check_engine, partition,
                      partition_with_m, second_order, spectral_norm,
                      third_order)

COND_LIMIT = 1e12
# iterations of the 1-norm estimate, scipy's ``onenormest`` default
ONENORMEST_ITMAX = 5


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


def _factor_fast_block(hff):
    """Sparse LU factors of H_FF and the 1-norm estimate of its
    condition; ``None`` and ``inf`` for an exactly singular block."""
    try:
        lu = spla.splu(hff, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None, np.inf
    n = hff.shape[0]
    columns = np.repeat(np.arange(n), np.diff(hff.indptr))
    norm = np.bincount(columns, weights=np.abs(hff.data), minlength=n).max()
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


def _rank_in_component(labels):
    """Rank of each state among the states of its component, in order."""
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.searchsorted(grouped, grouped)
    return rank


def eliminate(p):
    """Exact elimination of the fast block of a partition."""
    k = len(p.m)
    # H0 is diagonal: H_MM and H_FF are V's blocks plus the energies
    block = p.block(np.arange(k), np.arange(k))
    block[np.diag_indices_from(block)] += p.em
    cond = 0.0
    if len(p.f):
        hff = p.fast_block()
        lu, cond = _factor_fast_block(hff)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise ValueError(
                "fast block not invertible; parameters too close to resonance")
        label = p.split.labels[:k]
        column = _rank_in_component(label)
        vmr = p.vmr if np.iscomplexobj(hff) else p.vmr.real
        # the rows of V_MR that share a column have disjoint supports
        packed = np.zeros((column.max() + 1, len(p.r)), dtype=vmr.dtype)
        np.add.at(packed, column, vmr)
        rhs = np.zeros((len(p.f), len(packed)), dtype=hff.dtype)
        rhs[p.r] = packed.conj().T
        solved = vmr @ lu.solve(rhs)[p.r]
        block -= np.where(label[:, None] == label, solved[:, column], 0)
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
    2-norm of the dense V_FF that the series reads too."""
    p = partition(h0, v)
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
