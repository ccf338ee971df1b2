"""All-orders oracle: eliminate the multiply-occupied block exactly.

Setting the amplitudes of the energetically distant states stationary
turns the Schroedinger equation into a linear system for the fast block;
solving it at zero quasi-energy gives

    H_eff = H_MM - H_MF (H_FF)^{-1} H_FM,      H = H0 + V.

Because the full fast block (including tunneling within it) is
inverted, this resums the perturbative series to all orders and is an
independent check of the order-2/3 engine.

H_FF is built as a sparse matrix from the partition's nonzeros and
factored once by sparse LU (SuperLU, minimum-degree ordering of
H_FF + H_FF^T, which fits its symmetric pattern).  H_FM is nonzero only
on the states R one hop from M, so the solve runs against those rows
alone and only their rows of the solution are used.  The condition
number is a lower estimate of the 1-norm condition number kappa_1:
||H_FF||_1 exactly, times scipy's ``onenormest`` of ||H_FF^{-1}||_1
through solves with the factors.  With one column (t = 1) that is
Hager's iteration from the start vector (1, ..., 1) / n, without random
columns, so the estimate is deterministic (Hager, SIAM J. Sci. Stat.
Comput. 5, 311 (1984); Higham & Tisseur, SIAM J. Matrix Anal. Appl. 21,
1185 (2000)).  In practice it is within a small factor of kappa_1; for
Hermitian H_FF, kappa_1 bounds kappa_2 from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .perturb import (EffectiveHamiltonian, _check_engine, _second_order,
                      _third_order, partition)

COND_LIMIT = 1e12


@dataclass
class AdiabaticResult:
    """Eliminated Hamiltonian with the fast block's conditioning.

    ``condition_number`` is a deterministic lower estimate of
    kappa_1(H_FF) (``inf`` for a singular block, 0 without a fast
    block); for Hermitian H_FF, kappa_1 >= kappa_2.
    """

    h_eff: EffectiveHamiltonian
    condition_number: float
    dims: tuple   # (total, fast, slow)


def _fast_block(p):
    """H_FF = V_FF + diag(E_F) in canonical CSC form."""
    k, nf = len(p.m), len(p.f)
    inside_f = (p.rows >= k) & (p.cols >= k)
    diag = np.arange(nf)
    rows = np.concatenate([p.rows[inside_f] - k, diag])
    cols = np.concatenate([p.cols[inside_f] - k, diag])
    # assembled by hand: the COO route costs more than factoring the
    # 48 x 48 fast block of a triangle
    by_column = np.argsort(cols, kind="stable")
    indptr = np.zeros(nf + 1, dtype=int)
    np.cumsum(np.bincount(cols, minlength=nf), out=indptr[1:])
    hff = sp.csc_matrix(
        (np.concatenate([p.vals[inside_f], p.ef])[by_column],
         rows[by_column], indptr), shape=(nf, nf))
    hff.sum_duplicates()
    return hff


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
    inverse = spla.LinearOperator(
        (n, n), matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="H"),
        dtype=hff.dtype)
    return lu, norm * spla.onenormest(inverse, t=1)


def _eliminate(p):
    k = len(p.m)
    # H0 is diagonal: H_MM and H_FF are V's blocks plus the energies
    block = p.block(np.arange(k), np.arange(k))
    block[np.diag_indices_from(block)] += p.em
    cond = 0.0
    if len(p.f):
        hff = _fast_block(p)
        lu, cond = _factor_fast_block(hff)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise ValueError(
                "fast block not invertible; parameters too close to resonance")
        rhs = np.zeros((len(p.f), k), dtype=hff.dtype)
        rhs[p.r] = p.vmr.conj().T
        block = block - p.vmr @ lu.solve(rhs)[p.r]
    block = 0.5 * (block + block.conj().T)
    return AdiabaticResult(EffectiveHamiltonian(block), float(cond),
                           (k + len(p.f), len(p.f), k))


def adiabatic_eliminate(h0, v, m_indices):
    """Exact elimination of the fast block; returns the spin-ordered
    effective Hamiltonian and the estimated 1-norm condition number of
    the fast block, which must not exceed ``COND_LIMIT``."""
    return _eliminate(partition(h0, v, m_indices))


def _truncated(p, order):
    if np.any(np.abs(p.ef) < 1e-12 * p.energy_scale):
        raise ValueError("zero-energy fast state; series undefined")
    block = _second_order(p)
    return block + _third_order(p) if order == 3 else block


def truncated_series(h0, v, m_indices, order=3):
    """Neumann expansion of the fast-block inverse, truncated.

    Order 2 reproduces the superexchange formula and order 3 adds the
    two-intermediate term; both must agree with the perturbative engine
    to machine precision.  No other order is computed.
    """
    if order not in (2, 3):
        raise ValueError(f"series order {order!r} not implemented; "
                         "only orders 2 and 3 are")
    return _truncated(partition(h0, v, m_indices), order)


def series_compare(h0, v, m_indices):
    """Residuals between the exact elimination, its truncated series and
    the perturbative engine, all from one partition.  Requires the
    Neumann series to converge, i.e. the tunneling norm within the fast
    block below the smallest fast energy; that norm is the exact
    2-norm of a dense copy of V_FF."""
    p = partition(h0, v, m_indices)
    fast = len(p.m) + np.arange(len(p.f))
    vff_norm = la.norm(p.block(fast, fast), 2)
    emin = np.abs(p.ef).min() if len(p.f) else np.inf
    if vff_norm >= emin:
        raise ValueError("tunneling too large: fast-block series does not "
                         f"converge (|V_FF| = {vff_norm:.3g} >= {emin:.3g})")
    exact = _eliminate(p)
    _check_engine(p)
    h2 = _second_order(p)
    h3 = _third_order(p)
    series3 = _truncated(p, 3)
    engine = h2.matrix + h3.matrix
    return {
        "adiabatic_vs_engine": la.norm(exact.h_eff.matrix - engine, 2),
        "series_vs_engine": la.norm(series3.matrix - engine, 2),
        "engine_third_norm": la.norm(h3.matrix, 2),
        "condition_number": exact.condition_number,
        "dims": exact.dims,
    }
