"""All-orders oracle: eliminate the multiply-occupied block exactly.

Setting the amplitudes of the energetically distant states stationary
turns the Schroedinger equation into a linear system for the fast block;
solving it at zero quasi-energy gives

    H_eff = H_MM - H_MF (H_FF)^{-1} H_FM,      H = H0 + V.

Because the full fast block (including tunneling within it) is
inverted, this resums the perturbative series to all orders and is an
independent check of the order-2/3 engine.

H_FF is factored once by LU.  Its condition number is LAPACK's ?gecon
estimate of the 1-norm condition number kappa_1 from that factorisation.
The estimate is a lower bound on kappa_1, in practice within a small
factor of it; for Hermitian H_FF, kappa_1 bounds kappa_2 from above.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .perturb import (EffectiveHamiltonian, h_eff_second, h_eff_third,
                      partition)

COND_LIMIT = 1e12


@dataclass
class AdiabaticResult:
    """Eliminated Hamiltonian with the fast block's conditioning.

    ``condition_number`` is LAPACK's 1-norm estimate of kappa_1(H_FF)
    (``inf`` for a singular block, 0 without a fast block); for
    Hermitian H_FF, kappa_1 >= kappa_2.
    """

    h_eff: EffectiveHamiltonian
    condition_number: float
    dims: tuple   # (total, fast, slow)


def _factor_fast_block(hff):
    """LU factors of H_FF and the 1-norm estimate of its condition."""
    with warnings.catch_warnings():
        # an exactly singular block is reported through rcond = 0
        warnings.simplefilter("ignore", la.LinAlgWarning)
        lu = la.lu_factor(hff, check_finite=False)
    gecon, = la.get_lapack_funcs(("gecon",), (lu[0],))
    rcond, _ = gecon(lu[0], np.abs(hff).sum(axis=0).max(), norm="1")
    return lu, (np.inf if rcond == 0 else 1.0 / rcond)


def adiabatic_eliminate(h0, v, m_indices, cond_limit=COND_LIMIT):
    """Exact elimination of the fast block; returns the spin-ordered
    effective Hamiltonian and the estimated 1-norm condition number of
    the fast block."""
    p = partition(h0, v, m_indices)
    # H0 is diagonal: H_MM and H_FF are V's blocks plus the energies
    block = p.vmm
    block[np.diag_indices_from(block)] += p.em
    cond = 0.0
    if len(p.f):
        hff = p.vff
        hff[np.diag_indices_from(hff)] += p.ef
        lu, cond = _factor_fast_block(hff)
        if not np.isfinite(cond) or cond > cond_limit:
            raise ValueError(
                "fast block not invertible; parameters too close to resonance")
        block = block - p.vmf @ la.lu_solve(lu, p.vmf.conj().T,
                                            check_finite=False)
    block = 0.5 * (block + block.conj().T)
    heff = EffectiveHamiltonian(block, order="all", provenance="adiabatic")
    return AdiabaticResult(heff, float(cond), (h0.dim, len(p.f), len(p.m)))


def truncated_series(h0, v, m_indices, order=3):
    """Neumann expansion of the fast-block inverse, truncated.

    Order 2 reproduces the superexchange formula and order 3 adds the
    two-intermediate term; both must agree with the perturbative engine
    to machine precision.
    """
    p = partition(h0, v, m_indices)
    ef = p.ef
    if np.any(np.abs(ef) < 1e-12 * p.energy_scale):
        raise ValueError("zero-energy fast state; series undefined")
    block = -(p.vmf / ef) @ p.vmf.conj().T
    if order >= 3:
        block = block + (p.vmf / ef) @ p.vff @ (p.vmf.conj().T / ef[:, None])
    return EffectiveHamiltonian(block, order=f"<={order}",
                                provenance="adiabatic-series")


def series_compare(h0, v, m_indices):
    """Residuals between the exact elimination, its truncated series and
    the perturbative engine.  Requires the Neumann series to converge,
    i.e. the tunneling norm within the fast block below the smallest
    fast energy."""
    p = partition(h0, v, m_indices)
    vff_norm = la.norm(p.vff, 2)
    emin = np.abs(p.ef).min() if len(p.f) else np.inf
    if vff_norm >= emin:
        raise ValueError("tunneling too large: fast-block series does not "
                         f"converge (|V_FF| = {vff_norm:.3g} >= {emin:.3g})")
    exact = adiabatic_eliminate(h0, v, m_indices)
    h2 = h_eff_second(h0, v, m_indices)
    h3 = h_eff_third(h0, v, m_indices)
    series3 = truncated_series(h0, v, m_indices, order=3)
    engine = h2.matrix + h3.matrix
    return {
        "adiabatic_vs_engine": la.norm(exact.h_eff.matrix - engine, 2),
        "series_vs_engine": la.norm(series3.matrix - engine, 2),
        "engine_third_norm": la.norm(h3.matrix, 2),
        "condition_number": exact.condition_number,
        "dims": exact.dims,
    }
