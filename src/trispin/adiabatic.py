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
species mixing, the conserved (n_up, n_down) sectors), and V_MF couples
each block only to the M states of its own component, so the
correction is a sum of one Schur complement per component.
``eliminate`` runs one loop over the components that the M/F split
lays out once per plan (``perturb.Split.components``): it scatters each
block into a dense array and factors it by LAPACK's ?getrf with partial
pivoting (Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM (1999)),
which also covers an indefinite block (collision energies of both
signs), solves with ?getrs on the component's own V_FM columns and
subtracts V_MF X from the component's (M, M) entries of H_MM.  The
dense blocks take sum_b size_b^2 entries, so a split whose blocks would
exceed ``DENSE_MAX_BYTES`` is refused before anything is allocated.
The correction is checked Hermitian within ``perturb.HERMITICITY_TOL``
before it is symmetrized, as the orders are.

The condition number is a lower estimate of the 1-norm condition number
kappa_1: ||H_FF||_1, the largest column sum of |V_FF| + |E_F| from the
sparse entries, times the largest of the blocks' estimates of
||H_b^{-1}||_1, which is ||H_FF^{-1}||_1 for a block-diagonal H_FF.
Each block's estimate is LAPACK's ?gecon on its LU factors (Higham, ACM
Trans. Math. Softw. 14, 381 (1988)), which uses no random vectors, so
it is deterministic.  An exact zero pivot, or a reciprocal estimate of
zero, makes H_FF singular.  In practice the estimate is within a small
factor of kappa_1; for Hermitian H_FF, kappa_1 bounds kappa_2 from
above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .perturb import (EffectiveHamiltonian, check_engine, check_hermitian,
                      partition, partition_with_m, second_order,
                      spectral_norm, third_order)

COND_LIMIT = 1e12
# largest dense arrays of one fast block, by both refusals: the V_FF of
# ``series_compare`` keeps the fermionic zig-zag chain of six sites
# (F = 860, 11.8 MB complex) and refuses seven (F = 3,304, 87 MB real,
# 175 MB complex); the blocks of H_FF that ``eliminate`` factors keep
# fermionic chains up to seven sites (24.3 MiB real, 48.7 MiB complex)
# and bosonic ones up to five (6.1 / 12.2 MiB) and refuse fermionic
# eight (331.5 / 663 MiB) and bosonic six (218 / 435 MiB)
DENSE_MAX_BYTES = 2 ** 26
# LAPACK's dense LU, its condition estimate and its solve, per dtype of
# H_FF
_DENSE_LU = {np.dtype(t): get_lapack_funcs(("getrf", "gecon", "getrs"),
                                           dtype=t)
             for t in (np.float64, np.complex128)}


@dataclass
class AdiabaticResult:
    """Eliminated Hamiltonian with the fast block's conditioning.

    ``condition_number`` is ||H_FF||_1 times the largest of the blocks'
    ?gecon estimates of ||H_b^{-1}||_1, a deterministic lower estimate
    of kappa_1(H_FF) (0 without a fast block); for Hermitian H_FF,
    kappa_1 >= kappa_2.
    """

    h_eff: EffectiveHamiltonian
    condition_number: float
    dims: tuple   # (total, fast, slow)


def _dense_block(p, states, entries, rows, cols):
    """H_FF = V_FF + diag(E_F) on one component of ``Split.components``,
    dense and in Fortran order: its entries of V_FF at their (row,
    column) pairs, E_F on its diagonal."""
    size = len(states)
    dense = np.zeros((size, size), dtype=p.vals.dtype, order="F")
    dense[rows, cols] = p.vals[entries]
    dense[np.diag_indices(size)] += p.ef[states]
    return dense


def _refuse_dense(nbytes, what):
    """``ValueError`` naming the MiB of dense arrays beyond
    ``DENSE_MAX_BYTES``, before any of them is built."""
    if nbytes > DENSE_MAX_BYTES:
        raise ValueError(f"fast block too large for {what} would take "
                         f"{nbytes / 2 ** 20:.0f} MiB, "
                         f"limit {DENSE_MAX_BYTES / 2 ** 20:.0f} MiB")


def eliminate(p):
    """Exact elimination of the fast block of a partition, one component
    at a time; a fast block whose dense blocks would exceed
    ``DENSE_MAX_BYTES`` is refused before anything is allocated, the
    component structure included."""
    k, nf = len(p.m), len(p.f)
    sizes = np.bincount(p.split.labels[k:])
    _refuse_dense(p.vals.itemsize * int((sizes ** 2).sum()),
                  "the elimination: its dense blocks")
    block = p.slow_block()
    cond = 0.0
    if nf:
        getrf, gecon, getrs = _DENSE_LU[p.vals.dtype]
        ff = p.split.ff
        norm = (np.bincount(p.cols[ff] - k, np.abs(p.vals[ff]), nf)
                + np.abs(p.ef)).max()
        for (states, entries, rows, cols,
             m, mf, mf_rows, mf_cols) in p.split.components:
            lu, piv, info = getrf(_dense_block(p, states, entries, rows,
                                               cols), overwrite_a=True)
            # ?gecon with ||H_b||_1 = 1 gives 1 / ||H_b^{-1}||_1
            rcond = gecon(lu, 1.0)[0] if info == 0 else 0.0
            estimate = norm / rcond if rcond > 0 else np.inf
            if not estimate <= COND_LIMIT:
                raise ValueError("fast block not invertible; parameters "
                                 "too close to resonance")
            cond = max(cond, estimate)
            vmf = np.zeros((len(m), len(states)), dtype=p.vals.dtype)
            vmf[mf_rows, mf_cols] = p.vals[mf]
            block[np.ix_(m, m)] -= vmf @ getrs(lu, piv, vmf.conj().T)[0]
    check_hermitian(block, "eliminated Hamiltonian")
    block = 0.5 * (block + block.conj().T)
    return AdiabaticResult(EffectiveHamiltonian(block), float(cond),
                           (k + nf, nf, k))


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
    ``DENSE_MAX_BYTES`` is refused before it is built."""
    p = partition(h0, v)
    _refuse_dense(len(p.f) ** 2 * p.vals.itemsize,
                  "the series check: dense V_FF")
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
