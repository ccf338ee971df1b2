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
block into a dense array and factors it on one of two paths (Anderson
et al., LAPACK Users' Guide, 3rd ed., SIAM (1999)).  A block that is
exactly Hermitian and positive definite, as every block is at J << U
with repulsive collision energies, is factored in place by ?potrf as
L L^H; with Y = L^{-1} V_FM from one ?trtrs, the component's (M, M)
entries of H_MM lose Y^H Y.  Any other block (not exactly Hermitian, or
one on which ?potrf stops, such as an indefinite block with collision
energies of both signs) is scattered again and factored by ?getrf with
partial pivoting, solved with ?getrs on the component's own V_FM
columns, and V_MF X is subtracted.  The dense blocks take
sum_b size_b^2 entries, so a split whose blocks would exceed
``DENSE_MAX_BYTES`` is refused before anything is allocated.
``series_compare`` sums the truncated Neumann series on the same dense
blocks, component by component, and is refused by the same test.
The correction is checked Hermitian within ``perturb.HERMITICITY_TOL``
before it is symmetrized, as the orders are.

The condition number is a lower estimate of the 1-norm condition number
kappa_1: ||H_FF||_1, the largest column sum of |V_FF| + |E_F| from the
sparse entries, times the largest of the blocks' estimates of
||H_b^{-1}||_1, which is ||H_FF^{-1}||_1 for a block-diagonal H_FF.
Each block's estimate is LAPACK's ?pocon on its Cholesky factor or
?gecon on its LU factors (Higham, ACM Trans. Math. Softw. 14, 381
(1988)), which use no random vectors, so it repeats within a process;
across processes its last 1-2 ULP can move on the ?pocon path, while
the eliminated H stays bit-identical.  An exact zero pivot, or a
reciprocal estimate of zero, makes H_FF singular.  In practice the
estimate is within a small factor of kappa_1; for Hermitian H_FF,
kappa_1 bounds kappa_2 from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .perturb import (EffectiveHamiltonian, check_engine, check_hermitian,
                      partition, partition_with_m, second_order,
                      spectral_norm, third_order)

COND_LIMIT = 1e12
# largest sum of the dense blocks of H_FF, one per component, that
# ``eliminate`` factors and ``series_compare`` sums: it keeps fermionic
# zig-zag chains up to seven sites (24.3 MiB real, 48.7 MiB complex) and
# bosonic ones up to five (6.1 / 12.2 MiB) and refuses fermionic eight
# (331.5 / 663 MiB) and bosonic six (218 / 435 MiB)
DENSE_MAX_BYTES = 2 ** 26
# LAPACK's Cholesky factorization, its condition estimate and its
# triangular solve for a Hermitian positive-definite block of H_FF, and
# its dense LU, condition estimate and solve for any other, per dtype of
# H_FF
_CHOLESKY = {np.dtype(t): get_lapack_funcs(("potrf", "pocon", "trtrs"),
                                           dtype=t)
             for t in (np.float64, np.complex128)}
_DENSE_LU = {np.dtype(t): get_lapack_funcs(("getrf", "gecon", "getrs"),
                                           dtype=t)
             for t in (np.float64, np.complex128)}


@dataclass
class AdiabaticResult:
    """Eliminated Hamiltonian with the fast block's conditioning.

    ``condition_number`` is ||H_FF||_1 times the largest of the blocks'
    estimates of ||H_b^{-1}||_1 (?pocon on a Cholesky factor, ?gecon on
    LU factors), a lower estimate of kappa_1(H_FF) (0 without a fast
    block); for Hermitian H_FF, kappa_1 >= kappa_2.  It repeats within
    a process; across processes its last 1-2 ULP can move on the ?pocon
    path.
    """

    h_eff: EffectiveHamiltonian
    condition_number: float
    dims: tuple   # (total, fast, slow)


def _scatter(p, states, entries, rows, cols, m, mf, mf_rows, mf_cols):
    """V_FF and V_MF on one component of ``Split.components``, dense:
    its entries of V_FF at their (row, column) pairs, in Fortran order
    and with zeros on the diagonal, and its entries of V_MF on its own
    M rows."""
    vff = np.zeros((len(states), len(states)), dtype=p.vals.dtype, order="F")
    vff[rows, cols] = p.vals[entries]
    vmf = np.zeros((len(m), len(states)), dtype=p.vals.dtype)
    vmf[mf_rows, mf_cols] = p.vals[mf]
    return vff, vmf


def _fast_block(p, component):
    """H_FF = V_FF + diag(E_F) and V_MF on one component, dense, as
    ``_scatter`` lays them out."""
    hff, vmf = _scatter(p, *component)
    states = component[0]
    hff[np.diag_indices(len(states))] += p.ef[states]
    return hff, vmf


def _refuse_oversized(p):
    """``ValueError`` naming the MiB of H_FF's dense blocks, one per
    component, beyond ``DENSE_MAX_BYTES``; the sizes come from the
    component labels alone, so nothing dense is built first."""
    sizes = np.bincount(p.split.labels[len(p.m):])
    nbytes = p.vals.itemsize * int((sizes ** 2).sum())
    if nbytes > DENSE_MAX_BYTES:
        raise ValueError("fast block too large for the elimination: its "
                         f"dense blocks would take {nbytes / 2 ** 20:.0f} "
                         f"MiB, limit {DENSE_MAX_BYTES / 2 ** 20:.0f} MiB")


def _estimate(norm, rcond):
    """One block's lower estimate of kappa_1(H_FF), ||H_FF||_1 / rcond;
    ``ValueError`` when it exceeds ``COND_LIMIT`` or rcond is 0."""
    estimate = norm / rcond if rcond > 0 else np.inf
    if not estimate <= COND_LIMIT:
        raise ValueError("fast block not invertible; parameters too close "
                         "to resonance")
    return estimate


def eliminate(p):
    """Exact elimination of the fast block of a partition, one component
    at a time; a fast block whose dense blocks would exceed
    ``DENSE_MAX_BYTES`` is refused before anything is allocated, the
    component structure included."""
    _refuse_oversized(p)
    k, nf = len(p.m), len(p.f)
    block = p.slow_block()
    cond = 0.0
    if nf:
        potrf, pocon, trtrs = _CHOLESKY[p.vals.dtype]
        getrf, gecon, getrs = _DENSE_LU[p.vals.dtype]
        ff = p.split.ff
        norm = (np.bincount(p.cols[ff] - k, np.abs(p.vals[ff]), nf)
                + np.abs(p.ef)).max()
        for component in p.split.components:
            hff, vmf = _fast_block(p, component)
            m = component[4]
            # ?potrf reads one triangle, so only an exactly Hermitian
            # block may take it; it factors in place, so a block it stops
            # on (not positive definite) is scattered again for the LU
            if (np.array_equal(hff, hff.T.conj())
                    and potrf(hff, lower=True, clean=False,
                              overwrite_a=True)[1] == 0):
                # ?pocon with ||H_b||_1 = 1 gives 1 / ||H_b^{-1}||_1
                cond = max(cond, _estimate(norm, pocon(hff, 1.0, "L")[0]))
                # V_MF H_b^{-1} V_FM = Y^H Y with Y = L^{-1} V_FM
                y = trtrs(hff, vmf.conj().T, lower=True, overwrite_b=True)[0]
                block[np.ix_(m, m)] -= y.conj().T @ y
                continue
            hff = _fast_block(p, component)[0]
            lu, piv, info = getrf(hff, overwrite_a=True)
            # ?gecon with ||H_b||_1 = 1 gives 1 / ||H_b^{-1}||_1
            rcond = gecon(lu, 1.0)[0] if info == 0 else 0.0
            cond = max(cond, _estimate(norm, rcond))
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
    order 3.  H_FF is block-diagonal over the components of
    ``Split.components``, so each component adds its own terms to its
    own (M, M) entries, from the dense V_FF and V_MF of ``_scatter``.
    It runs on every F state, not on the states R one hop from M that
    the engine visits, so it checks the engine's restriction to R."""
    if np.any(np.abs(p.ef) < 1e-12 * p.energy_scale):
        raise ValueError("zero-energy fast state; series undefined")
    block = np.zeros((len(p.m), len(p.m)), dtype=p.vals.dtype)
    for component in p.split.components:
        vff, vmf = _scatter(p, *component)
        ef = p.ef[component[0]][:, None]
        term = vmf.conj().T / ef   # D^-1 V_FM
        part = -(vmf @ term)
        for _ in range(order - 2):
            term = -(vff @ term) / ef
            part -= vmf @ term
        block[np.ix_(component[4], component[4])] += part
    return EffectiveHamiltonian(block)


def _hermitian_norm(a):
    """The 2-norm of a Hermitian matrix, its largest |eigenvalue| (read
    from the lower triangle); a non-finite entry raises ``ValueError`` as
    in ``spectral_norm``."""
    eigenvalues = np.linalg.eigvalsh(np.asarray_chkfinite(a))
    return max(-eigenvalues[0], eigenvalues[-1])


def series_compare(h0, v):
    """Residuals between the exact elimination, its truncated series and
    the perturbative engine, all from one partition.  Requires the
    Neumann series to converge, i.e. the tunneling norm within the fast
    block below the smallest fast energy; V_FF is block-diagonal over
    the components, so its 2-norm is the largest of the blocks' exact
    2-norms, each the largest |eigenvalue| of its Hermitian block.  A
    fast block that ``eliminate`` refuses is refused here too, before
    any block is built."""
    p = partition(h0, v)
    _refuse_oversized(p)
    vff_norm = max((_hermitian_norm(_scatter(p, *component)[0])
                    for component in p.split.components), default=0.0)
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
