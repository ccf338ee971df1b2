"""Real-time oracle of the effective Hamiltonian: the exact projected
evolution of H0 + V against exp(-i H_eff t).

It diagonalizes the whole sector densely, so it suits triangles and
short chains only.
"""

import numpy as np
import scipy.linalg as la

from trispin.perturb import check_engine, partition


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


def validate_by_evolution(h0, v, h_eff, t):
    """Residual between exact projected evolution and exp(-i H_eff t).

    The exact propagator of H0 + V is evaluated in the interaction
    picture and projected on M; the fast-rotating second- and
    third-order components, which oscillate at the collision
    frequencies instead of accumulating secular phase and are not part
    of the effective description, are removed explicitly.  The returned
    operator-norm residual scales as (J/U)^4 * Ut when the tunneling is
    scaled down at fixed Ut.
    """
    p = check_engine(partition(h0, v))
    exact = _interaction_picture_block(h0, v, p.m, t)
    wiggle = (_oscillatory_second(p.vmr, p.er, t)
              + _oscillatory_third(p.vmr, p.vrr.toarray(), p.er, t))
    reference = la.expm(-1j * h_eff.matrix * t)
    return la.norm(exact - wiggle - reference, 2)
