"""SU(2)-rotated tunneling and the covariance of the effective model.

Two-beam transitions activate the tunneling of the rotated internal
states (c+, c-) = g (a, b) with rates (j_plus, j_minus).  Expanding the
rotated bilinears back into the bare modes turns the per-link hopping
matrix into K = g^dag diag(j_plus, j_minus) g.  When the collision part
is species-blind (all U equal) the effective Hamiltonian transforms
covariantly at every order:

    engine(K-tunneling) = G^dag engine(diag-tunneling) G,  G = g tensor^n.

``covariance_check`` tests this relation for a list of rotations: it
derives the unrotated model once and each rotated one from its own
rebuilt tunneling, all on the same basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hubbard import build_v_mixed
from .perturb import (check_engine, partition, second_order, spectral_norm,
                      third_order)


@dataclass(frozen=True)
class SU2Rotation:
    """g(phi, theta) = [[cos t, e^{i phi} sin t], [sin t, -e^{i phi} cos t]].

    theta is the matrix parameter; the Bloch-sphere rotation angle of
    the internal states is 2*theta.
    """

    phi: float
    theta: float

    @property
    def matrix(self):
        c, s = math.cos(self.theta), math.sin(self.theta)
        phase = np.exp(1j * self.phi)
        return np.array([[c, phase * s], [s, -phase * c]])


def rotate_tunneling(v, g):
    """Rebuild a tunneling operator with every link rotated by g.

    ``v`` must have been produced by build_v / build_v_mixed so that its
    graph and hopping matrices are known.  The rotated rates are the
    original hopping matrices (j_plus = J_up, j_minus = J_down per link
    for a species-diagonal ``v``).
    """
    graph = v.meta.get("graph")
    hops = v.meta.get("hop_matrices")
    if graph is None or hops is None:
        raise ValueError("operator does not carry tunneling metadata")
    gm = g.matrix
    rotated = {link: gm.conj().T @ np.asarray(kmat) @ gm
               for link, kmat in hops.items()}
    return build_v_mixed(v.basis, graph, rotated)


def spin_rotation_matrix(g, n_sites):
    """n-fold tensor power of g on the spin space."""
    out = np.array([[1.0 + 0j]])
    for _ in range(n_sites):
        out = np.kron(out, g.matrix)
    return out


def covariance_check(h0, v, rotations, m_indices):
    """Max residual over orders 2 and 3 of the covariance relation, one
    per rotation g in ``rotations``, in order.

    The unrotated orders are derived once and compared with the orders
    of every rotated tunneling.  Exact (to roundoff) when the collision
    energies are species-blind; with unequal U's the residuals are data,
    not an invariant.
    """
    bare = check_engine(partition(h0, v, m_indices))
    bare_orders = [(order, order(bare).matrix)
                   for order in (second_order, third_order)]
    residuals = []
    for g in rotations:
        rotated = check_engine(partition(h0, rotate_tunneling(v, g),
                                         m_indices))
        big_g = spin_rotation_matrix(g, h0.basis.n_sites)
        residual = 0.0
        for order, matrix in bare_orders:
            direct = order(rotated).matrix
            sandwiched = big_g.conj().T @ matrix @ big_g
            residual = max(residual, spectral_norm(direct - sandwiched))
        residuals.append(residual)
    return residuals
