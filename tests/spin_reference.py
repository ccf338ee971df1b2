"""Exact-diagonal oracle of the bare periodic three-spin chain, and the
triangle chirality operator."""

import numpy as np

from trispin import pauli
from trispin.closedform import EPSILON_PATTERNS


def zzz_diagonal(n):
    """Diagonal of the periodic -sum_i Z_i Z_{i+1} Z_{i+2} over all
    configurations, from the full 2^n x n table of spin patterns."""
    j = np.arange(2 ** n)
    z = 1 - 2 * ((j[:, None] >> (n - 1 - np.arange(n))) & 1)
    diag = np.zeros(2 ** n)
    for i in range(n):
        diag -= z[:, i] * z[:, (i + 1) % n] * z[:, (i + 2) % n]
    return diag


def zzz_ground_space_bruteforce(n):
    """Configurations minimizing the bare three-spin chain: every
    consecutive triple product +1 (exact diagonal enumeration)."""
    diag = zzz_diagonal(n)
    e0 = diag.min()
    return e0, np.flatnonzero(diag == e0)


def chirality_operator(n_sites, triangles=((0, 1, 2),)):
    """Sum of mixed products sigma_i . (sigma_j x sigma_k) over oriented
    triangles; odd vertex permutations flip the sign."""
    coeffs = {}
    for (i, j, k) in triangles:
        for pattern, sign in EPSILON_PATTERNS:
            string = pauli.embed(pattern, (i, j, k), n_sites)
            coeffs[string] = coeffs.get(string, 0.0) + sign
    return pauli.pauli_sum(coeffs, n_sites)
