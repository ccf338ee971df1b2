"""Exact-diagonal oracle of the bare periodic three-spin chain."""

import numpy as np

from trispin import chainlab


def zzz_ground_space_bruteforce(n):
    """Configurations minimizing the bare three-spin chain: every
    consecutive triple product +1 (exact diagonal enumeration)."""
    diag = chainlab.zzz_diagonal(n)
    e0 = diag.min()
    return e0, np.flatnonzero(diag == e0)
