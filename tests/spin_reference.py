"""Exact-diagonal oracle of the bare periodic three-spin chain, its
unsplit sublattice-flip sector blocks with their translations and the
character count of their symmetry blocks, and the triangle chirality
operator."""

import numpy as np
import scipy.sparse as sp

from trispin import pauli

# the Levi-Civita symbol on (X, Y, Z): the even permutations +1, the odd -1
LEVI_CIVITA = (("XYZ", 1.0), ("YZX", 1.0), ("ZXY", 1.0),
               ("XZY", -1.0), ("ZYX", -1.0), ("YXZ", -1.0))


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


def zzz_chain_sector(bx, n, chi01, chi12):
    """Block of the periodic chain -sum_i (bx X_i + Z_i Z_{i+1} Z_{i+2})
    in the sector where the sublattice flips P01, P12 have eigenvalues
    chi01, chi12 = +-1: the reference that ``chainlab.chain_blocks``
    splits by translation and mirror.

    P_ab flips every site i with i mod 3 in {a, b}; for 3 | n each triple
    holds two flipped sites, so the flips commute with the chain and form
    Z2 x Z2 (P01 P12 = P02).  Each orbit has one configuration with sites
    0 and 1 up, so the representatives are the integers j < 2**(n - 2)
    and the real block has that dimension.  X_0 and X_1 leave that range
    and are folded back by P02 and P12, which contributes their character.
    """
    if n % 3:
        raise ValueError("sublattice flips need a multiple of 3 sites")
    dim = 2 ** (n - 2)
    j = np.arange(dim)
    bit = 1 << (n - 1 - np.arange(n))
    sublattice = np.arange(n) % 3
    p02 = bit[sublattice != 1].sum()
    p12 = bit[sublattice != 0].sum()
    masks = np.concatenate([[0, bit[0] ^ p02, bit[1] ^ p12], bit[2:]])
    signs = np.concatenate([[chi01 * chi12, chi12], np.ones(n - 2)])
    vals = np.empty((n + 1, dim))
    vals[0] = zzz_diagonal(n)[:dim]
    vals[1:] = -bx * signs[:, None]
    return sp.csr_matrix((vals.ravel(), ((j ^ masks[:, None]).ravel(),
                                         np.tile(j, n + 1))),
                         shape=(dim, dim))


def mirror_permutation(n):
    """Image of each sector representative j < 2**(n - 2) under the mirror
    i -> (1 - i) mod n of the ring.  The mirror swaps sites 0 and 1, so
    it keeps both up and permutes the representatives without a sign."""
    j = np.arange(2 ** (n - 2))
    image = np.zeros_like(j)
    for i in range(2, n):
        image |= (j >> (n - 1 - i) & 1) << (n - 1 - (1 - i) % n)
    return image


def translation(n, step, chi12):
    """T^step, site i -> i + step, on the sector (1, chi12) of
    ``zzz_chain_sector`` as a signed permutation matrix, one site at a
    time: the image of a representative has sites 0 and 1 from sites
    n - step and n - step + 1, and the flip that raises them again brings
    the character chi12 when it is P02 or P12.  For step 3 it maps each
    sector to itself, for step 1 only the trivial sector (1, 1)."""
    dim = 2 ** (n - 2)
    j = np.arange(dim)
    image = np.zeros_like(j)
    for i in range(n):
        image |= (j >> (n - 1 - i) & 1) << (n - 1 - (i + step) % n)
    bit = 1 << (n - 1 - np.arange(n))
    sublattice = np.arange(n) % 3
    down = [(image >> (n - 1 - site) & 1).astype(bool) for site in (0, 1)]
    for flip, sites in (((0, 1), down[0] & down[1]),
                        ((0, 2), down[0] & ~down[1]),
                        ((1, 2), ~down[0] & down[1])):
        image[sites] ^= bit[np.isin(sublattice, flip)].sum()
    sign = np.where(down[0] ^ down[1], float(chi12), 1.0)
    return sp.csr_matrix((sign, (image, j)), shape=(dim, dim))


def trivial_sector_block_dimensions(n):
    """Dimension of each real block of the trivial flip sector (1, 1)
    under D_n = <T, M>, T: i -> i + 1 and M: i -> (1 - i) mod n, as
    {(m, parity): dimension} for q = 2 pi m / n, from characters alone.

    The sector is the permutation representation of D_n on the flip
    orbits {x, P01 x, P02 x, P12 x} of all 2**n configurations, so an
    irrep chi occurs (1/2n) sum_g chi(g) fix(g) times, fix(g) the number
    of orbits that g maps to themselves; a block holds one state per
    occurrence.  For q = 0 and q = pi, chi(T^p M^m') = cos(qp) parity**m';
    for 0 < q < pi, chi(T^p) = 2 cos(qp) and chi(T^p M) = 0, and the
    block is filed under parity 1."""
    j = np.arange(2 ** n)
    site = np.arange(n)
    spins = j[:, None] >> (n - 1 - site) & 1
    flips = [int(sum(1 << (n - 1 - i) for i in site if i % 3 in pair))
             for pair in ((0, 1), (0, 2), (1, 2))]
    fixed = np.empty((2, n))
    for mirrored in (0, 1):
        for p in range(n):
            moved = ((1 - site if mirrored else site) + p) % n
            image = (spins << (n - 1 - moved)).sum(axis=1)
            kept = (image == j) | np.isin(image ^ j, flips)
            fixed[mirrored, p] = kept.sum() / 4
    dims = {}
    for m in range(n // 2 + 1):
        cos = np.cos(2 * np.pi * m * np.arange(n) / n)
        if 2 * m % n == 0:
            for parity in (1, -1):
                dims[m, parity] = cos @ fixed[0] + parity * cos @ fixed[1]
        else:
            dims[m, 1] = 2 * cos @ fixed[0]
    counts = {key: value / (2 * n) for key, value in dims.items()}
    assert all(abs(c - round(c)) < 1e-9 for c in counts.values())
    return {key: round(c) for key, c in counts.items()}


def chirality_operator(n_sites, triangles=((0, 1, 2),)):
    """Sum of mixed products sigma_i . (sigma_j x sigma_k) over oriented
    triangles; odd vertex permutations flip the sign."""
    coeffs = {}
    for (i, j, k) in triangles:
        for pattern, sign in LEVI_CIVITA:
            string = pauli.embed(pattern, (i, j, k), n_sites)
            coeffs[string] = coeffs.get(string, 0.0) + sign
    return pauli.pauli_sum(coeffs, n_sites)
