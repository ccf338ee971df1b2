"""Exact diagonalization and analysis of the derived spin models.

Covers the periodic three-spin Ising chain with transverse/longitudinal
fields, its self-duality diagnostics, the circulating states of a
triangle and the detection of next-nearest-neighbour terms generated on
zig-zag chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .perturb import PauliDecomposition

DENSE_LIMIT = 2 ** 16
# chain halves up to this size are solved densely: a dense eigvalsh
# overtakes an eight-level Lanczos between 256 and 320 states (5.3 against
# 6.9 ms at 256, 9.5 against 7.6 ms at 320, one BLAS thread)
DENSE_HALF_DIM = 256
CLUSTER_TOL_FACTOR = 1e-9
ARPACK_SEED = 2024


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


def diagonalize(h, k=None):
    """Full dense spectrum, ascending.

    ``k`` keeps the lowest-k eigenvectors in the report.  Input must be
    Hermitian; dimensions beyond 2**16 are rejected.
    """
    h = np.asarray(h)
    if h.shape[0] > DENSE_LIMIT:
        raise ValueError("matrix too large for dense diagonalization")
    scale = max(1.0, np.abs(h).max())
    if np.abs(h - h.conj().T).max() > 1e-12 * scale:
        raise ValueError("non-Hermitian input")
    evals, evecs = la.eigh(h)
    return SpectrumReport(evals, evecs[:, :k] if k is not None else None)


def extremal_eigenvalues(h_sparse, k=6):
    """Lowest-k eigenvalues of a large sparse Hermitian matrix.

    ARPACK starts from a fixed pseudo-random vector, so repeated calls
    return identical values (a constant start can be orthogonal to a
    wanted level of a block with signed hops).

    When a degenerate level straddles the k-th place, ARPACK can miss one
    of its copies and return a later level as the k-th value.  Asking
    for a few extra levels does not cure this: on the full n = 12 chain
    with k = 8, margins 0-1 miss a copy at b = 0.7 where 2-4 keep it, and
    margin 3 misses one at b = 1.3 where 1, 2 and 4 keep it.  A caller
    that reads all k values splits off the degeneracies by symmetry
    first, as ``chain_levels`` does, and is tested against dense solves.
    The Krylov space holds 4k + 8 vectors, or the whole space if smaller.
    """
    dim = h_sparse.shape[0]
    v0 = np.random.default_rng(ARPACK_SEED).uniform(-1.0, 1.0, dim)
    ev = spla.eigsh(h_sparse, k=k, which="SA", ncv=min(4 * k + 8, dim),
                    tol=0, v0=v0.astype(h_sparse.dtype),
                    return_eigenvectors=False)
    ev.sort()
    return ev


def circulating_state(n_down_positions, omega):
    """Normalized cyclic superposition of the three one-minority states
    on a triangle: |s0> + omega |s1> + omega^2 |s2>, where s_r places
    the minority spin on site (start - r) per the given position list."""
    vec = np.zeros(8, dtype=complex)
    for r, k in enumerate(n_down_positions):
        vec[k] = omega ** r
    return vec / np.sqrt(3)


def _zzz_diagonal(j, n):
    """Diagonal of the periodic -sum_i Z_i Z_{i+1} Z_{i+2} on the
    configurations j, one triple at a time: site i is bit n - 1 - i and
    a set bit is Z = -1, so a triple contributes +1 when its bits have
    odd parity."""
    shift = n - 1 - np.arange(n)
    diag = np.zeros(len(j))
    for i in range(n):
        odd = (j >> shift[i] ^ j >> shift[(i + 1) % n]
               ^ j >> shift[(i + 2) % n]) & 1
        diag += 2 * odd - 1
    return diag


def zzz_chain_sparse(bx, bz, n):
    """Sparse matrix of the periodic chain
    -sum_i (bx X_i + bz Z_i + Z_i Z_{i+1} Z_{i+2})."""
    dim = 2 ** n
    j = np.arange(dim)
    magnetization = np.full(dim, n)
    for i in range(n):
        magnetization -= 2 * (j >> i & 1)
    diag = _zzz_diagonal(j, n) - bz * magnetization
    rows, cols, vals = [j], [j], [diag]
    for i in range(n):
        mask = 1 << (n - 1 - i)
        rows.append(j ^ mask)
        cols.append(j)
        vals.append(np.full(dim, -bx))
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim))


def mirror_permutation(n):
    """Image of each sector representative j < 2**(n - 2) under the mirror
    i -> (1 - i) mod n of the ring (see ``zzz_chain_half``).

    The mirror swaps sites 0 and 1, so it keeps both up and permutes the
    representatives among themselves; it is an involution."""
    j = np.arange(2 ** (n - 2))
    image = np.zeros_like(j)
    for i in range(2, n):
        image |= (j >> (n - 1 - i) & 1) << (n - 1 - (1 - i) % n)
    return image


def zzz_chain_half(bx, n, chi12, parity):
    """Mirror-even (parity 1) or mirror-odd (parity -1) half of the block
    of -sum_i (bx X_i + Z_i Z_{i+1} Z_{i+2}) in the sublattice-flip sector
    P01 = 1, P12 = chi12.

    P_ab flips every site i with i mod 3 in {a, b}; for 3 | n each triple
    holds two flipped sites, so the flips commute with the chain and form
    Z2 x Z2 (P01 P12 = P02).  Each orbit has one configuration with sites
    0 and 1 up, so a sector is spanned by the flip-symmetrized states of
    the representatives j < 2**(n - 2).  The mirror (``mirror_permutation``)
    fixes P01 and swaps P12 with P02, which carry the same character when
    P01 = 1, so it maps the state of j onto that of its image pi(j) with
    no phase.  The even half is spanned by (|j> + |pi(j)>)/sqrt(2) for
    j < pi(j) and by |j> for j = pi(j), the odd half by
    (|j> - |pi(j)>)/sqrt(2) for j < pi(j); each has one row per smaller
    orbit member j, in increasing order.  A hop from row j to state r lands on the column of r's orbit
    with the sign of r in that column's vector, scaled by sqrt(2) into a
    fixed point and by 1/sqrt(2) out of one.  Both halves are real and
    symmetric bit for bit.  Hops that reach one column twice are kept as
    two entries, which products and ``toarray`` add.
    """
    if n % 3:
        raise ValueError("sublattice flips need a multiple of 3 sites")
    image = mirror_permutation(n)
    j = np.arange(len(image))
    rows = np.flatnonzero(j < image if parity < 0 else j <= image)
    column = np.empty(len(image), dtype=np.int32)
    column[rows] = column[image[rows]] = np.arange(len(rows))
    # X_0 and X_1 leave the representatives and are folded back by P02
    # and P12, which contributes their character
    bit = 1 << (n - 1 - np.arange(n))
    sublattice = np.arange(n) % 3
    masks = np.concatenate([[0, bit[0] ^ bit[sublattice != 1].sum(),
                             bit[1] ^ bit[sublattice != 0].sum()], bit[2:]])
    r = rows[:, None] ^ masks
    vals = np.empty(r.shape)
    vals[:, 0] = _zzz_diagonal(rows, n)
    vals[:, 1:] = -bx
    vals[:, 1:3] *= chi12
    image_r = image[r]
    if parity < 0:
        vals[r > image_r] *= -1
        keep = r != image_r
        indptr = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return sp.csr_matrix((vals[keep], column[r[keep]], indptr),
                             shape=(len(rows), len(rows)))
    fixed_r = r == image_r
    fixed_row = (image[rows] == rows)[:, None]
    vals[fixed_r & ~fixed_row] *= np.sqrt(2.0)
    vals[fixed_row & ~fixed_r] *= np.sqrt(0.5)
    indptr = np.arange(0, r.size + 1, n + 1, dtype=np.int32)
    return sp.csr_matrix((vals.ravel(), column[r].ravel(), indptr),
                         shape=(len(rows), len(rows)))


def chain_levels(bx, n, k=8):
    """Lowest-k levels of the periodic transverse-field three-spin chain,
    merged from the mirror halves of its sublattice-flip sectors.

    The flips P01, P12 split the chain into four blocks of dimension
    2**(n-2).  Translation by one site cycles P01 -> P12 -> P02, so the
    three non-trivial blocks are isospectral and the spectrum is the
    trivial block's plus three copies of one non-trivial block's.  The
    mirror i -> (1 - i) mod n maps the trivial block (1, 1) and the
    flipped block (1, -1) onto themselves and splits each into an even
    and an odd half (``zzz_chain_half``).  It puts the two copies of each
    +-q momentum pair into different halves, so no half carries a
    degeneracy forced by symmetry that ARPACK could split.  Each trivial
    half contributes k levels and each flipped half ceil(k/3), counted
    three times.  Halves up to ``DENSE_HALF_DIM`` states are diagonalized
    densely.

    For k = 1 only the trivial even half is solved.  The hops -bx X_i
    all have one sign and connect every configuration, so for bx > 0 the
    ground state is unique with positive amplitudes (Perron-Frobenius).
    The flips and the mirror permute configurations without a sign, so
    they fix it.  For bx < 0 the same holds after the sign change
    prod_i Z_i, which commutes with the flips and the mirror; at bx = 0
    the all-up ground configuration lies in that half too.
    """
    flipped = -(-k // 3)
    halves = ((1, 1, k, 1), (1, -1, k, 1),
              (-1, 1, flipped, 3), (-1, -1, flipped, 3))
    levels = []
    for chi12, parity, count, copies in halves[:1 if k == 1 else 4]:
        h = zzz_chain_half(bx, n, chi12, parity)
        if h.shape[0] <= DENSE_HALF_DIM:
            lowest = np.linalg.eigvalsh(h.toarray())[:count]
        else:
            lowest = extremal_eigenvalues(h, k=count)
        levels.append(np.repeat(lowest, copies))
    return np.sort(np.concatenate(levels))[:k]


@dataclass
class DualityScan:
    bx_values: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    gap: np.ndarray                 # first level above the fourfold manifold
    ground_degeneracy: np.ndarray
    duality_defect: np.ndarray      # |E0(b) - b E0(1/b)| / n
    argmin_bx: float


def duality_scan(bx_grid, n):
    """Gap curve of the periodic transverse-field three-spin chain.

    The scanned gap is E4 - E0, the first excitation above the fourfold
    pattern manifold of the ordered phase (for 3 | n the manifold stays
    intact at finite size and E1 - E0 measures only its exponentially
    small splitting).  The duality defect compares E0(b) with
    b*E0(1/b).  It is roundoff at every b of a finite chain, not only
    at b = 1: dense solves of the sector blocks put it below 1e-14 for
    n = 6 to 12 and b = 0.3 to 1.7.

    The spectra are symmetry-resolved (``chain_levels``): the sublattice
    flips P01, P12 commute with the chain only when every triple of the
    ring holds two flipped sites, which needs 3 | n.  The flips split the
    chain into four blocks of dimension 2**(n-2), and the three
    non-trivial ones, related by translation, each carry the same
    levels, so every level of one of them counts three times.  The
    mirror i -> (1 - i) mod n splits the trivial block and one
    non-trivial block into even and odd halves, four real blocks of
    about 2**(n-3) states that are solved per field.  Each distinct grid
    field is solved once for its lowest eight levels; a reciprocal 1/b
    that is a grid field too, such as b = 1 or 1.25 for b = 0.8, reuses
    that solve, and any other is solved for E0 alone, from the one half
    that holds the ground state.
    """
    if n % 3:
        raise ValueError("chain length must be a multiple of 3")
    bx_grid = np.asarray(bx_grid, dtype=float)
    solved = {}
    for bx in bx_grid.tolist():
        if bx not in solved:
            solved[bx] = chain_levels(bx, n)
    for bx in bx_grid.tolist():
        if 1.0 / bx not in solved:
            solved[1.0 / bx] = chain_levels(1.0 / bx, n, 1)

    e0 = np.empty_like(bx_grid)
    e1 = np.empty_like(bx_grid)
    gap = np.empty_like(bx_grid)
    deg = np.empty(bx_grid.shape, dtype=int)
    e0_reciprocal = np.empty_like(bx_grid)
    for i, bx in enumerate(bx_grid.tolist()):
        ev = solved[bx]
        e0[i], e1[i] = ev[0], ev[1]
        gap[i] = ev[4] - ev[0]
        tol = CLUSTER_TOL_FACTOR * max(abs(ev[0]), abs(ev[-1]))
        deg[i] = int(np.sum(np.abs(ev - ev[0]) <= tol))
        e0_reciprocal[i] = solved[1.0 / bx][0]
    defect = np.abs(e0 - bx_grid * e0_reciprocal) / n
    return DualityScan(bx_grid, e0, e1, gap, deg, defect,
                       float(bx_grid[int(np.argmin(gap))]))


@dataclass
class NnnReport:
    detected: dict                  # string -> coefficient (distance-2 pairs)
    detected_zz: dict
    compensated: PauliDecomposition


def detect_nnn_terms(decomp, graph):
    """Two-site terms between chain sites (i, i+2) in a decomposition.

    The compensated copy removes exactly the detected ZZ terms at
    distance two, mirroring a compensating potential that cancels those
    couplings while leaving everything else untouched.
    """
    n = decomp.n_sites
    is_zz = {}                      # the 9 (n - 2) distance-two strings
    for i in range(n - 2):
        for a in "XYZ":
            for b in "XYZ":
                string = "I" * i + a + "I" + b + "I" * (n - 3 - i)
                is_zz[string] = a == b == "Z"
    detected = {}
    detected_zz = {}
    for string, coeff in decomp.coeffs.items():
        if string not in is_zz or abs(coeff) <= 1e-15:
            continue
        detected[string] = coeff
        if is_zz[string]:
            detected_zz[string] = coeff
    compensated = dict(decomp.coeffs)
    for string in detected_zz:
        compensated[string] = 0.0
    return NnnReport(detected, detected_zz,
                     PauliDecomposition(decomp.n_sites, compensated))
