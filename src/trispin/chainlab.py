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
    """
    v0 = np.random.default_rng(ARPACK_SEED).uniform(-1.0, 1.0,
                                                    h_sparse.shape[0])
    ev = spla.eigsh(h_sparse, k=k, which="SA", ncv=max(4 * k + 8, 40),
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


def zzz_chain_sector(bx, n, chi01, chi12):
    """Block of the periodic chain -sum_i (bx X_i + Z_i Z_{i+1} Z_{i+2})
    in the sector where the sublattice flips P01, P12 have eigenvalues
    chi01, chi12 = +-1.

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
    vals[0] = _zzz_diagonal(j, n)
    vals[1:] = -bx * signs[:, None]
    return sp.csr_matrix((vals.ravel(), ((j ^ masks[:, None]).ravel(),
                                         np.tile(j, n + 1))),
                         shape=(dim, dim))


def chain_levels(bx, n, k=8):
    """Lowest-k levels of the periodic transverse-field three-spin chain,
    merged from its sublattice-flip sectors (see ``zzz_chain_sector``).

    Translation by one site cycles P01 -> P12 -> P02, so the three
    non-trivial sectors are isospectral and the spectrum is the trivial
    block's plus three copies of one non-trivial block's.  That block
    contributes ceil(k/3) + 1 levels for k > 1: the extra one covers a
    copy of a momentum-degenerate level that ARPACK can miss inside the
    block.  For k = 1 a missed copy cannot change the lowest value, so
    each block contributes one level.  Blocks up to dimension 512 are
    diagonalized densely.
    """
    def lowest(h, count):
        if h.shape[0] <= 512:
            return np.linalg.eigvalsh(h.toarray())[:count]
        return extremal_eigenvalues(h, k=count)

    trivial = lowest(zzz_chain_sector(bx, n, 1, 1), k)
    flipped = lowest(zzz_chain_sector(bx, n, 1, -1), -(-k // 3) + (k > 1))
    return np.sort(np.concatenate([trivial, np.repeat(flipped, 3)]))[:k]


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
    levels, so every level of one of them counts three times.  Each
    distinct grid field is solved once for its lowest eight levels; a
    reciprocal 1/b that is a grid field too, such as b = 1 or 1.25 for
    b = 0.8, reuses that solve, and any other is solved for E0 alone.
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
