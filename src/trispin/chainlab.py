"""Exact diagonalization and analysis of the derived spin models.

Covers the three-spin Ising chain with transverse/longitudinal fields,
its self-duality diagnostics, the triangle chirality operator and the
detection of next-nearest-neighbour terms generated on zig-zag chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import pauli
from .closedform import EPSILON_PATTERNS, check_boundary
from .perturb import PauliDecomposition

DENSE_LIMIT = 2 ** 16
CLUSTER_TOL_FACTOR = 1e-9
ARPACK_SEED = 2024


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    clusters: list            # list of (value, multiplicity)
    cluster_tol: float
    eigenvectors: np.ndarray | None = None

    @property
    def ground_energy(self):
        return float(self.eigenvalues[0])

    @property
    def ground_degeneracy(self):
        return self.clusters[0][1]


def _cluster(eigenvalues, tol):
    clusters = []
    for e in eigenvalues:
        if clusters and abs(e - clusters[-1][0]) <= tol:
            value, count = clusters[-1]
            clusters[-1] = (value, count + 1)
        else:
            clusters.append((float(e), 1))
    return clusters


def diagonalize(h, k=None):
    """Full dense spectrum with degeneracy clustering.

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
    norm = max(abs(evals[0]), abs(evals[-1]), 1e-300)
    tol = CLUSTER_TOL_FACTOR * norm
    report = SpectrumReport(
        eigenvalues=evals,
        clusters=_cluster(evals, tol),
        cluster_tol=tol,
        eigenvectors=evecs[:, :k] if k is not None else None,
    )
    return report


def extremal_eigenvalues(h_sparse, k=6):
    """Lowest-k eigenvalues of a large sparse Hermitian matrix.

    ARPACK starts from a fixed pseudo-random vector, so repeated calls
    return identical values (a constant start can be orthogonal to a
    wanted level of a block with signed hops).

    When a degenerate level straddles the k-th place, ARPACK can miss one
    of its copies and return a later level as the k-th value.  A caller
    that reads all k values asks for a margin of extra levels, as
    ``chain_levels`` does.
    """
    v0 = np.random.default_rng(ARPACK_SEED).uniform(-1.0, 1.0,
                                                    h_sparse.shape[0])
    ev = spla.eigsh(h_sparse, k=k, which="SA", ncv=max(4 * k + 8, 40),
                    tol=0, v0=v0.astype(h_sparse.dtype),
                    return_eigenvectors=False)
    ev.sort()
    return ev


def chirality_operator(n_sites, triangles=((0, 1, 2),)):
    """Sum of mixed products sigma_i . (sigma_j x sigma_k) over oriented
    triangles; odd vertex permutations flip the sign."""
    coeffs = {}
    for (i, j, k) in triangles:
        for pattern, sign in EPSILON_PATTERNS:
            string = pauli.embed(pattern, (i, j, k), n_sites)
            coeffs[string] = coeffs.get(string, 0.0) + sign
    return pauli.pauli_sum(coeffs, n_sites)


def circulating_state(n_down_positions, omega):
    """Normalized cyclic superposition of the three one-minority states
    on a triangle: |s0> + omega |s1> + omega^2 |s2>, where s_r places
    the minority spin on site (start - r) per the given position list."""
    vec = np.zeros(8, dtype=complex)
    for r, k in enumerate(n_down_positions):
        vec[k] = omega ** r
    return vec / np.sqrt(3)


def _z_patterns(n):
    j = np.arange(2 ** n)
    return 1 - 2 * ((j[:, None] >> (n - 1 - np.arange(n))) & 1)


def zzz_diagonal(n, boundary="periodic"):
    """Diagonal of -sum_i Z_i Z_{i+1} Z_{i+2} over all configurations."""
    check_boundary(boundary)
    z = _z_patterns(n)
    count = n if boundary == "periodic" else n - 2
    diag = np.zeros(2 ** n)
    for i in range(count):
        diag -= z[:, i] * z[:, (i + 1) % n] * z[:, (i + 2) % n]
    return diag


def zzz_chain_sparse(bx, bz, n, boundary="periodic"):
    """Sparse matrix of -sum_i (bx X_i + bz Z_i + Z_i Z_{i+1} Z_{i+2})."""
    dim = 2 ** n
    j = np.arange(dim)
    diag = zzz_diagonal(n, boundary) - bz * _z_patterns(n).sum(axis=1)
    rows, cols, vals = [j], [j], [diag.astype(float)]
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
    vals[0] = zzz_diagonal(n)[:dim]
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
    contributes ceil(k/3) + 1 levels: the extra one covers a copy of a
    momentum-degenerate level that ARPACK can miss inside the block.
    Blocks up to dimension 512 are diagonalized densely.
    """
    def lowest(h, count):
        if h.shape[0] <= 512:
            return np.linalg.eigvalsh(h.toarray())[:count]
        return extremal_eigenvalues(h, k=count)

    trivial = lowest(zzz_chain_sector(bx, n, 1, 1), k)
    flipped = lowest(zzz_chain_sector(bx, n, 1, -1), -(-k // 3) + 1)
    return np.sort(np.concatenate([trivial, np.repeat(flipped, 3)]))[:k]


def zzz_ground_space_bruteforce(n, boundary="periodic"):
    """Configurations minimizing the bare three-spin chain: every
    consecutive triple product +1 (exact diagonal enumeration)."""
    diag = zzz_diagonal(n, boundary)
    e0 = diag.min()
    return e0, np.flatnonzero(diag == e0)


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
    b*E0(1/b); it vanishes identically at b = 1 and approaches zero for
    all b only in the thermodynamic limit.

    The spectra are symmetry-resolved (``chain_levels``): the sublattice
    flips P01, P12 commute with the chain only when every triple of the
    ring holds two flipped sites, which needs a periodic chain with
    3 | n, so the scan has no open-boundary form.  The flips split the
    chain into four blocks of dimension 2**(n-2), and the three
    non-trivial ones, related by translation, each carry the same
    levels, so every level of one of them counts three times.  Each
    distinct field value is solved once, so b = 1 and pairs such as
    0.8 and 1.25 = 1/0.8 share their solve with E0(1/b).
    """
    if n % 3:
        raise ValueError("chain length must be a multiple of 3")
    bx_grid = np.asarray(bx_grid, dtype=float)
    solved = {}

    def levels(bx):
        bx = float(bx)
        if bx not in solved:
            solved[bx] = chain_levels(bx, n)
        return solved[bx]

    e0 = np.empty_like(bx_grid)
    e1 = np.empty_like(bx_grid)
    gap = np.empty_like(bx_grid)
    deg = np.empty(bx_grid.shape, dtype=int)
    e0_reciprocal = np.empty_like(bx_grid)
    for i, bx in enumerate(bx_grid):
        ev = levels(bx)
        e0[i], e1[i] = ev[0], ev[1]
        gap[i] = ev[4] - ev[0]
        tol = CLUSTER_TOL_FACTOR * max(abs(ev[0]), abs(ev[-1]))
        deg[i] = int(np.sum(np.abs(ev - ev[0]) <= tol))
        e0_reciprocal[i] = levels(1.0 / bx)[0]
    defect = np.abs(e0 - bx_grid * e0_reciprocal) / n
    return DualityScan(bx_grid, e0, e1, gap, deg, defect,
                       float(bx_grid[int(np.argmin(gap))]))


@dataclass
class NnnReport:
    detected: dict                  # string -> coefficient (distance-2 pairs)
    detected_zz: dict
    compensated: PauliDecomposition


def _support(string):
    return [i for i, ch in enumerate(string) if ch != "I"]


def detect_nnn_terms(decomp, graph):
    """Two-site terms between chain sites (i, i+2) in a decomposition.

    The compensated copy removes exactly the detected ZZ terms at
    distance two, mirroring a compensating potential that cancels those
    couplings while leaving everything else untouched.
    """
    detected = {}
    detected_zz = {}
    for string, coeff in decomp.coeffs.items():
        support = _support(string)
        if len(support) == 2 and support[1] - support[0] == 2:
            if abs(coeff) <= 1e-15:
                continue
            detected[string] = coeff
            letters = (string[support[0]], string[support[1]])
            if letters == ("Z", "Z"):
                detected_zz[string] = coeff
    compensated = dict(decomp.coeffs)
    for string in detected_zz:
        compensated[string] = 0.0
    return NnnReport(detected, detected_zz,
                     PauliDecomposition(decomp.n_sites, compensated))
