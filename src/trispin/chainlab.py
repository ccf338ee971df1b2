"""Exact diagonalization and analysis of the derived spin models.

Covers the periodic three-spin Ising chain with transverse/longitudinal
fields, its self-duality diagnostics, the circulating states of a
triangle and the detection of next-nearest-neighbour terms generated on
zig-zag chains.  The transverse-field chain is solved on the real blocks
of its symmetry group (``chain_blocks``): the sublattice flips, and on
each solved flip sector a dihedral group of translations and the mirror,
the full D_n on the trivial sector and that of the translation by three
sites on the flipped one, resolved as in Sandvik, AIP Conf. Proc. 1297,
135 (2010), with real semi-momentum states for the +-q pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .perturb import PauliDecomposition

DENSE_LIMIT = 2 ** 16
# chain blocks up to this size are solved densely: a dense eigvalsh
# overtakes an eight-level Lanczos between 256 and 320 states (5.3 against
# 6.9 ms at 256, 9.5 against 7.6 ms at 320, one BLAS thread); the
# partial ?syevr solve used since takes about three quarters of
# eigvalsh's time at both sizes, so the crossover is not below 256
DENSE_BLOCK_DIM = 256
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
    # the sparse product is the operator's matvec, without the
    # matvec -> matmat -> dot layers of ``aslinearoperator``
    op = spla.LinearOperator(h_sparse.shape, matvec=h_sparse.__matmul__,
                             dtype=h_sparse.dtype)
    ev = spla.eigsh(op, k=k, which="SA", ncv=min(4 * k + 8, dim),
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


@dataclass(frozen=True)
class _Orbits:
    """Orbits of the sector representatives j < 2**(n - 2) under a
    dihedral group D = <T^step, M> (see ``chain_blocks``) and the hops
    between them, as the pairs (source, target) of orbits that a hop
    from the source's representative connects, and the pair (a, a) of
    every orbit a.  Group element g = p + L m, with L = n / step, is
    T^(step p) M^m; on the sector (1, chi12) a fold parity f gives the
    sign chi12**f."""
    period: int
    zzz: np.ndarray             # ZZZ diagonal of each orbit
    stabilizer: np.ndarray      # (2L, R): g fixes the representative
    stabilizer_folds: np.ndarray    # (2L, R): fold parity of g on it
    pair: np.ndarray            # per hop (R n): its pair
    element: np.ndarray         # per hop: the g taking it onto its
                                # target's representative
    folds: np.ndarray           # per hop: fold parity of the hop and g
    first: np.ndarray           # (R + 1): first pair of each source
    source: np.ndarray          # per pair; the pairs are sorted by
    target: np.ndarray          # source, then by target
    own: np.ndarray             # (R): the pair (a, a) of each orbit a
    mirror: np.ndarray          # per pair: the pair (target, source)


def _dihedral_orbits(n, step):
    """Orbit tables of the representatives under <T^step, M>: each orbit
    is represented by its smallest integer, which every member reaches
    by the first group element that maps it there.  A step of 3 serves
    both solved sectors.  A step of 1 serves the trivial one alone: T
    maps the flipped sector to another, and on the trivial sector every
    flip has the character 1, so the fold parities do not count."""
    period = n // step
    bit = 1 << (n - 1 - np.arange(n))
    sublattice = np.arange(n) % 3
    p01, p02, p12 = (int(bit[sublattice != a].sum()) for a in (2, 1, 0))
    # sites 0 and 1 as bits (site 0 down, site 1 down) -> the flip that
    # raises them again; one site down needs P02 or P12, of character chi12
    fold = np.array([0, p12, p02, p01], dtype=np.int32)
    j = np.arange(2 ** (n - 2), dtype=np.int32)
    mirror = np.zeros_like(j)
    for i in range(2, n):
        mirror |= (j >> (n - 1 - i) & 1) << (n - 1 - (1 - i) % n)
    # each image keeps its g in the low bits, so that one minimum gives
    # the smallest image and the first g that maps there (an int32 holds
    # both up to n = 27)
    bits = (2 * period - 1).bit_length()
    image = np.empty((2 * period, len(j)), dtype=np.int32)
    folds = np.empty(image.shape, dtype=np.int8)
    for m, start in enumerate((j, mirror)):
        x, f = start, np.zeros(len(j), dtype=np.int8)
        for p in range(period):
            g = p + m * period
            image[g], folds[g] = x << bits | g, f
            x = x >> step | (x & (1 << step) - 1) << (n - step)  # i -> i+step
            down = x >> (n - 2)
            x = x ^ fold[down]
            f = f ^ ((down == 1) | (down == 2))
    del mirror, x, f
    least = image.min(axis=0)
    element, rep = least & (1 << bits) - 1, least >> bits
    reps = np.flatnonzero(rep == j).astype(np.int32)
    orbit = np.empty_like(j)
    orbit[reps] = np.arange(len(reps), dtype=np.int32)
    orbit = orbit[rep]
    stabilizer = image[:, reps] >> bits == reps
    del image, rep, least
    # X_0 and X_1 leave the representatives and are folded back by P02
    # and P12, which contributes their character
    masks = np.concatenate([[bit[0] ^ p02, bit[1] ^ p12],
                            bit[2:]]).astype(np.int32)
    hop = (reps[:, None] ^ masks).ravel()
    hop_folds = folds[element[hop], hop]
    hop_folds.reshape(len(reps), n)[:, :2] ^= 1
    # every orbit is paired with itself too, hop or not: the pair holds
    # the diagonal slot of its rows
    pairs, pair = np.unique(np.concatenate([
        np.repeat(np.arange(len(reps), dtype=np.int64), n) * len(reps)
        + orbit[hop], np.arange(len(reps)) * (len(reps) + 1)]),
        return_inverse=True)
    pair, own = pair[:len(hop)].astype(np.int32), pair[len(hop):]
    source, target = np.divmod(pairs, len(reps))
    first = np.zeros(len(reps) + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=len(reps)), out=first[1:])
    # the element g taking hop (a, i) onto b maps X_i to X_pi(i), and
    # X_pi(i) takes b back into the orbit of a
    element = element[hop]
    site = np.arange(n)
    g = np.arange(2 * period)[:, None]
    moved = (np.where(g < period, site, 1 - site) + step * (g % period)) % n
    mirror = np.arange(len(pairs), dtype=np.int32)    # (a, a) is its own
    mirror[pair] = pair[target[pair] * n
                        + moved[element, np.tile(site, len(reps))]]
    return _Orbits(period, _zzz_diagonal(reps, n), stabilizer,
                   folds[:, reps], pair, element.astype(np.int8), hop_folds,
                   first, source.astype(np.int32), target.astype(np.int32),
                   own, mirror)


def _irreps(period):
    """Real irreps of D = <T^step, M> as (m, parity, rho), rho a table
    (d, d, 2L) over g = p + L m' for q = 2 pi m / L: for q = 0 and q = pi
    (L even) the characters cos(qp) parity**m', M even then odd, and for
    each 0 < q < pi in between
    rho(T^(step p) M^m') = [[c, -mu s], [s, mu c]], c, s = cos, sin(qp)
    and mu = (-1)**m', whose first row is M even.
    The totally symmetric irrep comes first."""
    turns = np.arange(2 * period) % period
    flip = np.where(np.arange(2 * period) < period, 1.0, -1.0)
    for m in range(period // 2 + 1):
        angle = 2 * np.pi * m / period * turns
        cos, sin = np.cos(angle), np.sin(angle)
        if 2 * m % period == 0:
            for parity in (1, -1):
                yield m, parity, (np.rint(cos) * np.where(
                    flip > 0, 1.0, parity))[None, None]
        else:
            yield m, 1, np.array([[cos, -flip * sin], [sin, flip * cos]])


@dataclass(frozen=True)
class SymmetryBlock:
    """One real block of the chain, zzz + bx hops, whose levels occur
    ``copies`` times in the full spectrum."""
    irrep: tuple                # (chi12, m, parity): flip sector (1, chi12),
                                # momentum 2 pi m / n of T on the trivial
                                # sector, 2 pi m / (n/3) of T^3 on the
                                # flipped one, M parity
    copies: int
    zzz: np.ndarray
    hops: sp.csr_matrix         # -sum_i X_i, symmetric bit for bit, with a
                                # slot on every diagonal entry
    diagonal: np.ndarray        # those slots in hops.data, row by row

    def lowest(self, bx, count):
        """Lowest ``count`` levels at field ``bx``: dense up to
        ``DENSE_BLOCK_DIM`` states, by Lanczos beyond, on the pattern of
        ``hops``, whose diagonal slots take zzz."""
        dim = len(self.zzz)
        if dim <= DENSE_BLOCK_DIM:
            h = self.hops.toarray()
            h *= bx
            h.flat[::dim + 1] += self.zzz
            # LAPACK's ?syevr computes only the levels asked for
            w, _, found, _, info = la.lapack.dsyevr(
                h, compute_v=0, range="I", il=1, iu=min(count, dim))
            if info:
                raise la.LinAlgError(f"dsyevr failed (info {info})")
            return w[:found]
        h = self.hops * bx
        h.data[self.diagonal] += self.zzz
        return extremal_eigenvalues(h, k=count)


def _sector_blocks(orbits, chi12):
    """Blocks of every irrep of the orbits' group on the flip sector
    (1, chi12), the totally symmetric one first."""
    odd = chi12 < 0
    psi = orbits.stabilizer * (1 - 2 * (orbits.stabilizer_folds & odd))
    sign = 1 - 2 * (orbits.folds & odd)
    copies = 1 if chi12 > 0 else 3
    blocks = (_irrep_block(orbits, (chi12, m, parity), rho, psi, sign, copies)
              for m, parity, rho in _irreps(orbits.period))
    return [block for block in blocks if block is not None]


def _irrep_block(orbits, irrep, rho, psi, sign, copies):
    """The block of irrep rho (dimension d) on one flip sector, or None
    if no orbit carries it.

    A basis state of orbit a is phi_a(e) = sum_g (rho(g) e)_1 g|a>, for
    e a unit vector in the range of the stabilizer projector
    Pi_a = sum_(s in S_a) psi(s) rho(s) / |S_a|, psi the sign with which
    s fixes |a>: one state per unit of the rank of Pi_a.  The states
    (a, f), and with them the rows and columns of the block, run orbit
    by orbit: in the order of a, then f.  Since the chain commutes with
    D, its element between phi_b(e) and phi_a(f) is
    -sqrt(|S_b| / |S_a|) e^T (sum_r sigma_r rho(g_r)) f over the hops
    from a to configurations r of orbit b, g_r taking r onto b with sign
    sigma_r.  Each element is averaged with its mirror, which makes the
    block symmetric bit for bit, and the elements that are 0 are not
    stored but on the diagonal, where every row keeps a slot for zzz.
    """
    d = len(rho)
    size = orbits.stabilizer.sum(axis=0)
    projector = rho @ psi / size
    rank = np.rint(np.trace(projector)).astype(int)
    kept = np.arange(d)[:, None] < rank
    if not kept.any():
        return None
    first, source, target = orbits.first, orbits.source, orbits.target
    own, n_pairs = orbits.own, len(target)
    values = np.empty((d, d, n_pairs))
    for i, j in np.ndindex(d, d):
        values[i, j] = np.bincount(orbits.pair,
                                   sign * rho[i, j][orbits.element], n_pairs)
    bent = (np.flatnonzero((rank[source] == 1) | (rank[target] == 1))
            if d == 2 else ())
    if len(bent):
        # e and f are the unit vectors but where Pi_a has rank 1
        single = projector[..., rank == 1]
        norm = np.sqrt((single ** 2).sum(axis=0))
        basis = np.zeros_like(projector)
        basis[:, 0, rank == 1] = np.where(norm[0] >= norm[1], single[:, 0],
                                          single[:, 1]) / norm.max(axis=0)
        basis[0, 0, rank == 2] = basis[1, 1, rank == 2] = 1.0
        y = np.take(values, bent, axis=2)
        right = np.take(basis, source[bent], axis=2)
        left = np.take(basis, target[bent], axis=2)
        y = y[:, :1] * right[None, 0] + y[:, 1:] * right[None, 1]
        values[..., bent] = left[0, :, None] * y[0] + left[1, :, None] * y[1]
    root = np.sqrt(size)
    values *= -root[target]
    values /= root[source]
    values += values.swapaxes(0, 1)[..., orbits.mirror]
    values *= 0.5
    kept_source, kept_target = (np.take(kept, index, axis=1)
                                for index in (source, target))
    mask = [[kept_source[f] & kept_target[e] & (values[e, f] != 0)
             for e in range(d)] for f in range(d)]
    # every row keeps its diagonal slot, 0 or not: there a field adds zzz
    for f in range(d):
        mask[f][f][own] |= kept[f]
    elements = [[values[e, f][mask[f][e]] for e in range(d)]
                for f in range(d)]
    # freed before the CSR arrays are allocated, and each element list
    # once written: the peak of this build bounds cli.CHAIN_MAX_SITES
    del values, kept_source, kept_target
    # rows and columns in the state order of the docstring
    count = [np.sum(row, axis=0, dtype=np.int8) for row in mask]
    # every representative has n hops, so every orbit has pairs
    rows = np.array([np.add.reduceat(c, first[:-1], dtype=np.int32)
                     for c in count])
    end = np.cumsum(rows.T, dtype=np.int32).reshape(-1, d).T
    start = end - rows
    column = (np.cumsum(kept.T) - 1).astype(np.int32).reshape(-1, d).T
    data = np.empty(int(end[-1, -1]))
    indices = np.empty(len(data), dtype=np.int32)
    diagonal = np.empty(int(kept.sum()), dtype=np.int32)
    for f in range(d):
        offset = np.cumsum(count[f], dtype=np.int32)
        offset -= count[f]
        offset += (start[f] - offset[first[:-1]])[source]
        slot = offset[own[kept[f]]]
        if f:
            slot += mask[f][0][own[kept[f]]]
        diagonal[column[f][kept[f]]] = slot
        for e in range(d):
            at = offset[mask[f][e]]
            if e:
                at += mask[f][0][mask[f][e]]
            data[at] = elements[f][e]
            indices[at] = column[e][target[mask[f][e]]]
            elements[f][e] = None
    indptr = np.append(start.T[kept.T], len(data)).astype(np.int32)
    dim = len(indptr) - 1
    return SymmetryBlock(irrep, copies * d, np.repeat(orbits.zzz, rank),
                         sp.csr_matrix((data, indices, indptr),
                                       shape=(dim, dim)), diagonal)


def chain_blocks(n):
    """Real blocks of the periodic transverse-field three-spin chain
    -sum_i (bx X_i + Z_i Z_{i+1} Z_{i+2}), bx left as a factor: the
    structure of every field, built once.

    The sublattice flips P_ab flip every site i with i mod 3 in {a, b};
    for 3 | n each triple holds two flipped sites, so they commute with
    the chain and split it into four blocks of dimension 2**(n-2).  Each
    flip orbit has one configuration with sites 0 and 1 up, so a sector
    is spanned by the flip-symmetrized states of the representatives
    j < 2**(n - 2); X_0 and X_1 leave them and are folded back by P02 and
    P12.  Translation by one site cycles P01 -> P12 -> P02, so the three
    sectors with P01 P12 != 1 are isospectral and only (1, 1) and
    (1, -1) are solved, the second counted three times.

    The mirror M: i -> (1 - i) mod n fixes P01 and swaps P12 with P02,
    which carry the same character when P01 = 1.  T^3, the translation by
    three sites, keeps every sublattice and so commutes with the flips,
    and T maps the trivial sector (1, 1) to itself.  With M T M = T^-1
    they generate the dihedral group D = <T, M> of order 2n on the
    trivial sector and D = <T^3, M> of order 2n/3 on the flipped one.
    Its irreps are real: for q = 0 and q = pi (even period) one M-even
    and one M-odd block each, and for each pair +-q in between one
    block, the M-even row of the two-dimensional irrep, whose levels the
    M-odd row repeats and which therefore count twice.  No block carries
    a degeneracy forced by symmetry.  The ZZZ term is constant on
    D-orbits and the hops are read off the orbit representatives
    (``_irrep_block``), never from whole orbits.  The orbits of each
    group are freed before those of the next are built.

    The first block is the totally symmetric one: trivial sector, q = 0,
    M even.
    """
    if n % 3:
        raise ValueError("sublattice flips need a multiple of 3 sites")
    trivial = _sector_blocks(_dihedral_orbits(n, 1), 1)
    return tuple(trivial + _sector_blocks(_dihedral_orbits(n, 3), -1))


def chain_levels(bx, blocks, k=8):
    """Lowest-k levels of the periodic transverse-field three-spin chain
    at field bx, merged from its ``chain_blocks``.

    A block whose levels count c times contributes its ceil(k/c) lowest
    levels, c times each: the trivial sector's one-dimensional irreps k,
    its +-q pairs ceil(k/2), the flipped sector's ceil(k/3) and
    ceil(k/6).

    For k = 1 only the totally symmetric block is solved.  The hops
    -bx X_i all have one sign and connect every configuration, so for
    bx > 0 the ground state is unique with positive amplitudes
    (Perron-Frobenius).  The flips, T and the mirror permute
    configurations without a sign, so they fix it.  For bx < 0 the same
    holds after the sign change prod_i Z_i, which commutes with all of
    them; at bx = 0 the all-up ground configuration lies in that block
    too.
    """
    levels = [np.repeat(block.lowest(bx, -(-k // block.copies)), block.copies)
              for block in (blocks[:1] if k == 1 else blocks)]
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

    The spectra are symmetry-resolved: the sublattice flips commute with
    the chain only when every triple of the ring holds two flipped sites,
    which needs 3 | n, and with the translations and the mirror
    i -> (1 - i) mod n they split it into the real blocks of
    ``chain_blocks``, 24 to 256 states at n = 12.  Their structure is
    built once per call; each field only forms zzz + b hops per block.
    Each distinct grid field is solved once for its lowest eight levels
    (``chain_levels``); a reciprocal 1/b that is a grid field too, such
    as b = 1 or 1.25 for b = 0.8, reuses that solve, and any other is
    solved for E0 alone, from the totally symmetric block that holds the
    ground state.

    A grid with a field b for which n*b or n/b is not finite is refused
    before anything is solved: the levels scale as n*b at large b and
    the reciprocal's as n/b.
    """
    if n % 3:
        raise ValueError("chain length must be a multiple of 3")
    bx_grid = np.asarray(bx_grid, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        unscalable = ~np.isfinite(n * bx_grid) | ~np.isfinite(n / bx_grid)
    if unscalable.any():
        bx = float(bx_grid[unscalable][0])
        raise ValueError(f"n*b or n/b is not finite at b = {bx!r}; keep b "
                         "and 1/b in range")
    blocks = chain_blocks(n)
    solved = {}
    for bx in bx_grid.tolist():
        if bx not in solved:
            solved[bx] = chain_levels(bx, blocks)
    for bx in bx_grid.tolist():
        if 1.0 / bx not in solved:
            solved[1.0 / bx] = chain_levels(1.0 / bx, blocks, 1)

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
    detected = {}
    detected_zz = {}
    # the 9 (n - 2) distance-two strings, in ``pauli.all_strings`` order
    for i in range(n - 3, -1, -1):
        for a in "XYZ":
            for b in "XYZ":
                string = "I" * i + a + "I" + b + "I" * (n - 3 - i)
                coeff = decomp.coeffs.get(string, 0.0)
                if abs(coeff) <= 1e-15:
                    continue
                detected[string] = coeff
                if a == b == "Z":
                    detected_zz[string] = coeff
    compensated = dict(decomp.coeffs)
    for string in detected_zz:
        compensated[string] = 0.0
    return NnnReport(detected, detected_zz,
                     PauliDecomposition(decomp.n_sites, compensated))
