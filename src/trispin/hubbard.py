"""Lattice geometries and sparse Hubbard operators.

The collisional part is diagonal in the occupation basis with per-site
energy  u_upup*n_u*(n_u-1)/2 + u_dndn*n_d*(n_d-1)/2 + u_updn*n_u*n_d.
The tunneling part carries one complex amplitude per (link, species);
for the directed edge (from, to) the amplitude J multiplies the move
to -> from, i.e. the term -J a(from)^dag a(to), and its conjugate the
reverse move.  Infinite collision channels are never represented by
large floats: they are enforced as exclusions at basis construction.

Assembly is split into structure and values.  The structure depends only
on the basis: ``hilbert_basis`` returns one shared basis per (n_sites,
statistics, exclusions), and each tunneling move's targets, sources,
signs and bosonic factors sit in that basis' move table
(``Basis.moves``), built once.  A derivation then supplies the values:
the collision energies of H0 and one coupling times the fixed amplitudes
per move of V.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fock import Species, Statistics, enumerate_basis

Edge = namedtuple("Edge", ["link", "frm", "to"])


@dataclass(frozen=True)
class LatticeGraph:
    n_sites: int
    edges: tuple
    geometry: str

    def __post_init__(self):
        links = [e.link for e in self.edges]
        if links != list(range(len(links))):
            raise ValueError("link ids must be contiguous from 0")
        for e in self.edges:
            if e.frm == e.to:
                raise ValueError("self-loop edge")
            if not (0 <= e.frm < self.n_sites and 0 <= e.to < self.n_sites):
                raise ValueError("edge endpoint out of range")

    @property
    def n_links(self):
        return len(self.edges)


def make_triangle():
    """Three sites on a ring; link j joins sites j and j+1 mod 3."""
    edges = tuple(Edge(j, j, (j + 1) % 3) for j in range(3))
    return LatticeGraph(3, edges, "triangle")


def make_zigzag(n):
    """Chain of edge-sharing triangles: every consecutive site triple
    {i, i+1, i+2} is closed by a longitudinal (i, i+2) edge."""
    if n < 3:
        raise ValueError("zig-zag chain needs at least 3 sites")
    edges = []
    for i in range(n - 1):
        edges.append(Edge(len(edges), i, i + 1))
    for i in range(n - 2):
        edges.append(Edge(len(edges), i, i + 2))
    return LatticeGraph(n, tuple(edges), f"zigzag_chain({n})")


def make_triangular_patch(rows, cols):
    """Finite parallelogram patch of the triangular lattice.

    Neighbors of (r, c) are (r, c+-1), (r+-1, c) and (r+-1, c+-1), so
    interior sites have six neighbors.
    """
    if rows < 1 or cols < 1:
        raise ValueError("patch must have positive extent")

    def site(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(Edge(len(edges), site(r, c), site(r, c + 1)))
            if r + 1 < rows:
                edges.append(Edge(len(edges), site(r, c), site(r + 1, c)))
            if r + 1 < rows and c + 1 < cols:
                edges.append(Edge(len(edges), site(r, c), site(r + 1, c + 1)))
    return LatticeGraph(rows * cols, tuple(edges), f"triangular_patch({rows},{cols})")


@dataclass
class HubbardParams:
    """Collision energies and per-(link, species) tunneling amplitudes.

    ``math.inf`` in a collision channel means the corresponding double
    occupancy is excluded exactly (see hilbert_basis).
    Missing tunneling entries default to zero.
    """

    statistics: Statistics
    u_upup: float = math.inf
    u_dndn: float = math.inf
    u_updn: float = 1.0
    tunneling: dict = field(default_factory=dict)

    def j(self, link, species):
        """The amplitude as a complex number, or a complex array when the
        entry holds an array (cast like complex(), which keeps -0.0)."""
        value = self.tunneling.get((link, species), 0.0)
        if np.ndim(value) == 0:
            return complex(value)
        return np.asarray(value, dtype=complex)

    @classmethod
    def uniform(cls, statistics, n_links, j_up, j_dn, u_updn=1.0,
                u_upup=None, u_dndn=None):
        """Link-independent tunnelings; fermionic same-species channels
        default to the exclusion sentinel."""
        if statistics is Statistics.FERMION:
            u_upup = math.inf if u_upup is None else u_upup
            u_dndn = math.inf if u_dndn is None else u_dndn
        else:
            if u_upup is None or u_dndn is None:
                raise ValueError("bosonic parameters need finite u_upup, u_dndn")
        tun = {}
        for link in range(n_links):
            tun[(link, Species.UP)] = j_up
            tun[(link, Species.DOWN)] = j_dn
        return cls(statistics, u_upup, u_dndn, u_updn, tun)


# shared bases kept for reuse, with their move tables; the least
# recently used one is dropped first
BASIS_CACHE_SIZE = 8


def hilbert_basis(graph, params):
    """The one-atom-per-site basis of a lattice, with the double
    occupancies of every infinite collision channel excluded.

    Equal (n_sites, statistics, exclusions) return the same read-only
    basis, so its move table is built once for every derivation on it.
    """
    return _shared_basis(graph.n_sites, params.statistics,
                         math.isinf(params.u_updn),
                         (math.isinf(params.u_upup),
                          math.isinf(params.u_dndn)))


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _shared_basis(n_sites, statistics, forbid_cross_occupancy,
                  forbid_same_species_doubles):
    return enumerate_basis(
        n_sites, statistics, forbid_cross_occupancy=forbid_cross_occupancy,
        forbid_same_species_doubles=forbid_same_species_doubles)


@dataclass
class SparseOperator:
    """Complex sparse matrix bound to a basis; a tunneling operator built
    by ``build_v_mixed``, or partitioned once, also carries the ``Plan``
    of its pattern."""

    mat: sp.csr_matrix
    basis: object
    meta: dict = field(default_factory=dict)
    plan: object = field(default=None, repr=False)

    @property
    def dim(self):
        return self.mat.shape[0]

    def diagonal(self):
        return self.mat.diagonal()


@dataclass(eq=False)
class Gather:
    """How scipy compresses a list of (major, minor) entries: the pattern
    it stores (``indices``, ``indptr``) and the entries summed into each
    stored slot, in its order.  ``first`` lists the entry that opens each
    slot; each ``(slots, entries)`` of ``rest`` then adds one more entry
    to some slots, so a slot of three entries sums as (a + b) + c, as
    scipy sums duplicates."""

    indices: np.ndarray
    indptr: np.ndarray
    first: np.ndarray
    rest: tuple

    def __call__(self, values):
        """The stored data of the entries' ``values``."""
        data = values[self.first]
        for slots, entries in self.rest:
            data[slots] += values[entries]
        return data


def compress(major, minor, n_major, n_minor):
    """The ``Gather`` of scipy's COO -> CSR conversion (CSC with the roles
    swapped) of the entries (``major``, ``minor``), found once per
    pattern.  scipy groups the entries by ``major`` in their own order,
    then sorts each group by ``minor`` with a sort that is not stable:
    that sort, run here on the entry numbers, decides which of two equal
    ``minor`` comes first, and so the order in which duplicates sum."""
    counts = np.bincount(major, minlength=n_major)
    indptr = np.zeros(n_major + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(major, kind="stable")
    probe = sp.csr_matrix((order, minor[order].astype(np.int32), indptr),
                          shape=(n_major, n_minor))
    probe.sort_indices()
    order, minor = probe.data, probe.indices
    group = np.repeat(np.arange(n_major), counts)
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = (minor[1:] != minor[:-1]) | (group[1:] != group[:-1])
    slot = np.cumsum(opens) - 1
    rank = np.arange(len(order)) - np.flatnonzero(opens)[slot]
    rest = tuple((slot[rank == k], order[rank == k])
                 for k in range(1, rank.max(initial=0) + 1))
    stored = np.zeros(n_major + 1, dtype=np.int32)
    np.cumsum(np.bincount(group[opens], minlength=n_major), out=stored[1:])
    gather = Gather(minor[opens], stored, order[opens], rest)
    for array in (gather.indices, gather.indptr, gather.first,
                  *(a for pair in rest for a in pair)):
        array.flags.writeable = False
    return gather


@dataclass(eq=False)
class Plan:
    """The fixed structure of a tunneling operator on one basis.

    ``gather`` stores V's entries as a CSR matrix: its pattern and, for
    a plan of ``build_v_mixed``, how the value of every move lands in
    it, move by move as the move table lists them (``term`` indexes the
    couplings -J and -J* of the moves' families, ``amp`` holds the
    amplitudes).  ``split`` is the pattern's M/F ``perturb.Split``, the
    one copy of it: ``perturb.partition`` builds it on first use, with M
    the basis' single-occupancy block.
    """

    gather: Gather
    term: np.ndarray = None
    amp: np.ndarray = None
    dropped: int = 0
    split: object = None


def _move_plan(basis, families):
    """The plan of V on ``basis`` for moves of the (mode, mode) pairs
    ``families``, in this order."""
    tables = [basis.moves(a, b) for a, b in families]
    rows = np.concatenate([np.zeros(0, np.int32)] + [t.rows for t in tables])
    cols = np.concatenate([np.zeros(0, np.int32)] + [t.cols for t in tables])
    term = np.concatenate([np.zeros(0, np.intp)]
                          + [2 * k + t.way for k, t in enumerate(tables)])
    amp = np.concatenate([np.zeros(0)] + [t.amp for t in tables])
    for array in (term, amp):
        array.flags.writeable = False
    return Plan(compress(rows, cols, len(basis), len(basis)), term, amp,
                sum(t.dropped for t in tables))


def pattern_plan(mat):
    """The plan of an operator built without one, from its own canonical
    CSR pattern; ``perturb.partition`` keeps it on the operator."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    return Plan(compress(rows, mat.indices, *mat.shape))


def build_h0(basis, params):
    """Diagonal collision operator; single-occupancy states sit at 0.

    The module formula runs on every site at once, on the basis' per-site
    occupations (``Basis.site_occupations``), channel by channel in its
    order; a channel that does not fire adds a signed zero, which leaves
    every sum unchanged.  The sites are then summed in order, state by
    state, as a loop over sites would sum them.
    """
    up, dn = basis.site_occupations
    if ((math.isinf(params.u_upup) and (up > 1).any())
            or (math.isinf(params.u_dndn) and (dn > 1).any())
            or (math.isinf(params.u_updn) and ((up > 0) & (dn > 0)).any())):
        raise ValueError(
            "infinite energy state in basis; use fermionic statistics "
            "or finite U")
    energy = np.zeros(up.shape)
    if not math.isinf(params.u_upup):
        energy += 0.5 * params.u_upup * up * (up - 1)
    if not math.isinf(params.u_dndn):
        energy += 0.5 * params.u_dndn * dn * (dn - 1)
    if not math.isinf(params.u_updn):
        energy += params.u_updn * up * dn
    diag = np.add.reduce(energy, axis=0)
    # stored as sp.diags stores a diagonal (nonzero entries only, 32-bit
    # indices), but built directly: at triangle size its DIA and COO
    # steps cost more than the sums
    stored = diag != 0
    indptr = np.zeros(len(basis) + 1, dtype=np.int32)
    np.cumsum(stored, out=indptr[1:])
    mat = sp.csr_matrix((diag[stored].astype(complex),
                         np.flatnonzero(stored).astype(np.int32), indptr),
                        shape=(len(basis), len(basis)))
    return SparseOperator(mat, basis)


def build_v_mixed(basis, graph, hop_matrices):
    """Tunneling operator from per-link 2x2 species hopping matrices.

    ``hop_matrices[link][t, f]`` multiplies -a(from, t)^dag a(to, f); the
    Hermitian conjugate move is added automatically.

    Each move (edge, t, f) with a nonzero J is a family of the basis'
    move table (``Basis.moves``), scaled by -J forward and -J* back; a
    zero J adds nothing, not even explicit zeros, which would join
    conserved sectors in V's pattern.  The CSR pattern of one list of
    live families is built once per basis (its ``Plan``, kept with the
    basis), so a call only scales the fixed amplitudes and gathers them
    into that pattern, summing duplicates from parallel links as scipy
    does.  A move with a nonzero amplitude whose target is not in the
    basis is dropped and counted in ``meta["dropped_moves"]``: for the
    exclusion sentinels that is the exact infinite-U projection, on a
    truncated basis a truncation.
    """
    families, couplings = [], []
    for edge in graph.edges:
        kmat = hop_matrices.get(edge.link)
        if kmat is None or not np.any(kmat):
            continue
        kmat = np.asarray(kmat)
        for t in range(2):
            for f in range(2):
                j = complex(kmat[t, f])
                if j == 0:
                    continue
                # the move to -> from with -J, and its reverse with -J*
                families.append((2 * edge.to + f, 2 * edge.frm + t))
                couplings += (-j, -j.conjugate())
    plan = basis.plan(tuple(families), _move_plan)
    gather = plan.gather
    data = gather(np.array(couplings, dtype=complex)[plan.term] * plan.amp)
    dim = len(basis)
    mat = sp.csr_matrix((data, gather.indices, gather.indptr),
                        shape=(dim, dim))
    return SparseOperator(mat, basis,
                          meta={"graph": graph,
                                "hop_matrices": dict(hop_matrices),
                                "dropped_moves": plan.dropped},
                          plan=plan)


def build_v(basis, graph, params):
    """Species-diagonal tunneling operator from HubbardParams."""
    hop_matrices = {}
    for edge in graph.edges:
        kmat = np.zeros((2, 2), dtype=complex)
        kmat[0, 0] = params.j(edge.link, Species.UP)
        kmat[1, 1] = params.j(edge.link, Species.DOWN)
        hop_matrices[edge.link] = kmat
    return build_v_mixed(basis, graph, hop_matrices)


def projector_single_occupancy(basis):
    """Positions of all states with exactly one atom (either species)
    per site; this block is isomorphic to an n-qubit spin space.  The
    positions are fixed per basis and kept on it, read-only
    (``Basis.single_occupancy``)."""
    return basis.single_occupancy


def derive(graph, params):
    """Collision operator and tunneling operator on the working basis of
    a lattice; M is that basis' ``single_occupancy``."""
    basis = hilbert_basis(graph, params)
    return build_h0(basis, params), build_v(basis, graph, params)
