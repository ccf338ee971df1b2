"""Lattice geometries and sparse Hubbard operators.

The collisional part is diagonal in the occupation basis with per-site
energy  u_upup*n_u*(n_u-1)/2 + u_dndn*n_d*(n_d-1)/2 + u_updn*n_u*n_d.
The tunneling part carries one complex amplitude per (link, species);
for the directed edge (from, to) the amplitude J multiplies the move
to -> from, i.e. the term -J a(from)^dag a(to), and its conjugate the
reverse move.  Infinite collision channels are never represented by
large floats: they are enforced as exclusions at basis construction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fock import Species, Statistics, SectorSpec, enumerate_basis

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
    occupancy is excluded exactly (see sector_for / hilbert_basis).
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


def sector_for(params, n_sites):
    """Sector of the full Hilbert space with one atom per site in total,
    consistent with the collision sentinels."""
    return SectorSpec(
        n_total=n_sites,
        forbid_cross_occupancy=math.isinf(params.u_updn),
        forbid_same_species_doubles=(
            params.statistics is Statistics.BOSON
            and (math.isinf(params.u_upup) or math.isinf(params.u_dndn))),
    )


def hilbert_basis(graph, params):
    """Enumerate the working basis for an effective-model computation."""
    return enumerate_basis(graph.n_sites, params.statistics,
                           sector_for(params, graph.n_sites))


@dataclass
class SparseOperator:
    """Complex sparse matrix bound to a basis."""

    mat: sp.csr_matrix
    basis: object
    meta: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.mat.shape[0]

    def diagonal(self):
        return self.mat.diagonal()


def build_h0(basis, params):
    """Diagonal collision operator; single-occupancy states sit at 0.

    Summed site by site over ``basis.occ``, channel by channel in the
    order of the module formula; a channel that does not fire adds a
    signed zero, which leaves every sum unchanged.
    """
    occ = basis.occ
    diag = np.zeros(len(basis))
    for site in range(basis.n_sites):
        up, dn = occ[:, 2 * site], occ[:, 2 * site + 1]
        channels = ((params.u_upup, up > 1), (params.u_dndn, dn > 1),
                    (params.u_updn, (up > 0) & (dn > 0)))
        if any(math.isinf(u) and hit.any() for u, hit in channels):
            raise ValueError(
                "infinite energy state in basis; use fermionic statistics "
                "or finite U")
        energy = np.zeros(len(basis))
        if not math.isinf(params.u_upup):
            energy += 0.5 * params.u_upup * up * (up - 1)
        if not math.isinf(params.u_dndn):
            energy += 0.5 * params.u_dndn * dn * (dn - 1)
        if not math.isinf(params.u_updn):
            energy += params.u_updn * up * dn
        diag += energy
    mat = sp.diags(diag.astype(complex), format="csr")
    return SparseOperator(mat, basis)


def build_v_mixed(basis, graph, hop_matrices):
    """Tunneling operator from per-link 2x2 species hopping matrices.

    ``hop_matrices[link][t, f]`` multiplies -a(from, t)^dag a(to, f); the
    Hermitian conjugate move is added automatically.

    Each move (edge, t, f, direction) with a nonzero J is one array pass
    over ``basis.occ``: amplitudes and fermionic signs come from the
    occupation columns and their prefix sums, and the targets are found
    by key (``Basis.locate``).  A move with a nonzero amplitude whose
    target is not in the basis is dropped and counted in
    ``meta["dropped_moves"]``: for the exclusion sentinels that is the
    exact infinite-U projection, under a finite ``site_cap`` it is a
    truncation.
    """
    pairs = []
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
                pairs.append((np.array([2 * edge.to + f, 2 * edge.frm + t]),
                              np.array([2 * edge.frm + t, 2 * edge.to + f]),
                              np.array([-j, -j.conjugate()])))
    occ = basis.occ
    fermions = basis.statistics is Statistics.FERMION
    if fermions:
        # occupied modes in front of each mode in the standard order; the
        # sign of a(to)^dag a(frm) counts the occupied modes strictly
        # between the two, so it is the same in either mode order
        ahead = np.cumsum(occ, axis=1) - occ
    rows, cols = [np.zeros(0, int)], [np.zeros(0, int)]
    vals = [np.zeros(0, complex)]
    dropped = 0
    for frm, to, coeff in pairs:
        n_from, n_to = occ[:, frm], occ[:, to]
        live = n_from > 0
        if fermions:
            live &= n_to == 0
        # state by state, forward before reverse: the order of the
        # per-state loop this replaces, so that duplicates from parallel
        # links sum in the same order
        col, way = np.nonzero(live)
        n_from, n_to = n_from[col, way], n_to[col, way]
        frm, to = frm[way], to[way]
        # a target digit past the largest occupation is in no basis state
        # and would carry into the next mode's digit
        fits = n_to + 1 < basis.radix
        row = np.full(len(col), -1)
        row[fits] = basis.locate(basis.keys[col[fits]]
                                 - basis.place[frm[fits]]
                                 + basis.place[to[fits]])
        keep = row >= 0
        dropped += len(keep) - int(np.count_nonzero(keep))
        col, way, frm, to = col[keep], way[keep], frm[keep], to[keep]
        if fermions:
            # less the atom just removed when it sat in front of `to`
            odd = (ahead[col, frm] + ahead[col, to] - (frm < to)) % 2
            amp = np.where(odd, -1.0, 1.0)
        else:
            amp = np.sqrt(n_from[keep]) * np.sqrt(n_to[keep] + 1)
        rows.append(row[keep])
        cols.append(col)
        vals.append(coeff[way] * amp)
    dim = len(basis)
    mat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                np.concatenate(cols))),
                        shape=(dim, dim), dtype=complex)
    return SparseOperator(mat, basis,
                          meta={"graph": graph,
                                "hop_matrices": dict(hop_matrices),
                                "dropped_moves": dropped})


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
    per site; this block is isomorphic to an n-qubit spin space."""
    if basis.sector.total != basis.n_sites:
        raise ValueError("single-occupancy subspace needs one atom per site")
    per_site = basis.occ[:, 0::2] + basis.occ[:, 1::2]
    return np.flatnonzero((per_site == 1).all(axis=1))


def derive(graph, params):
    """Collision operator, tunneling operator and the positions of the
    single-occupancy block M, on the working basis of a lattice."""
    basis = hilbert_basis(graph, params)
    return (build_h0(basis, params), build_v(basis, graph, params),
            projector_single_occupancy(basis))
