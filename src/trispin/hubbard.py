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

from .fock import Species, Statistics, SectorSpec, enumerate_basis, transfer

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

    def chain_distance(self, edge):
        return abs(edge.frm - edge.to)


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


def zigzag_longitudinal_links(graph):
    """Link ids of the (i, i+2) edges of a zig-zag chain."""
    return [e.link for e in graph.edges if abs(e.to - e.frm) == 2]


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


def make_graph(spec):
    """Build a lattice from a tag: 'triangle', ('zigzag_chain', n) or
    ('triangular_patch', rows, cols)."""
    if spec == "triangle":
        return make_triangle()
    if isinstance(spec, (tuple, list)):
        tag = spec[0]
        if tag == "zigzag_chain":
            return make_zigzag(int(spec[1]))
        if tag == "triangular_patch":
            return make_triangular_patch(int(spec[1]), int(spec[2]))
    raise ValueError(f"unknown lattice spec {spec!r}")


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
        return complex(self.tunneling.get((link, species), 0.0))

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
            tun[(link, Species.UP)] = complex(j_up)
            tun[(link, Species.DOWN)] = complex(j_dn)
        return cls(statistics, u_upup, u_dndn, u_updn, tun)


def sector_for(params, n_sites, n_total=None):
    """Sector of the full Hilbert space consistent with the collision
    sentinels (one atom per site in total by default)."""
    return SectorSpec(
        n_total=n_sites if n_total is None else n_total,
        forbid_cross_occupancy=math.isinf(params.u_updn),
        forbid_same_species_doubles=(
            params.statistics is Statistics.BOSON
            and (math.isinf(params.u_upup) or math.isinf(params.u_dndn))),
    )


def hilbert_basis(graph, params, n_total=None):
    """Enumerate the working basis for an effective-model computation."""
    return enumerate_basis(graph.n_sites, params.statistics,
                           sector_for(params, graph.n_sites, n_total))


@dataclass
class SparseOperator:
    """Complex sparse matrix bound to a basis."""

    mat: sp.csr_matrix
    basis: object
    hermitian: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.mat.shape[0]

    def to_dense(self):
        return self.mat.toarray()

    def diagonal(self):
        return self.mat.diagonal()

    def __add__(self, other):
        if other.basis is not self.basis:
            raise ValueError("operators live on different bases")
        return SparseOperator(self.mat + other.mat, self.basis,
                              self.hermitian and other.hermitian)

    def hermiticity_defect(self):
        return abs(self.mat - self.mat.getH()).max()


def site_energy(n_up, n_dn, params):
    energy = 0.0
    if n_up > 1:
        if math.isinf(params.u_upup):
            return math.inf
        energy += 0.5 * params.u_upup * n_up * (n_up - 1)
    if n_dn > 1:
        if math.isinf(params.u_dndn):
            return math.inf
        energy += 0.5 * params.u_dndn * n_dn * (n_dn - 1)
    if n_up and n_dn:
        if math.isinf(params.u_updn):
            return math.inf
        energy += params.u_updn * n_up * n_dn
    return energy


def build_h0(basis, params):
    """Diagonal collision operator; single-occupancy states sit at 0."""
    diag = np.zeros(len(basis))
    for k, state in enumerate(basis.states):
        total = 0.0
        for site in range(basis.n_sites):
            nu, nd = state.site_occupations(site)
            e = site_energy(nu, nd, params)
            if math.isinf(e):
                raise ValueError(
                    "infinite energy state in basis; use fermionic statistics "
                    "or finite U")
            total += e
        diag[k] = total
    mat = sp.diags(diag.astype(complex), format="csr")
    return SparseOperator(mat, basis, hermitian=True,
                          meta={"kind": "collision", "params": params})


def build_v_mixed(basis, graph, hop_matrices, mode_order="standard"):
    """Tunneling operator from per-link 2x2 species hopping matrices.

    ``hop_matrices[link][t, f]`` multiplies -a(from, t)^dag a(to, f); the
    Hermitian conjugate move is added automatically.
    """
    rows, cols, vals = [], [], []
    species = (Species.UP, Species.DOWN)

    def push(moved, col, coeff):
        if moved is None:
            return
        out, amp = moved
        # moves leaving the sector basis are projected out; for the
        # exclusion sentinels this is the exact infinite-U limit
        pos = basis.index.get(out.occ)
        if pos is None:
            return
        rows.append(pos)
        cols.append(col)
        vals.append(coeff * amp)

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
                for col, state in enumerate(basis.states):
                    push(transfer(state, edge.frm, species[t],
                                  edge.to, species[f], mode_order), col, -j)
                    push(transfer(state, edge.to, species[f],
                                  edge.frm, species[t], mode_order), col,
                         -j.conjugate())
    dim = len(basis)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
    op = SparseOperator(mat, basis, hermitian=True,
                        meta={"kind": "tunneling", "graph": graph,
                              "hop_matrices": dict(hop_matrices),
                              "mode_order": mode_order})
    return op


def build_v(basis, graph, params, mode_order="standard"):
    """Species-diagonal tunneling operator from HubbardParams."""
    hop_matrices = {}
    for edge in graph.edges:
        kmat = np.zeros((2, 2), dtype=complex)
        kmat[0, 0] = params.j(edge.link, Species.UP)
        kmat[1, 1] = params.j(edge.link, Species.DOWN)
        hop_matrices[edge.link] = kmat
    op = build_v_mixed(basis, graph, hop_matrices, mode_order)
    op.meta["params"] = params
    return op


def graph_to_json(graph):
    return {
        "n_sites": graph.n_sites,
        "geometry": graph.geometry,
        "edges": [[e.link, e.frm, e.to] for e in graph.edges],
    }


def graph_from_json(payload):
    edges = tuple(Edge(*map(int, row)) for row in payload["edges"])
    return LatticeGraph(int(payload["n_sites"]), edges,
                        payload.get("geometry", "custom"))


def params_to_json(params):
    def enc(u):
        return "inf" if math.isinf(u) else u

    return {
        "statistics": params.statistics.value,
        "u_upup": enc(params.u_upup),
        "u_dndn": enc(params.u_dndn),
        "u_updn": enc(params.u_updn),
        "tunneling": [
            {"link": link, "species": species.name.lower(),
             "re": j.real, "im": j.imag}
            for (link, species), j in sorted(
                ((k, complex(v)) for k, v in params.tunneling.items()),
                key=lambda item: (item[0][0], item[0][1].value))
        ],
    }


def params_from_json(payload):
    def dec(u):
        return math.inf if u == "inf" else float(u)

    tunneling = {}
    for row in payload.get("tunneling", []):
        species = Species[row["species"].upper()]
        tunneling[(int(row["link"]), species)] = complex(row["re"],
                                                         row.get("im", 0.0))
    return HubbardParams(Statistics(payload["statistics"]),
                         u_upup=dec(payload["u_upup"]),
                         u_dndn=dec(payload["u_dndn"]),
                         u_updn=dec(payload["u_updn"]),
                         tunneling=tunneling)


def projector_single_occupancy(basis):
    """Positions of all states with exactly one atom (either species)
    per site; this block is isomorphic to an n-qubit spin space."""
    if basis.sector.total != basis.n_sites:
        raise ValueError("single-occupancy subspace needs one atom per site")
    picks = []
    for k, state in enumerate(basis.states):
        if all(sum(state.site_occupations(s)) == 1 for s in range(basis.n_sites)):
            picks.append(k)
    return np.array(picks, dtype=int)
