import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from trispin.fock import (Basis, SectorSpec, Species, Statistics,
                          enumerate_basis)
from trispin.hubbard import (Edge, HubbardParams, LatticeGraph, build_h0,
                             build_v, build_v_mixed, hilbert_basis,
                             make_triangle, make_triangular_patch,
                             make_zigzag, projector_single_occupancy)
from trispin.raman import SU2Rotation, rotate_tunneling

from fock_reference import fock_states, site_energy, transfer


def test_triangle_edges():
    tri = make_triangle()
    assert [(e.link, e.frm, e.to) for e in tri.edges] == [
        (0, 0, 1), (1, 1, 2), (2, 2, 0)]


def test_zigzag_edge_set():
    graph = make_zigzag(4)
    pairs = {frozenset((e.frm, e.to)) for e in graph.edges}
    assert pairs == {frozenset(p) for p in
                     [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]}
    # the (i, i+2) edges follow the three (i, i+1) edges
    assert {e.link for e in graph.edges if abs(e.frm - e.to) == 2} == {3, 4}


def test_zigzag3_matches_triangle_connectivity():
    tri = {frozenset((e.frm, e.to)) for e in make_triangle().edges}
    zig = {frozenset((e.frm, e.to)) for e in make_zigzag(3).edges}
    assert tri == zig


def test_zigzag_too_short():
    with pytest.raises(ValueError):
        make_zigzag(2)


def test_triangular_patch_interior_degree():
    patch = make_triangular_patch(3, 3)
    degree = [0] * patch.n_sites
    for e in patch.edges:
        degree[e.frm] += 1
        degree[e.to] += 1
    assert degree[4] == 6   # center of the 3x3 patch


def test_site_energies():
    params = HubbardParams(Statistics.BOSON, u_upup=2.0, u_dndn=3.0,
                           u_updn=0.5)
    assert site_energy(1, 0, params) == 0.0
    assert site_energy(2, 1, params) == pytest.approx(2.0 + 2 * 0.5)
    assert site_energy(3, 0, params) == pytest.approx(3 * 2.0)


def test_h0_single_occupancy_is_zero():
    tri = make_triangle()
    params = HubbardParams.uniform(Statistics.BOSON, 3, 0.1, 0.1,
                                   u_updn=1.0, u_upup=1.5, u_dndn=0.7)
    basis = hilbert_basis(tri, params)
    h0 = build_h0(basis, params)
    m = projector_single_occupancy(basis)
    assert np.abs(h0.diagonal()[m]).max() == 0.0


def test_h0_infinite_sentinel_rejected_for_bosons():
    basis = enumerate_basis(1, Statistics.BOSON, SectorSpec(n_total=2))
    params = HubbardParams(Statistics.BOSON, u_upup=math.inf, u_dndn=1.0,
                           u_updn=1.0)
    with pytest.raises(ValueError, match="infinite energy state"):
        build_h0(basis, params)


def _pair_graph():
    from trispin.hubbard import Edge, LatticeGraph
    return LatticeGraph(2, (Edge(0, 0, 1),), "pair")


def test_v_zero_couplings():
    graph = _pair_graph()
    params = HubbardParams.uniform(Statistics.BOSON, 1, 0.0, 0.0,
                                   u_updn=1.0, u_upup=1.0, u_dndn=1.0)
    basis = hilbert_basis(graph, params)
    v = build_v(basis, graph, params)
    assert v.mat.nnz == 0


def test_two_site_single_particle_hopping_matrix():
    graph = _pair_graph()
    j = 0.3
    params = HubbardParams.uniform(Statistics.BOSON, 1, j, 0.0,
                                   u_updn=1.0, u_upup=1.0, u_dndn=1.0)
    basis = enumerate_basis(2, Statistics.BOSON, SectorSpec(n_up=1, n_down=0))
    v = build_v(basis, graph, params).mat.toarray()
    assert np.allclose(v, [[0, -j], [-j, 0]])


def test_two_site_pair_amplitude():
    graph = _pair_graph()
    j = 0.25
    params = HubbardParams.uniform(Statistics.BOSON, 1, j, 0.0,
                                   u_updn=1.0, u_upup=1.0, u_dndn=1.0)
    basis = enumerate_basis(2, Statistics.BOSON, SectorSpec(n_up=2, n_down=0))
    v = build_v(basis, graph, params)
    k20, k11 = basis.locate(np.array([(2, 0, 0, 0), (1, 0, 1, 0)])
                            @ basis.place)
    assert v.mat.toarray()[k11, k20] == pytest.approx(-j * math.sqrt(2))


def test_missing_link_coupling_defaults_to_zero():
    tri = make_triangle()
    params = HubbardParams(Statistics.BOSON, 1.0, 1.0, 1.0,
                           {(0, Species.UP): 0.1})
    basis = hilbert_basis(tri, params)
    v = build_v(basis, tri, params).mat
    assert abs(v - v.conj().T).max() <= 1e-14


def _number_matrix(basis, species):
    return np.diag([sum(s.occupation(i, species) for i in range(basis.n_sites))
                    for s in fock_states(basis)])


def test_v_conserves_species_numbers():
    tri = make_triangle()
    params = HubbardParams.uniform(Statistics.BOSON, 3, 0.12, 0.07,
                                   u_updn=1.0, u_upup=1.3, u_dndn=0.9)
    basis = hilbert_basis(tri, params)
    v = build_v(basis, tri, params).mat.toarray()
    for species in Species:
        n = _number_matrix(basis, species)
        assert np.abs(v @ n - n @ v).max() <= 1e-13


def test_tunneling_leaves_single_occupancy_block():
    tri = make_triangle()
    for statistics in Statistics:
        params = HubbardParams.uniform(
            statistics, 3, 0.1, 0.08, u_updn=1.0,
            u_upup=None if statistics is Statistics.FERMION else 1.2,
            u_dndn=None if statistics is Statistics.FERMION else 0.8)
        basis = hilbert_basis(tri, params)
        v = build_v(basis, tri, params).mat.toarray()
        m = projector_single_occupancy(basis)
        assert np.abs(v[np.ix_(m, m)]).max() == 0.0


def test_hermiticity_with_complex_couplings():
    tri = make_triangle()
    tun = {}
    rng = np.random.default_rng(0)
    for link in range(3):
        for species in Species:
            tun[(link, species)] = complex(rng.normal(), rng.normal()) * 0.05
    params = HubbardParams(Statistics.BOSON, 1.1, 0.9, 1.0, tun)
    basis = hilbert_basis(tri, params)
    h = build_h0(basis, params).mat + build_v(basis, tri, params).mat
    assert abs(h - h.conj().T).max() <= 1e-14


def test_projector_sizes_and_errors():
    tri = make_triangle()
    params = HubbardParams.uniform(Statistics.BOSON, 3, 0.1, 0.1,
                                   u_updn=1.0, u_upup=1.0, u_dndn=1.0)
    basis = hilbert_basis(tri, params)
    assert len(projector_single_occupancy(basis)) == 8
    pair = enumerate_basis(2, Statistics.BOSON, SectorSpec(n_up=1, n_down=1))
    assert len(projector_single_occupancy(pair)) == 2
    bad = enumerate_basis(2, Statistics.BOSON, SectorSpec(n_total=3))
    with pytest.raises(ValueError):
        projector_single_occupancy(bad)


def test_fermionic_triangle_projector():
    tri = make_triangle()
    params = HubbardParams.uniform(Statistics.FERMION, 3, 0.1, 0.1, u_updn=1.0)
    basis = hilbert_basis(tri, params)
    assert len(projector_single_occupancy(basis)) == 8


# Per-state references: loops over FockState objects, transfer and a
# dict from occupation tuple to position, against which the array
# passes over basis.occ are checked.

def _reference_v(basis, graph, hop_matrices, mode_order="standard"):
    """V as a CSR matrix, and the number of moves with a nonzero
    amplitude whose target is not in the basis."""
    rows, cols, vals = [], [], []
    dropped = 0
    species = (Species.UP, Species.DOWN)
    states = fock_states(basis)
    index = {state.occ: k for k, state in enumerate(states)}

    def push(moved, col, coeff):
        nonlocal dropped
        if moved is None:
            return
        out, amp = moved
        pos = index.get(out.occ)
        if pos is None:
            dropped += 1
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
                for col, state in enumerate(states):
                    push(transfer(state, edge.frm, species[t],
                                  edge.to, species[f], mode_order), col, -j)
                    push(transfer(state, edge.to, species[f],
                                  edge.frm, species[t], mode_order), col,
                         -j.conjugate())
    dim = len(basis)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
    return mat, dropped


def _reference_h0_diagonal(basis, params):
    diag = np.zeros(len(basis))
    for k, state in enumerate(fock_states(basis)):
        total = 0.0
        for site in range(basis.n_sites):
            total += site_energy(*state.site_occupations(site), params)
        diag[k] = total
    return diag


def _reference_single_occupancy(basis):
    return np.array([k for k, state in enumerate(fock_states(basis))
                     if all(sum(state.site_occupations(s)) == 1
                            for s in range(basis.n_sites))], dtype=int)


def _assert_same_v(op, basis, graph, hop_matrices, mode_order="standard"):
    want, dropped = _reference_v(basis, graph, hop_matrices, mode_order)
    got = op.mat
    assert got.indptr.dtype == want.indptr.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    assert op.meta["dropped_moves"] == dropped
    return dropped


def _species_diagonal_hops(graph, params):
    return {e.link: np.diag([params.j(e.link, Species.UP),
                             params.j(e.link, Species.DOWN)])
            for e in graph.edges}


def _random_params(graph, statistics, rng):
    tun = {(e.link, s): complex(rng.uniform(0.02, 0.05),
                                rng.uniform(-0.02, 0.02))
           for e in graph.edges for s in Species}
    if statistics is Statistics.FERMION:
        return HubbardParams(statistics, u_updn=1.0, tunneling=tun)
    return HubbardParams(statistics, u_upup=rng.uniform(0.8, 1.4),
                         u_dndn=rng.uniform(0.8, 1.4), u_updn=1.0,
                         tunneling=tun)


@pytest.mark.parametrize("graph, statistics", [
    *[(make_zigzag(n), Statistics.FERMION) for n in (4, 5, 6, 7)],
    *[(make_zigzag(n), Statistics.BOSON) for n in (4, 5)],
    (make_triangle(), Statistics.FERMION),
    (make_triangle(), Statistics.BOSON),
], ids=lambda x: getattr(x, "geometry", getattr(x, "value", None)))
def test_v_h0_and_m_equal_per_state_references(graph, statistics):
    rng = np.random.default_rng(graph.n_sites)
    params = _random_params(graph, statistics, rng)
    basis = hilbert_basis(graph, params)
    hops = _species_diagonal_hops(graph, params)
    v = build_v(basis, graph, params)
    for mode_order in ("standard", "reversed"):
        assert _assert_same_v(v, basis, graph, hops, mode_order) == 0
    assert np.array_equal(build_h0(basis, params).diagonal().real,
                          _reference_h0_diagonal(basis, params))
    m = projector_single_occupancy(basis)
    assert m.dtype == _reference_single_occupancy(basis).dtype
    assert np.array_equal(m, _reference_single_occupancy(basis))


@pytest.mark.parametrize("statistics", list(Statistics))
def test_rotated_species_mixing_v_equals_reference(statistics):
    tri = make_triangle()
    rng = np.random.default_rng(11)
    params = _random_params(tri, statistics, rng)
    basis = hilbert_basis(tri, params)
    v = build_v(basis, tri, params)
    g = SU2Rotation(0.4, 0.9)
    rotated = rotate_tunneling(v, g)
    gm = g.matrix
    hops = {link: gm.conj().T @ kmat @ gm
            for link, kmat in _species_diagonal_hops(tri, params).items()}
    for mode_order in ("standard", "reversed"):
        _assert_same_v(rotated, basis, tri, hops, mode_order)


@pytest.mark.parametrize("statistics, sector, dropped", [
    (Statistics.BOSON, SectorSpec(n_total=4, site_cap=2), 120),
    (Statistics.BOSON, SectorSpec(n_total=3, forbid_cross_occupancy=True),
     96),
    (Statistics.BOSON, SectorSpec(n_total=3,
                                  forbid_same_species_doubles=True), 96),
    (Statistics.BOSON, SectorSpec(n_total=3), 0),
    (Statistics.FERMION, SectorSpec(n_total=3, forbid_cross_occupancy=True),
     48),
    (Statistics.FERMION, SectorSpec(n_total=3), 0),
])
def test_dropped_moves_counted(statistics, sector, dropped):
    """Moves that leave a truncated or excluding sector are counted."""
    tri = make_triangle()
    basis = enumerate_basis(3, statistics, sector)
    hops = {link: np.ones((2, 2)) for link in range(3)}
    v = build_v_mixed(basis, tri, hops)
    for mode_order in ("standard", "reversed"):
        assert _assert_same_v(v, basis, tri, hops, mode_order) == dropped


def test_hand_built_basis_equals_reference():
    """States out of order and with mixed atom numbers.  Moving the atom
    of mode 0 onto the full mode 2 of (1, 0, 1, 0) would carry a key
    digit into (0, 1, 0, 0); the move must be dropped instead."""
    occ = [(1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 0)]
    basis = Basis(occ, Statistics.BOSON, 2, SectorSpec(n_total=2))
    assert basis.radix == 2
    graph = _pair_graph()
    hops = {0: np.array([[0.3, 0.1j], [0.2, -0.4]])}
    v = build_v_mixed(basis, graph, hops)
    assert _assert_same_v(v, basis, graph, hops) > 0


@st.composite
def _v_cases(draw):
    n_sites = draw(st.integers(3, 4))
    pairs = list(itertools.combinations(range(n_sites), 2))
    # a pair may repeat: parallel links put duplicate entries into V
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                           max_size=len(pairs) + 1))
    edges = tuple(Edge(link, *(pair if draw(st.booleans()) else pair[::-1]))
                  for link, pair in enumerate(chosen))
    graph = LatticeGraph(n_sites, edges, "drawn")
    statistics = draw(st.sampled_from(list(Statistics)))
    n_total = draw(st.integers(1, n_sites + 1))
    sector = SectorSpec(
        n_total=n_total,
        site_cap=draw(st.sampled_from([None, 1, 2])),
        forbid_cross_occupancy=draw(st.booleans()),
        forbid_same_species_doubles=draw(st.booleans()))
    entry = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    hops = {e.link: np.array([[complex(draw(entry), draw(entry))
                               for _ in range(2)] for _ in range(2)])
            for e in edges}
    mode_order = draw(st.sampled_from(["standard", "reversed"]))
    return graph, statistics, sector, hops, mode_order


@settings(max_examples=60, deadline=None)
@given(_v_cases())
def test_v_matches_per_state_reference_property(case):
    graph, statistics, sector, hops, mode_order = case
    try:
        basis = enumerate_basis(graph.n_sites, statistics, sector)
    except ValueError:
        reject()
    v = build_v_mixed(basis, graph, hops)
    _assert_same_v(v, basis, graph, hops, mode_order)
