import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from trispin import fock, hubbard
from trispin.fock import Basis, Species, Statistics, enumerate_basis
from trispin.hubbard import (Edge, HubbardParams, LatticeGraph, build_h0,
                             build_v, build_v_mixed, derive, hilbert_basis,
                             make_triangle, make_triangular_patch,
                             make_zigzag, projector_single_occupancy)
from trispin.perturb import pauli_decompose
from trispin.raman import SU2Rotation, rotate_tunneling

from engine_reference import h_eff_up_to_third
from fock_reference import (fock_states, h0_diagonal_by_site, sector_basis,
                            sector_rows, site_energy, transfer)


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
    basis = enumerate_basis(2, Statistics.BOSON)
    params = HubbardParams(Statistics.BOSON, u_upup=math.inf, u_dndn=1.0,
                           u_updn=1.0)
    with pytest.raises(ValueError, match="infinite energy state"):
        build_h0(basis, params)


def test_one_infinite_same_species_channel_excludes_only_its_doubles():
    # bosonic triangle: U_upup = inf drops the up-up doubles alone (38 of
    # 56 states), so the model matches U_upup = 1e9 up to O(J^2 / 1e9);
    # with the down-down doubles dropped as well, ZII read 0 against
    # 1.6069e-3
    tri = make_triangle()
    models = []
    for u_upup in (math.inf, 1e9):
        params = HubbardParams.uniform(Statistics.BOSON, 3, 0.04, 0.03,
                                       u_upup=u_upup, u_dndn=1.2)
        h0, v = derive(tri, params)
        models.append((h0.dim, pauli_decompose(h_eff_up_to_third(h0, v))))
    (dim_inf, exact), (dim_large, large) = models
    assert (dim_inf, dim_large) == (38, 56)
    # and U_dndn = inf caps the down modes alone
    occ = hilbert_basis(tri, HubbardParams.uniform(
        Statistics.BOSON, 3, 0.04, 0.03, u_upup=1.1, u_dndn=math.inf)).occ
    assert (occ[:, 0::2].max(), occ[:, 1::2].max(), len(occ)) == (3, 1, 38)
    assert exact["ZII"].real == pytest.approx(1.606875e-3, rel=1e-12)
    gap = max(abs(exact[s] - large[s]) for s in exact.coeffs)
    assert 0 < gap <= 10 * 0.04 ** 2 / 1e9


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
    basis = Basis(sector_rows(2, Statistics.BOSON, 1, n_up=1),
                  Statistics.BOSON, 2)
    v = build_v(basis, graph, params).mat.toarray()
    assert np.allclose(v, [[0, -j], [-j, 0]])


def test_two_site_pair_amplitude():
    graph = _pair_graph()
    j = 0.25
    params = HubbardParams.uniform(Statistics.BOSON, 1, j, 0.0,
                                   u_updn=1.0, u_upup=1.0, u_dndn=1.0)
    basis = Basis(sector_rows(2, Statistics.BOSON, 2, n_up=2),
                  Statistics.BOSON, 2)
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
    pair = Basis(sector_rows(2, Statistics.BOSON, 2, n_up=1),
                 Statistics.BOSON, 2)
    assert len(projector_single_occupancy(pair)) == 2
    bad = Basis(sector_rows(2, Statistics.BOSON, 3), Statistics.BOSON, 2)
    with pytest.raises(ValueError, match="needs one atom per site"):
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
    (Statistics.BOSON, dict(n_atoms=4, site_cap=2), 120),
    (Statistics.BOSON, dict(forbid_cross_occupancy=True), 96),
    (Statistics.BOSON, dict(forbid_same_species_doubles=(True, True)), 96),
    (Statistics.BOSON, dict(), 0),
    (Statistics.FERMION, dict(forbid_cross_occupancy=True), 48),
    (Statistics.FERMION, dict(), 0),
])
def test_dropped_moves_counted(statistics, sector, dropped):
    """Moves that leave a truncated or excluding sector are counted."""
    tri = make_triangle()
    basis = sector_basis(3, statistics, **sector)
    hops = {link: np.ones((2, 2)) for link in range(3)}
    v = build_v_mixed(basis, tri, hops)
    for mode_order in ("standard", "reversed"):
        assert _assert_same_v(v, basis, tri, hops, mode_order) == dropped


def test_hand_built_basis_equals_reference():
    """States out of order and with mixed atom numbers.  Moving the atom
    of mode 0 onto the full mode 2 of (1, 0, 1, 0) would carry a key
    digit into (0, 1, 0, 0); the move must be dropped instead."""
    occ = [(1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 0)]
    basis = Basis(occ, Statistics.BOSON, 2)
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
    sector = dict(
        n_atoms=draw(st.integers(1, n_sites + 1)),
        site_cap=draw(st.sampled_from([None, 1, 2])),
        forbid_cross_occupancy=draw(st.booleans()),
        forbid_same_species_doubles=(draw(st.booleans()),
                                     draw(st.booleans())))
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
    rows = sector_rows(graph.n_sites, statistics, **sector)
    if not rows:
        reject()
    basis = Basis(rows, statistics, graph.n_sites)
    v = build_v_mixed(basis, graph, hops)
    _assert_same_v(v, basis, graph, hops, mode_order)


# Structure once per basis: the shared basis and its move table.

def test_hilbert_basis_is_shared_per_sector():
    tri = make_triangle()
    bosons = HubbardParams.uniform(Statistics.BOSON, 3, 0.04, 0.03,
                                   u_upup=1.1, u_dndn=1.2)
    other = HubbardParams.uniform(Statistics.BOSON, 3, 0.01, 0.0,
                                  u_updn=0.7, u_upup=0.9, u_dndn=1.4)
    basis = hilbert_basis(tri, bosons)
    assert hilbert_basis(tri, other) is basis
    assert derive(tri, other)[1].basis is basis
    no_up_doubles = HubbardParams.uniform(Statistics.BOSON, 3, 0.04, 0.03,
                                          u_upup=math.inf, u_dndn=1.2)
    no_cross = HubbardParams.uniform(Statistics.BOSON, 3, 0.04, 0.03,
                                     u_updn=math.inf, u_upup=1.1,
                                     u_dndn=1.2)
    shared = {id(hilbert_basis(tri, p))
              for p in (bosons, no_up_doubles, no_cross)}
    assert len(shared) == 3
    fermions = HubbardParams.uniform(Statistics.FERMION, 3, 0.04, 0.03)
    assert hilbert_basis(tri, fermions) is not basis


def test_shared_basis_arrays_are_read_only():
    params = HubbardParams.uniform(Statistics.FERMION, 3, 0.04, 0.03)
    basis = hilbert_basis(make_triangle(), params)
    with pytest.raises(ValueError, match="read-only"):
        basis.occ[0, 0] = 1
    for array in (basis.keys, basis.place, *basis.moves(0, 2)[:4]):
        assert not array.flags.writeable
    # a hand-made basis freezes its own view, not the caller's rows
    rows = basis.occ.copy()
    Basis(rows, Statistics.FERMION, 3)
    rows[0, 0] = rows[0, 0]


def test_basis_cache_is_bounded():
    sectors = [(n, statistics, cross)
               for n in (1, 2, 3) for statistics in Statistics
               for cross in (False, True)]
    assert len(sectors) > hubbard.BASIS_CACHE_SIZE
    for n, statistics, cross in sectors:
        params = HubbardParams.uniform(
            statistics, 0, 0.0, 0.0, u_updn=math.inf if cross else 1.0,
            u_upup=None if statistics is Statistics.FERMION else 1.0,
            u_dndn=None if statistics is Statistics.FERMION else 1.0)
        basis = hilbert_basis(LatticeGraph(n, (), "sites"), params)
        assert basis is hilbert_basis(LatticeGraph(n, (), "sites"), params)
        cached = hubbard._shared_basis.cache_info().currsize
        assert cached <= hubbard.BASIS_CACHE_SIZE


def test_oversized_sector_error_is_not_cached():
    graph = LatticeGraph(16, (), "sites")
    params = HubbardParams.uniform(Statistics.FERMION, 0, 0.0, 0.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="exceeds the limit"):
            hilbert_basis(graph, params)


@pytest.mark.parametrize("statistics", list(Statistics))
def test_move_table_reuse_equals_a_fresh_basis(statistics):
    """Parameter sets applied in turn to one shared basis give the CSR
    arrays and dropped-move counts of a build on a fresh copy of it,
    whose move table starts empty."""
    tri = make_triangle()
    rng = np.random.default_rng(5)
    params = _random_params(tri, statistics, rng)
    one_zero = _random_params(tri, statistics, rng)
    one_zero.tunneling[(1, Species.DOWN)] = 0.0
    basis = hilbert_basis(tri, params)
    g = SU2Rotation(0.7, 1.2)
    steps = [
        lambda b: build_v(b, tri, params),
        lambda b: build_v(b, tri, one_zero),
        lambda b: rotate_tunneling(build_v(b, tri, params), g),
        lambda b: build_v_mixed(b, tri, {0: np.ones((2, 2))}),
        lambda b: build_v(b, tri, params),
    ]
    for step in steps:
        got = step(basis)
        fresh = Basis(basis.occ.copy(), statistics, basis.n_sites)
        want = step(fresh)
        assert got.basis is basis and want.basis is fresh
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got.mat, name), getattr(want.mat, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.meta["dropped_moves"] == want.meta["dropped_moves"]
    # one table entry per link and species pair, keyed by the mode pair
    assert {(2 * e.to + f, 2 * e.frm + t) for e in tri.edges
            for t in range(2) for f in range(2)} <= set(basis._moves)


def test_h0_csr_equals_scipy_diags():
    for graph, statistics in ((make_triangle(), Statistics.BOSON),
                              (make_zigzag(5), Statistics.FERMION)):
        params = _random_params(graph, statistics, np.random.default_rng(3))
        h0 = build_h0(hilbert_basis(graph, params), params).mat
        want = sp.diags(h0.diagonal(), format="csr")
        assert want.nnz < h0.shape[0]
        for name in ("data", "indices", "indptr"):
            a, b = getattr(h0, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# One plan per basis and list of live move families: V's pattern and
# how the moves' values gather into it.

def _exclusion_params(graph, statistics, cross, up_doubles, dn_doubles, rng):
    params = _random_params(graph, statistics, rng)
    params.u_updn = math.inf if cross else 1.0
    if up_doubles:
        params.u_upup = math.inf
    if dn_doubles:
        params.u_dndn = math.inf
    return params


THREE_PARALLEL_LINKS = LatticeGraph(3, (Edge(0, 0, 1), Edge(1, 1, 0),
                                        Edge(2, 0, 1), Edge(3, 1, 2),
                                        Edge(4, 2, 0)), "three_parallel")


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("exclusions", list(itertools.product(
    (False, True), repeat=3)), ids=lambda e: "".join("x" if x else "-"
                                                      for x in e))
@pytest.mark.parametrize("graph", [make_triangle(), make_zigzag(4),
                                   make_zigzag(5), THREE_PARALLEL_LINKS],
                         ids=lambda g: g.geometry)
def test_planned_v_equals_per_state_reference(graph, statistics, exclusions):
    """Built twice on the shared basis, the second time from the kept
    plan, and Raman-rotated (all four species families live), V keeps
    the CSR arrays of the per-state reference, duplicates of parallel
    links summed in scipy's order included."""
    rng = np.random.default_rng(len(graph.edges))
    params = _exclusion_params(graph, statistics, *exclusions, rng)
    try:
        basis = hilbert_basis(graph, params)
    except ValueError:
        pytest.skip("no one-atom-per-site sector with these exclusions")
    hops = _species_diagonal_hops(graph, params)
    first = build_v(basis, graph, params)
    again = build_v(basis, graph, params)
    assert again.plan is first.plan
    for v in (first, again):
        _assert_same_v(v, basis, graph, hops)
    g = SU2Rotation(0.4, 0.9)
    rotated = rotate_tunneling(first, g)
    gm = g.matrix
    turned = {link: gm.conj().T @ kmat @ gm for link, kmat in hops.items()}
    assert all(np.all(kmat != 0) for kmat in turned.values())
    assert rotated.plan is not first.plan
    _assert_same_v(rotated, basis, graph, turned)


def test_three_parallel_links_sum_three_entries():
    params = _random_params(THREE_PARALLEL_LINKS, Statistics.BOSON,
                            np.random.default_rng(2))
    v = build_v(hilbert_basis(THREE_PARALLEL_LINKS, params),
                THREE_PARALLEL_LINKS, params)
    # a slot of the links between sites 0 and 1 sums three entries
    assert len(v.plan.gather.rest) == 2


def test_a_zero_coupling_gets_its_own_pattern():
    tri = make_triangle()
    params = _random_params(tri, Statistics.FERMION, np.random.default_rng(4))
    one_zero = _random_params(tri, Statistics.FERMION,
                              np.random.default_rng(4))
    one_zero.tunneling[(1, Species.DOWN)] = 0.0
    basis = hilbert_basis(tri, params)
    full, cut = build_v(basis, tri, params), build_v(basis, tri, one_zero)
    assert cut.plan is not full.plan
    assert cut.mat.nnz < full.mat.nnz
    _assert_same_v(cut, basis, tri, _species_diagonal_hops(tri, one_zero))
    assert build_v(basis, tri, params).plan is full.plan


def test_plans_per_basis_are_bounded():
    tri = make_triangle()
    basis = Basis(hilbert_basis(tri, HubbardParams.uniform(
        Statistics.FERMION, 3, 0.0, 0.0)).occ, Statistics.FERMION, 3)
    for link in range(3):
        for t, f in itertools.product(range(2), repeat=2):
            kmat = np.zeros((2, 2))
            kmat[t, f] = 1.0
            for other in range(3):
                build_v_mixed(basis, tri, {link: kmat,
                                           other: np.eye(2) * (other + 2)})
    assert len(basis._plans) == fock.PLANS_PER_BASIS


# H0 reads the basis' per-site occupations: all sites at once, summed in
# site order, with the bits of a loop over sites.

H0_ENERGIES = (1.3, 0.0, -0.7, 2.25, -1e-3)


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("exclusions", list(itertools.product(
    (False, True), repeat=3)), ids=lambda e: "".join("x" if x else "-"
                                                      for x in e))
def test_h0_equals_site_by_site_reference(statistics, exclusions):
    cross, up_doubles, dn_doubles = exclusions
    rng = np.random.default_rng(sum(2 ** k * x for k, x in
                                    enumerate(exclusions)))
    for n in range(3, 7):
        basis = enumerate_basis(n, statistics, cross,
                                (up_doubles, dn_doubles))
        for k in range(3):
            # zero, negative and random finite energies; inf where excluded
            u = [H0_ENERGIES[(k + c) % len(H0_ENERGIES)] if k < 2
                 else rng.uniform(-2, 2) for c in range(3)]
            params = HubbardParams(
                statistics, u_upup=math.inf if up_doubles else u[0],
                u_dndn=math.inf if dn_doubles else u[1],
                u_updn=math.inf if cross else u[2])
            diag = h0_diagonal_by_site(basis, params)
            stored = diag != 0
            mat = build_h0(basis, params).mat
            assert mat.data.tobytes() == diag[stored].astype(complex).tobytes()
            assert np.array_equal(mat.indices, np.flatnonzero(stored))
            assert np.array_equal(np.diff(mat.indptr), stored)


@pytest.mark.parametrize("channel", ["u_upup", "u_dndn", "u_updn"])
def test_h0_refuses_an_infinite_channel_that_fires(channel):
    basis = enumerate_basis(3, Statistics.BOSON)
    params = HubbardParams(Statistics.BOSON, u_upup=1.0, u_dndn=1.0,
                           u_updn=1.0)
    setattr(params, channel, math.inf)
    with pytest.raises(ValueError, match="infinite energy state in basis; "
                       "use fermionic statistics or finite U"):
        build_h0(basis, params)
    with pytest.raises(ValueError):
        h0_diagonal_by_site(basis, params)


@pytest.mark.parametrize("statistics", list(Statistics))
def test_single_occupancy_is_cached_read_only(statistics):
    graph = make_zigzag(4)
    params = _random_params(graph, statistics, np.random.default_rng(5))
    basis = hilbert_basis(graph, params)
    m = projector_single_occupancy(basis)
    assert projector_single_occupancy(basis) is m
    assert not m.flags.writeable
    fresh = Basis(basis.occ, statistics, basis.n_sites)
    per_site = fresh.occ[:, 0::2] + fresh.occ[:, 1::2]
    assert np.array_equal(m, np.flatnonzero((per_site == 1).all(axis=1)))
    assert np.array_equal(projector_single_occupancy(fresh), m)
    for column in basis.site_occupations:
        assert not column.flags.writeable
    with pytest.raises(ValueError):
        m[0] = 1
