"""The sparse derivation core against the dense code it replaced.

The references below densify V on the whole sector, run orders 2 and 3
on all of F and eliminate F by a dense LU with LAPACK's ?gecon condition
estimate.  The package keeps V's nonzeros, runs the orders on the F
states one hop from M and factors H_FF by sparse LU.  ``cross_second``,
the order-2 cross term of two tunnelings that the Raman bilinearity
check reads, runs on the package's partitions and is checked against
the dense reference here.
"""

import contextlib
import dataclasses
import io
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from trispin import adiabatic
from trispin.adiabatic import (_neumann, adiabatic_eliminate, eliminate,
                               series_compare)
from trispin.cli import main
from trispin.closedform import chirality_point_params
from trispin.conformance import (engine_decomposition, random_triangle_params,
                                 run_triangle_draw)
from trispin.fock import Basis, Species, Statistics
from trispin.hubbard import (HubbardParams, SparseOperator, build_h0,
                             build_v, build_v_mixed, derive, make_triangle,
                             make_triangular_patch, make_zigzag)
from trispin.perturb import (DegenerateIntermediateError, EffectiveHamiltonian,
                             check_engine, h_eff_second, h_eff_third,
                             partition, spin_map)
from trispin.raman import SU2Rotation, covariance_check, rotate_tunneling


def _dense_partition(h0, v, m):
    """V densified on the whole sector in the order (M in spin order, F)."""
    spin = spin_map(h0.basis, m)
    f = np.setdiff1d(np.arange(h0.dim), spin)
    order = np.concatenate([spin, f])
    vd = v.mat.toarray()[np.ix_(order, order)]
    energies = h0.diagonal().real
    k = len(spin)
    return vd[:k, :k], vd[:k, k:], vd[k:, k:], energies[spin], energies[f]


def _dense_second(vmf, ef):
    return -(vmf / ef) @ vmf.conj().T


def _dense_third(vmf, vff, ef):
    return (vmf / ef) @ vff @ (vmf.conj().T / ef[:, None])


def cross_second(h0, va, vb):
    """Bilinear cross term of the order-2 map: engine(Va + Vb) order-2
    minus the two diagonal parts, on the union of the two reached sets."""
    pa = check_engine(partition(h0, va))
    pb = check_engine(partition(h0, vb))
    k = len(pa.m)
    r = np.union1d(pa.r, pb.r)
    a, b = (p.block(np.arange(k), k + r) for p in (pa, pb))
    ef = pa.ef[r]
    block = -(a / ef) @ b.conj().T - (b / ef) @ a.conj().T
    return EffectiveHamiltonian(block)


def _dense_elimination(h0, v, m):
    """Dense LU of H_FF and LAPACK's 1-norm condition estimate."""
    vmm, vmf, vff, em, ef = _dense_partition(h0, v, m)
    hff = vff + np.diag(ef)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", la.LinAlgWarning)
        lu = la.lu_factor(hff, check_finite=False)
    gecon, = la.get_lapack_funcs(("gecon",), (lu[0],))
    rcond, _ = gecon(lu[0], np.abs(hff).sum(axis=0).max(), norm="1")
    block = vmm + np.diag(em) - vmf @ la.lu_solve(lu, vmf.conj().T)
    return 0.5 * (block + block.conj().T), 1.0 / rcond, hff


def _params(graph, statistics, rng):
    tun = {(e.link, s): complex(rng.uniform(0.02, 0.06),
                                rng.uniform(-0.03, 0.03))
           for e in graph.edges for s in Species}
    u_same = {} if statistics is Statistics.FERMION else {
        "u_upup": rng.uniform(0.8, 1.4), "u_dndn": rng.uniform(0.8, 1.4)}
    return HubbardParams(statistics, u_updn=1.0, tunneling=tun, **u_same)


CASES = [("zigzag", 4, Statistics.FERMION), ("zigzag", 5, Statistics.FERMION),
         ("zigzag", 6, Statistics.FERMION), ("zigzag", 4, Statistics.BOSON),
         ("triangle", 3, Statistics.FERMION),
         ("triangle", 3, Statistics.BOSON)]
# complex J on every case, the same J without imaginary parts (so H_FF is
# factored in real arithmetic), and a Raman rotation of the triangles'
# J, which mixes the species and joins every (n_up, n_down) sector
TUNNELING = ([(*c, "complex") for c in CASES] + [(*c, "real") for c in CASES]
             + [("triangle", 3, s, "raman") for s in Statistics])
RAMAN = SU2Rotation(0.4, 0.9)


def _case(geometry, n, statistics, tunneling="complex"):
    graph = make_triangle() if geometry == "triangle" else make_zigzag(n)
    rng = np.random.default_rng(40 + n)
    params = [_params(graph, statistics, rng) for _ in range(2)]
    if tunneling == "real":
        params = [dataclasses.replace(p, tunneling={
            key: complex(j.real) for key, j in p.tunneling.items()})
            for p in params]
    h0, v = derive(graph, params[0])
    m = h0.basis.single_occupancy
    vb = build_v(h0.basis, graph, params[1])
    if tunneling == "raman":
        v, vb = rotate_tunneling(v, RAMAN), rotate_tunneling(vb, RAMAN)
    return h0, v, vb, m


@pytest.fixture(scope="module", params=TUNNELING,
                ids=[f"{g}-{n}-{s.value}" + ("" if t == "complex" else f"-{t}")
                     for g, n, s, t in TUNNELING])
def case(request):
    return _case(*request.param)


def _close(got, want):
    tol = 1e-13 * max(1.0, np.linalg.norm(want, 2))
    assert np.abs(got - want).max() <= tol


def test_orders_match_dense_reference(case):
    h0, v, vb, m = case
    _, vmf, vff, _, ef = _dense_partition(h0, v, m)
    want2, want3 = _dense_second(vmf, ef), _dense_third(vmf, vff, ef)
    for got, want in ((h_eff_second(h0, v, m), want2),
                      (h_eff_third(h0, v, m), want3)):
        assert got.matrix.dtype == complex
        _close(got.matrix, want)
    p = partition(h0, v)
    _close(_neumann(p, 2).matrix, want2)
    _close(_neumann(p, 3).matrix, want2 + want3)


def test_cross_second_matches_dense_reference(case):
    h0, v, vb, m = case
    a, b = _dense_partition(h0, v, m)[1], _dense_partition(h0, vb, m)[1]
    ef = _dense_partition(h0, v, m)[4]
    want = -(a / ef) @ b.conj().T - (b / ef) @ a.conj().T
    _close(cross_second(h0, v, vb).matrix, want)


# DENSE_COMPONENT_DIM at 0 sends every component of H_FF to SuperLU, above
# F every one to LAPACK's dense LU
ALL_SUPERLU, ALL_DENSE = 0, 10 ** 6


def _factored_kinds(monkeypatch, p):
    """(dense, SuperLU) counts of the components of one elimination."""
    factored = []
    factor = adiabatic._factor_fast_block

    def recording(hff, components):
        lu, cond = factor(hff, components)
        factored.append(lu)
        return lu, cond

    with monkeypatch.context() as patch:
        patch.setattr(adiabatic, "_factor_fast_block", recording)
        eliminate(p)
    lu, = factored
    return lu.dense, len(lu.parts) - lu.dense


def test_elimination_matches_dense_reference(case, monkeypatch):
    h0, v, _, m = case
    p = partition(h0, v)
    # a real V is read in real arithmetic, H_FF included
    real = not v.mat.data.imag.any()
    for array in (p.vals, p.vmr, p.vrr.data, p.vff, p.fast_block().data):
        assert np.isrealobj(array) == real
    want, gecon, hff = _dense_elimination(h0, v, m)
    kappa1 = np.linalg.cond(hff, 1)
    assert kappa1 / 3 <= gecon <= kappa1 * (1 + 1e-12)
    # and the switch itself: a component of the constant's size is dense
    sizes = np.array([len(states) for states, *_ in p.split.components])
    middle = sizes[len(sizes) // 2]
    dense = (sizes <= middle).sum()
    for dense_dim, kinds in ((adiabatic.DENSE_COMPONENT_DIM, None),
                             (ALL_SUPERLU, (0, len(sizes))),
                             (middle, (dense, len(sizes) - dense)),
                             (ALL_DENSE, (len(sizes), 0))):
        monkeypatch.setattr(adiabatic, "DENSE_COMPONENT_DIM", dense_dim)
        if kinds:
            assert _factored_kinds(monkeypatch, p) == kinds
        result = adiabatic_eliminate(h0, v, m)
        assert result.h_eff.matrix.dtype == complex
        _close(result.h_eff.matrix, want)
        assert result.dims == (h0.dim, h0.dim - len(m), len(m))
        assert (kappa1 / 3 <= result.condition_number
                <= kappa1 * (1 + 1e-12))


def test_elimination_reads_v_mm_from_its_entries():
    # V_MM is empty for a hop; a coupling between two M states, put in
    # by hand, must reach H_MM and nothing else
    h0, v = _bosonic_triangle()
    m = h0.basis.single_occupancy
    spin = spin_map(h0.basis, m)
    inside = sp.lil_matrix(v.mat.shape, dtype=complex)
    inside[spin[0], spin[1]] = 0.01 + 0.02j
    inside[spin[1], spin[0]] = 0.01 - 0.02j
    coupled = SparseOperator(v.mat + inside.tocsr(), v.basis)
    p = partition(h0, coupled)
    assert len(p.split.mm) == 2
    assert len(partition(h0, v).split.mm) == 0
    vmm, _, _, em, _ = _dense_partition(h0, coupled, m)
    assert np.array_equal(p.slow_block(), vmm + np.diag(em))
    _close(eliminate(p).h_eff.matrix,
           _dense_elimination(h0, coupled, m)[0])


def _chiral_patch():
    """The bosonic 2x2 patch at U_upup = -1, U_dndn = 1.3, U_updn = inf
    and opposite imaginary tunnelings of both species on every link."""
    graph = make_triangular_patch(2, 2)
    tun = {(e.link, s): sign * 0.05j for e in graph.edges
           for s, sign in ((Species.UP, -1), (Species.DOWN, 1))}
    return derive(graph, HubbardParams(Statistics.BOSON, u_upup=-1.0,
                                       u_dndn=1.3, u_updn=math.inf,
                                       tunneling=tun))


@pytest.mark.parametrize("derived, n_fast, energies", [
    (lambda: derive(make_triangle(), chirality_point_params(0.05)), 30,
     (-3.0, 3.0)),
    (_chiral_patch, 176, (-6.0, 7.8))], ids=["triangle", "patch-2x2"])
def test_elimination_of_an_indefinite_fast_block(derived, n_fast, energies):
    # collision energies of both signs: H_FF is indefinite, and its LU
    # must still give the dense Schur complement
    h0, v = derived()
    p = partition(h0, v)
    assert len(p.f) == n_fast
    assert np.allclose((p.ef.min(), p.ef.max()), energies)
    vmm, vmf, vff, em, ef = _dense_partition(h0, v,
                                              h0.basis.single_occupancy)
    hff = vff + np.diag(ef)
    assert np.linalg.eigvalsh(hff)[[0, -1]].prod() < 0
    want = vmm + np.diag(em) - vmf @ np.linalg.solve(hff, vmf.conj().T)
    _close(eliminate(p).h_eff.matrix, want)


def test_components_are_the_conserved_sectors():
    graph = make_zigzag(6)
    h0, v = derive(graph, HubbardParams.uniform(
        Statistics.FERMION, graph.n_links, 0.04, 0.03))
    p = partition(h0, v)
    label = p.split.labels
    n_up = h0.basis.occ[np.concatenate([p.m, p.f]), 0::2].sum(axis=1)
    # the labels split the sector as n_up does: 7 parts for n_up = 0..6
    assert len(np.unique(label)) == 7
    assert len(np.unique(np.c_[label, n_up], axis=0)) == 7
    h0, v, _, _ = _case("triangle", 3, Statistics.BOSON, "raman")
    assert np.array_equal(partition(h0, v).split.labels,
                          np.zeros(h0.dim, dtype=int))


def _propagated_labels(split):
    """Components of V's pattern by min-label propagation, each labelled
    by its smallest (M, F) position: every pass lowers each label to the
    smallest among itself and its neighbours, then to the label of that
    label, until no label falls."""
    ends = np.concatenate([split.rows, split.cols])
    starts = np.concatenate([split.cols, split.rows])
    label = np.arange(len(split.m) + len(split.f))
    while True:
        lowered = label.copy()
        np.minimum.at(lowered, ends, label[starts])
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            return label
        label = lowered


def _check_components(split):
    """``Split.labels`` groups the positions as the propagation does and
    numbers the components by their smallest positions; each M state's
    column is its rank among the M states of its component.  The blocks
    of ``Split.components`` come largest first and cover F and H_FF's
    stored entries; read through its CSC pattern and through its (row,
    column) pairs, each is H_FF's pattern on its F states, with each
    stored entry in its place."""
    want = np.unique(_propagated_labels(split), return_inverse=True)[1]
    assert np.array_equal(split.labels, want)
    column, same = split.layout
    label = split.labels[:len(split.m)]
    assert np.array_equal(same, label[:, None] == label)
    for component in np.unique(label):
        mine = label == component
        assert np.array_equal(column[mine], np.arange(mine.sum()))
    _, indices, indptr = split.hff
    nf, stored = len(split.f), len(indices)
    # H_FF's pattern with entry k stored as k + 1
    full = sp.csc_matrix((np.arange(1, stored + 1), indices, indptr),
                         shape=(nf, nf)).toarray()
    blocks = split.components
    sizes = [len(states) for states, *_ in blocks]
    assert sizes == sorted(sizes, reverse=True)
    for part, total in ((0, nf), (1, stored)):
        got = np.concatenate([block[part] for block in blocks])
        assert np.array_equal(np.sort(got), np.arange(total))
    for states, entries, rows, block_indptr, cols in blocks:
        size = len(states)
        assert np.array_equal(states, np.sort(states))
        want = full[np.ix_(states, states)]
        by_pattern = sp.csc_matrix((entries + 1, rows, block_indptr),
                                   shape=(size, size))
        assert by_pattern.has_canonical_format
        assert np.array_equal(by_pattern.toarray(), want)
        by_pairs = np.zeros((size, size), dtype=int)
        by_pairs[rows, cols] = entries + 1
        assert np.array_equal(by_pairs, want)


def test_components_match_an_independent_labelling(case):
    h0, v, vb, _ = case
    for tunneling in (v, vb):
        _check_components(partition(h0, tunneling).split)


# J_down = 0 on the zig-zag chains and one live link on the fermionic
# triangle: V's components are finer than the (n_up, n_down) sectors
FINER = [("zigzag", 5, Statistics.FERMION, 32),
         ("zigzag", 4, Statistics.BOSON, 70),
         ("triangle", 3, Statistics.FERMION, 10)]


@pytest.mark.parametrize("geometry, n, statistics, components", FINER,
                         ids=[f"{g}-{n}-{s.value}" for g, n, s, _ in FINER])
def test_elimination_on_components_finer_than_the_sectors(
        geometry, n, statistics, components, monkeypatch):
    graph = make_triangle() if geometry == "triangle" else make_zigzag(n)
    params = _params(graph, statistics, np.random.default_rng(50 + n))

    def live(link, species):
        return species is Species.UP if geometry == "zigzag" else link == 0

    tunneling = {key: j if live(*key) else 0j
                 for key, j in params.tunneling.items()}
    h0, v = derive(graph, dataclasses.replace(params, tunneling=tunneling))
    p = partition(h0, v)
    assert len(np.unique(p.split.labels)) == components
    _check_components(p.split)
    vmm, vmf, vff, em, ef = _dense_partition(h0, v,
                                              h0.basis.single_occupancy)
    want = vmm + np.diag(em) - vmf @ np.linalg.solve(vff + np.diag(ef),
                                                     vmf.conj().T)
    _close(eliminate(p).h_eff.matrix, want)
    for dense_dim in (ALL_SUPERLU, ALL_DENSE):
        with monkeypatch.context() as patch:
            patch.setattr(adiabatic, "DENSE_COMPONENT_DIM", dense_dim)
            _close(eliminate(p).h_eff.matrix, want)


def test_partitions_of_one_plan_share_one_layout(monkeypatch):
    from trispin import hubbard, perturb
    hubbard._shared_basis.cache_clear()
    labelled = []
    components = perturb.connected_components

    def counted(*args, **kwargs):
        labelled.append(args)
        return components(*args, **kwargs)

    monkeypatch.setattr(perturb, "connected_components", counted)
    graph = make_zigzag(4)
    rng = np.random.default_rng(7)
    parts = [partition(*derive(graph, _params(graph, Statistics.FERMION,
                                              rng)))
             for _ in range(2)]
    for p in parts:
        eliminate(p)
    assert not np.array_equal(parts[0].vals, parts[1].vals)
    assert parts[0].split.layout is parts[1].split.layout
    assert len(labelled) == 1


def test_elimination_refuses_a_non_hermitian_result(monkeypatch):
    # H_FF factored with one off-diagonal entry of a reached row changed:
    # the correction is no longer Hermitian, and the check before the
    # symmetrization must see it
    h0, v, _, _ = _case("triangle", 3, Statistics.BOSON)
    p = partition(h0, v)
    factor = adiabatic._factor_fast_block

    def skewed(hff, components):
        hff = hff.copy()
        rows = hff.indices
        cols = np.repeat(np.arange(hff.shape[1]), np.diff(hff.indptr))
        entry = np.flatnonzero((rows != cols) & np.isin(rows, p.r))[0]
        hff.data[entry] += 0.01
        return factor(hff, components)

    eliminate(p)
    monkeypatch.setattr(adiabatic, "_factor_fast_block", skewed)
    with pytest.raises(ValueError, match="eliminated Hamiltonian lost "
                                         "hermiticity"):
        eliminate(p)


@pytest.mark.parametrize("statistics", list(Statistics))
def test_series_compare_matches_its_routes(statistics):
    h0, v, _, m = _case("triangle", 3, statistics)
    report = series_compare(h0, v)
    exact = adiabatic_eliminate(h0, v, m)
    engine = h_eff_second(h0, v, m).matrix + h_eff_third(h0, v, m).matrix
    assert report["adiabatic_vs_engine"] == la.norm(
        exact.h_eff.matrix - engine, 2)
    assert report["condition_number"] == exact.condition_number
    assert report["dims"] == exact.dims


def test_condition_number_is_repeatable():
    # the estimate uses no random start vector, global or otherwise
    graph = make_zigzag(5)
    h0, v = derive(graph, _params(graph, Statistics.FERMION,
                                     np.random.default_rng(3)))
    m = h0.basis.single_occupancy
    values = []
    for seed in (0, 1, 2):
        np.random.seed(seed)
        values.append(adiabatic_eliminate(h0, v, m).condition_number)
    assert values[0] == values[1] == values[2]


def test_only_states_one_hop_from_m_are_reached():
    # fermionic zig-zag chain of six sites: 288 of the 860 fast states
    graph = make_zigzag(6)
    h0, v = derive(graph, HubbardParams.uniform(
        Statistics.FERMION, graph.n_links, 0.04, 0.03))
    m = h0.basis.single_occupancy
    p = partition(h0, v)
    assert (len(p.f), len(p.r)) == (860, 288)
    _, vmf, _, _, _ = _dense_partition(h0, v, m)
    assert np.array_equal(np.flatnonzero(np.abs(vmf).sum(axis=0)), p.r)


def _bosonic_triangle():
    params = HubbardParams.uniform(Statistics.BOSON, 3, 0.05, 0.03,
                                   u_upup=1.1, u_dndn=0.9)
    return derive(make_triangle(), params)


def _with_energy(h0, positions, value):
    diag = h0.diagonal().real.copy()
    diag[positions] = value
    return SparseOperator(sp.csr_matrix(sp.diags(diag)), h0.basis)


def test_degenerate_state_two_hops_from_m_is_caught():
    h0, v = _bosonic_triangle()
    m = h0.basis.single_occupancy
    p = partition(h0, v)
    in_r = np.zeros(len(p.f), dtype=bool)
    in_r[p.r] = True
    vff = np.abs(_dense_partition(h0, v, m)[2])
    two_hops = np.flatnonzero(~in_r & (vff[in_r].sum(axis=0) > 0))
    assert len(two_hops)        # the triply occupied states
    bad = _with_energy(h0, p.f[two_hops[:1]], 0.0)
    with pytest.raises(DegenerateIntermediateError,
                       match="degenerate intermediate state"):
        h_eff_second(bad, v, m)


def test_unreached_zero_energy_state_is_not_an_intermediate():
    # with no down tunneling the doubly occupied down states are out of
    # reach, so a zero energy there changes nothing
    params = HubbardParams.uniform(Statistics.BOSON, 3, 0.05, 0.0,
                                   u_upup=1.1, u_dndn=0.9)
    h0, v = derive(make_triangle(), params)
    m = h0.basis.single_occupancy
    p = partition(h0, v)
    reached = np.zeros(len(p.f), dtype=bool)
    reached[p.r] = True
    vff = np.abs(_dense_partition(h0, v, m)[2])
    reached |= vff[reached].sum(axis=0) > 0
    far = p.f[np.flatnonzero(~reached)]
    assert len(far)
    shifted = _with_energy(h0, far, 0.0)
    assert np.array_equal(h_eff_third(shifted, v, m).matrix,
                          h_eff_third(h0, v, m).matrix)


def test_engine_conditions_keep_their_messages():
    h0, v = _bosonic_triangle()
    m = h0.basis.single_occupancy
    with pytest.raises(ValueError, match="not at zero collision energy"):
        h_eff_second(_with_energy(h0, m[:1], 0.5), v, m)
    spin = spin_map(h0.basis, m)
    inside = sp.lil_matrix(v.mat.shape, dtype=complex)
    inside[spin[0], spin[1]] = inside[spin[1], spin[0]] = 0.01
    bad_v = SparseOperator(v.mat + inside.tocsr(), v.basis)
    with pytest.raises(ValueError, match="does not vanish inside"):
        h_eff_third(h0, bad_v, m)


def test_derivation_allocates_no_dense_sector_copy():
    # fermionic zig-zag chain of seven sites: one dense complex dim^2
    # copy of V would be 16 * 3432^2 B = 188 MB
    graph = make_zigzag(7)
    h0, v = derive(graph, HubbardParams.uniform(
        Statistics.FERMION, graph.n_links, 0.04, 0.03))
    m = h0.basis.single_occupancy
    dense_copy = 16 * h0.dim ** 2
    tracemalloc.start()
    try:
        h_eff_second(h0, v, m)
        h_eff_third(h0, v, m)
        adiabatic_eliminate(h0, v, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_copy / 4


def _count_partitions(monkeypatch):
    """Count ``perturb.partition`` calls through every module that binds
    it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return partition(*args)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "trispin"
                and getattr(module, "partition", None) is partition):
            monkeypatch.setattr(module, "partition", counted)
    return calls


def _triangle_draw():
    params = random_triangle_params(Statistics.BOSON,
                                    np.random.default_rng(5), 0.05,
                                    u_ratios=(1.1, 0.9))
    run_triangle_draw(params)


def _covariance(n_rotations):
    h0, v = _bosonic_triangle()
    covariance_check(h0, v, [SU2Rotation(0.3, 0.1 * k + 0.7)
                             for k in range(n_rotations)])


@pytest.mark.parametrize("route, built", [
    (_triangle_draw, 1),
    (lambda: _covariance(1), 2),
    (lambda: _covariance(3), 4),
    (lambda: engine_decomposition(make_triangle(), HubbardParams.uniform(
        Statistics.BOSON, 3, 0.05, 0.03, u_upup=1.1, u_dndn=0.9)), 1),
    (lambda: main(["chiral"]), 1),
    (lambda: series_compare(*_bosonic_triangle()), 1),
], ids=["run_triangle_draw", "covariance_check", "covariance_check_3",
        "engine_decomposition", "chiral", "series_compare"])
def test_routes_build_one_partition_per_tunneling(monkeypatch, route, built):
    # one per V: covariance_check derives from the bare V once and from
    # each rotated V
    calls = _count_partitions(monkeypatch)
    route()
    assert len(calls) == built


def test_series_check_sees_a_reached_state_the_engine_skips(monkeypatch):
    # the series runs on all of F, so an engine that loses one state of R
    # no longer matches it
    def short_reach(*args):
        p = partition(*args)
        return dataclasses.replace(p, r=p.r[1:])

    monkeypatch.setattr(adiabatic, "partition", short_reach)
    report = series_compare(*_bosonic_triangle())
    assert report["series_vs_engine"] > 1e-12


# The split is structure: kept on V's plan, built once per pattern.

def _old_fast_block(p):
    """H_FF assembled as before the split kept its pattern: COO entries
    sorted by column, then scipy's sum_duplicates."""
    k, nf = len(p.m), len(p.f)
    inside = (p.rows >= k) & (p.cols >= k)
    rows = np.concatenate([p.rows[inside] - k, np.arange(nf)])
    cols = np.concatenate([p.cols[inside] - k, np.arange(nf)])
    by_column = np.argsort(cols, kind="stable")
    indptr = np.zeros(nf + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=nf), out=indptr[1:])
    vals = p.vals if p.vals.imag.any() else p.vals.real
    hff = sp.csc_matrix(
        (np.concatenate([vals[inside], p.ef])[by_column],
         rows[by_column].astype(np.int32), indptr), shape=(nf, nf))
    hff.sum_duplicates()
    return hff


def _same_arrays(a, b, names):
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_partition_without_a_plan_equals_the_planned_one(case):
    h0, v, _, _ = case
    planned = partition(h0, v)
    bare = SparseOperator(v.mat.copy(), v.basis)
    assert bare.plan is None
    unplanned = partition(h0, bare)
    # the operator keeps the plan of its own pattern, with its own split
    assert bare.plan is not None and unplanned.split is bare.plan.split
    assert unplanned.split is not planned.split
    _same_arrays(planned, unplanned, ("m", "f", "rows", "cols", "vals",
                                      "em", "ef", "r"))
    assert np.array_equal(planned.split.labels, unplanned.split.labels)
    _same_arrays(planned.fast_block(), unplanned.fast_block(),
                 ("data", "indices", "indptr"))
    # the kept split serves the next derivation on the same pattern
    assert partition(h0, v).split is planned.split
    assert partition(h0, bare).split is unplanned.split


def test_fast_block_equals_scipy_assembly(case):
    h0, v, vb, _ = case
    for tunneling in (v, vb):
        p = partition(h0, tunneling)
        _same_arrays(p.fast_block(), _old_fast_block(p),
                     ("data", "indices", "indptr"))


def test_unplanned_duplicates_are_summed():
    """A V stored with every entry split in two halves, out of column
    order, splits as the V it sums to."""
    h0, v = _bosonic_triangle()
    coo = v.mat.tocoo()
    half = coo.data / 2
    order = np.argsort(np.tile(coo.row, 2), kind="stable")
    halves = sp.csr_matrix(
        (np.concatenate([half, coo.data - half])[order],
         np.tile(coo.col, 2)[order], 2 * v.mat.indptr), shape=coo.shape)
    assert not halves.has_canonical_format
    got, want = partition(h0, SparseOperator(halves, v.basis)), \
        partition(h0, v)
    _same_arrays(got, want, ("rows", "cols", "r"))
    assert np.allclose(got.vals, want.vals, rtol=1e-15, atol=0)


def test_plans_are_built_once_per_basis_and_families(monkeypatch):
    """A ``verify --draws 2`` pass on fresh shared bases: every V plan and
    every M/F split is built once, and no V lacks a plan."""
    from trispin import hubbard, perturb
    hubbard._shared_basis.cache_clear()
    plans, splits, unplanned = [], [], []
    move_plan, of_pattern = hubbard._move_plan, perturb.Split.of_pattern

    def counted_plan(basis, families):
        plans.append((id(basis), families))
        return move_plan(basis, families)

    def counted_split(*args):
        splits.append(args)
        return of_pattern(*args)

    monkeypatch.setattr(hubbard, "_move_plan", counted_plan)
    monkeypatch.setattr(perturb.Split, "of_pattern", counted_split)
    monkeypatch.setattr(perturb, "pattern_plan",
                        lambda mat: unplanned.append(mat))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--draws", "2"]) == 0
    # the species-diagonal V on the fermionic and on the bosonic triangle,
    # and the Raman-rotated bosonic V of every covariance rotation
    assert len(plans) == len(set(plans)) == 3
    assert len(splits) == 3
    assert unplanned == []


def test_reached_states_are_read_from_the_values():
    """A V that stores explicit zeros, here every entry of link 0 of the
    triangle, keeps them in its pattern; the states only they lead to
    are not in R."""
    h0, v = _bosonic_triangle()
    tri, basis = make_triangle(), v.basis
    hops = {link: np.diag([0.05, 0.03]) for link in range(3)}
    link0 = build_v_mixed(basis, tri, {0: hops[0]}).mat.tocoo()
    stored = v.mat.copy()
    rows = np.repeat(np.arange(stored.shape[0]), np.diff(stored.indptr))
    dim = stored.shape[0]
    stored.data[np.isin(rows * dim + stored.indices,
                        link0.row * dim + link0.col)] = 0
    assert (stored.data == 0).any() and stored.nnz == v.mat.nnz
    p = partition(h0, SparseOperator(stored, basis))
    assert len(p.r) < len(np.unique(p.split.mf_targets))
    without = build_v_mixed(basis, tri, {1: hops[1], 2: hops[2]})
    assert np.array_equal(p.r, partition(h0, without).r)


def test_kept_split_is_checked_against_m():
    """The routes that take M check it against the basis.  Any M that
    passes lists the basis' single-occupancy block, so a reversed copy
    gives the same bits on the kept split."""
    h0, v = _bosonic_triangle()
    m = h0.basis.single_occupancy
    kept = partition(h0, v).split
    doubled = np.flatnonzero(h0.diagonal().real != 0)[0]
    bad = {"not a full spin space": m[:-1],
           "not singly occupied": np.r_[m[:-1], doubled],
           "duplicate spin configuration": np.r_[m[:-1], m[0]]}
    for route in (h_eff_second, h_eff_third, adiabatic_eliminate):
        want = route(h0, v, m)
        got = route(h0, v, m[::-1].copy())
        assert (getattr(got, "h_eff", got).matrix.tobytes()
                == getattr(want, "h_eff", want).matrix.tobytes())
        for message, wrong in bad.items():
            with pytest.raises(ValueError, match=message):
                route(h0, v, wrong)
    assert partition(h0, v).split is kept


def test_h0_must_share_the_basis_of_v():
    """H0's energies are read at V's positions: an H0 on the same states
    in another order is refused, one on an equal copy of the basis is
    read as on the basis itself."""
    params = HubbardParams.uniform(Statistics.BOSON, 3, 0.05, 0.03,
                                   u_upup=1.1, u_dndn=0.9)
    h0, v = derive(make_triangle(), params)
    m = h0.basis.single_occupancy
    basis = v.basis
    f = np.setdiff1d(np.arange(len(basis)), m)
    order = np.arange(len(basis))
    order[f] = f[::-1]
    shuffled = Basis(basis.occ[order], basis.statistics, basis.n_sites)
    with pytest.raises(ValueError, match="not on the same basis"):
        h_eff_second(build_h0(shuffled, params), v, m)
    copy = Basis(basis.occ.copy(), basis.statistics, basis.n_sites)
    want = h_eff_second(h0, v, m).matrix
    assert h_eff_second(build_h0(copy, params), v, m).matrix.tobytes() \
        == want.tobytes()
