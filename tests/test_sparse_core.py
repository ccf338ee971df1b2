"""The sparse derivation core against the dense code it replaced.

The references below densify V on the whole sector, run orders 2 and 3
on all of F and eliminate F by a dense LU with LAPACK's ?gecon condition
estimate.  The package keeps V's nonzeros, runs the orders on the F
states one hop from M and factors H_FF by sparse LU.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from trispin.adiabatic import (adiabatic_eliminate, series_compare,
                               truncated_series)
from trispin.fock import Species, Statistics
from trispin.hubbard import (HubbardParams, SparseOperator, build_v, derive,
                             make_triangle, make_zigzag)
from trispin.perturb import (DegenerateIntermediateError, cross_second,
                             h_eff_second, h_eff_third, partition, spin_map)


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


def _case(geometry, n, statistics):
    graph = make_triangle() if geometry == "triangle" else make_zigzag(n)
    rng = np.random.default_rng(40 + n)
    h0, v, m = derive(graph, _params(graph, statistics, rng))
    vb = build_v(h0.basis, graph, _params(graph, statistics, rng))
    return h0, v, vb, m


@pytest.fixture(scope="module", params=CASES,
                ids=[f"{g}-{n}-{s.value}" for g, n, s in CASES])
def case(request):
    return _case(*request.param)


def _close(got, want):
    tol = 1e-13 * max(1.0, np.linalg.norm(want, 2))
    assert np.abs(got - want).max() <= tol


def test_orders_match_dense_reference(case):
    h0, v, vb, m = case
    _, vmf, vff, _, ef = _dense_partition(h0, v, m)
    want2, want3 = _dense_second(vmf, ef), _dense_third(vmf, vff, ef)
    _close(h_eff_second(h0, v, m).matrix, want2)
    _close(h_eff_third(h0, v, m).matrix, want3)
    _close(truncated_series(h0, v, m, 2).matrix, want2)
    _close(truncated_series(h0, v, m, 3).matrix, want2 + want3)


def test_cross_second_matches_dense_reference(case):
    h0, v, vb, m = case
    a, b = _dense_partition(h0, v, m)[1], _dense_partition(h0, vb, m)[1]
    ef = _dense_partition(h0, v, m)[4]
    want = -(a / ef) @ b.conj().T - (b / ef) @ a.conj().T
    _close(cross_second(h0, v, vb, m).matrix, want)


def test_elimination_matches_dense_reference(case):
    h0, v, _, m = case
    want, gecon, hff = _dense_elimination(h0, v, m)
    result = adiabatic_eliminate(h0, v, m)
    _close(result.h_eff.matrix, want)
    assert result.dims == (h0.dim, h0.dim - len(m), len(m))
    kappa1 = np.linalg.cond(hff, 1)
    for estimate in (result.condition_number, gecon):
        assert kappa1 / 3 <= estimate <= kappa1 * (1 + 1e-12)


@pytest.mark.parametrize("statistics", list(Statistics))
def test_series_compare_matches_its_routes(statistics):
    h0, v, _, m = _case("triangle", 3, statistics)
    report = series_compare(h0, v, m)
    exact = adiabatic_eliminate(h0, v, m)
    engine = h_eff_second(h0, v, m).matrix + h_eff_third(h0, v, m).matrix
    assert report["adiabatic_vs_engine"] == la.norm(
        exact.h_eff.matrix - engine, 2)
    assert report["condition_number"] == exact.condition_number
    assert report["dims"] == exact.dims


def test_condition_number_is_repeatable():
    # the estimate uses no random start vector, global or otherwise
    graph = make_zigzag(5)
    h0, v, m = derive(graph, _params(graph, Statistics.FERMION,
                                     np.random.default_rng(3)))
    values = []
    for seed in (0, 1, 2):
        np.random.seed(seed)
        values.append(adiabatic_eliminate(h0, v, m).condition_number)
    assert values[0] == values[1] == values[2]


def test_only_states_one_hop_from_m_are_reached():
    # fermionic zig-zag chain of six sites: 288 of the 860 fast states
    graph = make_zigzag(6)
    h0, v, m = derive(graph, HubbardParams.uniform(
        Statistics.FERMION, graph.n_links, 0.04, 0.03))
    p = partition(h0, v, m)
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
    h0, v, m = _bosonic_triangle()
    p = partition(h0, v, m)
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
    h0, v, m = derive(make_triangle(), params)
    p = partition(h0, v, m)
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
    h0, v, m = _bosonic_triangle()
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
    h0, v, m = derive(graph, HubbardParams.uniform(
        Statistics.FERMION, graph.n_links, 0.04, 0.03))
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


def test_series_compare_builds_one_partition(monkeypatch):
    from trispin import adiabatic, perturb
    calls = []

    def counted(*args):
        calls.append(args)
        return partition(*args)

    monkeypatch.setattr(adiabatic, "partition", counted)
    monkeypatch.setattr(perturb, "partition", counted)
    h0, v, _, m = _case("triangle", 3, Statistics.BOSON)
    series_compare(h0, v, m)
    assert len(calls) == 1
