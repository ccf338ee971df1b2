import numpy as np
import pytest

from trispin import adiabatic
from trispin.adiabatic import _neumann, adiabatic_eliminate, series_compare
from trispin.fock import Species, Statistics
from trispin.hubbard import (Edge, HubbardParams, LatticeGraph, build_h0,
                             build_v, hilbert_basis, make_triangle,
                             make_zigzag, projector_single_occupancy)
from trispin.perturb import h_eff_second, h_eff_third, partition

U = 1.0
PAIR = LatticeGraph(2, (Edge(0, 0, 1),), "pair")


def _setup(graph, statistics, j_up, j_dn, **u_kwargs):
    n_links = len(graph.edges)
    params = HubbardParams.uniform(statistics, n_links, j_up, j_dn, **u_kwargs)
    basis = hilbert_basis(graph, params)
    h0 = build_h0(basis, params)
    v = build_v(basis, graph, params)
    m = projector_single_occupancy(basis)
    return h0, v, m


def test_block_dimensions():
    h0, v, m = _setup(make_triangle(), Statistics.BOSON, 0.05, 0.03,
                      u_updn=U, u_upup=U, u_dndn=U)
    result = adiabatic_eliminate(h0, v, m)
    assert result.dims == (56, 48, 8)


def test_zero_coupling_gives_zero():
    h0, v, m = _setup(make_triangle(), Statistics.BOSON, 0.0, 0.0,
                      u_updn=U, u_upup=U, u_dndn=U)
    result = adiabatic_eliminate(h0, v, m)
    assert np.abs(result.h_eff.matrix).max() == 0.0


def test_pair_fermion_exact_block():
    j = 0.1
    h0, v, m = _setup(PAIR, Statistics.FERMION, j, j, u_updn=U)
    result = adiabatic_eliminate(h0, v, m)
    block = result.h_eff.matrix[1:3, 1:3].real
    # fast block is diagonal here, so the elimination terminates at
    # second order exactly
    assert np.allclose(block, np.array([[-2, 2], [2, -2]]) * j * j / U,
                       atol=1e-15)


def test_condition_limit_guard(monkeypatch):
    h0, v, m = _setup(make_triangle(), Statistics.BOSON, 0.05, 0.03,
                      u_updn=U, u_upup=U, u_dndn=U)
    monkeypatch.setattr(adiabatic, "COND_LIMIT", 1.0)
    with pytest.raises(ValueError, match="fast block"):
        adiabatic_eliminate(h0, v, m)


def _random_draw(graph, statistics, rng):
    tun = {(e.link, s): complex(rng.uniform(0.02, 0.3))
           for e in graph.edges for s in Species}
    u_same = {} if statistics is Statistics.FERMION else {
        "u_upup": rng.uniform(0.5, 1.5), "u_dndn": rng.uniform(0.5, 1.5)}
    params = HubbardParams(statistics, u_updn=rng.uniform(0.5, 1.5),
                           tunneling=tun, **u_same)
    basis = hilbert_basis(graph, params)
    return (build_h0(basis, params), build_v(basis, graph, params),
            projector_single_occupancy(basis))


@pytest.mark.parametrize("n_sites, statistics", [
    (3, Statistics.BOSON), (3, Statistics.FERMION), (4, Statistics.BOSON),
    (4, Statistics.FERMION), (5, Statistics.FERMION)])
def test_condition_number_estimates_one_norm_condition(n_sites, statistics):
    # triangle and zig-zag chains; bosonic n = 5 (dim 2002) is too slow
    graph = make_triangle() if n_sites == 3 else make_zigzag(n_sites)
    rng = np.random.default_rng(7 + n_sites)
    for _ in range(3):
        h0, v, m = _random_draw(graph, statistics, rng)
        f = np.setdiff1d(np.arange(h0.dim), m)
        hff = (h0.mat + v.mat).toarray()[np.ix_(f, f)]
        kappa1 = np.linalg.cond(hff, 1)
        cond = adiabatic_eliminate(h0, v, m).condition_number
        assert kappa1 / 3 <= cond <= kappa1 * (1 + 1e-12)


def test_singular_fast_block_rejected():
    # no tunneling and no cross-species collision energy: every up-down
    # double occupancy is a zero row of H_FF
    h0, v, m = _setup(make_triangle(), Statistics.BOSON, 0.0, 0.0,
                      u_updn=0.0, u_upup=U, u_dndn=U)
    with pytest.raises(ValueError, match="fast block"):
        adiabatic_eliminate(h0, v, m)


def test_truncated_series_matches_engine_exactly():
    for statistics in Statistics:
        h0, v, m = _setup(
            make_triangle(), statistics, 0.06, 0.03, u_updn=U,
            u_upup=None if statistics is Statistics.FERMION else 1.2,
            u_dndn=None if statistics is Statistics.FERMION else 0.9)
        engine2 = h_eff_second(h0, v, m).matrix
        engine3 = engine2 + h_eff_third(h0, v, m).matrix
        p = partition(h0, v, m)
        assert np.abs(_neumann(p, 2).matrix - engine2).max() <= 1e-12
        assert np.abs(_neumann(p, 3).matrix - engine3).max() <= 1e-12


def test_series_compare_reports():
    h0, v, m = _setup(make_triangle(), Statistics.BOSON, 0.05, 0.025,
                      u_updn=U, u_upup=U, u_dndn=U)
    report = series_compare(h0, v, m)
    assert report["series_vs_engine"] <= 1e-12
    assert report["adiabatic_vs_engine"] > 0
    assert report["condition_number"] < 1e3


def test_non_convergent_regime_rejected():
    h0, v, m = _setup(make_triangle(), Statistics.BOSON, 0.45, 0.45,
                      u_updn=U, u_upup=U, u_dndn=U)
    with pytest.raises(ValueError, match="does not converge"):
        series_compare(h0, v, m)


def test_residual_scales_as_fourth_order():
    # halving J: the left-over (adiabatic - engine) tail drops ~16x
    residuals = []
    for j in (0.05, 0.025):
        h0, v, m = _setup(make_triangle(), Statistics.BOSON, j, 0.5 * j,
                          u_updn=U, u_upup=U, u_dndn=U)
        exact = adiabatic_eliminate(h0, v, m).h_eff.matrix
        engine = (h_eff_second(h0, v, m).matrix
                  + h_eff_third(h0, v, m).matrix)
        residuals.append(np.linalg.norm(exact - engine, 2))
    assert residuals[0] / residuals[1] >= 12.0


def test_pair_residual_equals_geometric_tail():
    # with a diagonal fast block the series can be resummed by hand:
    # the exact exchange block is the second-order one with U replaced
    # by the dressed denominator, so adiabatic == order-2 here
    j = 0.02
    h0, v, m = _setup(PAIR, Statistics.FERMION, j, j, u_updn=U)
    exact = adiabatic_eliminate(h0, v, m).h_eff.matrix
    engine = h_eff_second(h0, v, m).matrix + h_eff_third(h0, v, m).matrix
    assert np.abs(exact - engine).max() <= 1e-15


def test_hermiticity_and_spin_conservation():
    h0, v, m = _setup(make_triangle(), Statistics.BOSON, 0.05, 0.03,
                      u_updn=U, u_upup=1.1, u_dndn=0.9)
    result = adiabatic_eliminate(h0, v, m)
    h = result.h_eff.matrix
    assert np.abs(h - h.conj().T).max() <= 1e-12
    from trispin import pauli
    sz = sum(pauli.string_matrix("".join("Z" if k == i else "I"
                                         for k in range(3)))
             for i in range(3))
    assert np.abs(h @ sz - sz @ h).max() <= 1e-12
