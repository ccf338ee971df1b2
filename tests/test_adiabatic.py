import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from trispin import adiabatic
from trispin.adiabatic import (_neumann, adiabatic_eliminate, eliminate,
                               series_compare)
from trispin.fock import Species, Statistics
from trispin.hubbard import (Edge, HubbardParams, LatticeGraph, build_h0,
                             build_v, hilbert_basis, make_triangle,
                             make_zigzag, projector_single_occupancy)
from trispin.perturb import (h_eff_second, h_eff_third, partition,
                             spectral_norm)

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


def _random_draw(graph, statistics, rng, complex_tunneling=False):
    tun = {(e.link, s): complex(rng.uniform(0.02, 0.3))
           for e in graph.edges for s in Species}
    if complex_tunneling:
        # a phase per (link, species): flux through the triangles
        tun = {key: j * np.exp(1j * rng.uniform(0, 2 * np.pi))
               for key, j in tun.items()}
    u_same = {} if statistics is Statistics.FERMION else {
        "u_upup": rng.uniform(0.5, 1.5), "u_dndn": rng.uniform(0.5, 1.5)}
    params = HubbardParams(statistics, u_updn=rng.uniform(0.5, 1.5),
                           tunneling=tun, **u_same)
    basis = hilbert_basis(graph, params)
    return (build_h0(basis, params), build_v(basis, graph, params),
            projector_single_occupancy(basis))


@pytest.mark.parametrize("n_sites, statistics, complex_tunneling", [
    pytest.param(n, statistics, False, id=f"{n}-{statistics}")
    for n, statistics in [(3, Statistics.BOSON), (3, Statistics.FERMION),
                          (4, Statistics.BOSON), (4, Statistics.FERMION),
                          (5, Statistics.FERMION)]] + [
    pytest.param(n, statistics, True, id=f"{n}-{statistics}-complex")
    for n, statistics in [(3, Statistics.BOSON), (3, Statistics.FERMION),
                          (4, Statistics.FERMION)]])
def test_condition_number_estimates_one_norm_condition(n_sites, statistics,
                                                       complex_tunneling):
    # triangle and zig-zag chains; bosonic n = 5 (dim 2002) is too slow
    graph = make_triangle() if n_sites == 3 else make_zigzag(n_sites)
    rng = np.random.default_rng(7 + n_sites)
    for _ in range(3):
        h0, v, m = _random_draw(graph, statistics, rng, complex_tunneling)
        f = np.setdiff1d(np.arange(h0.dim), m)
        hff = (h0.mat + v.mat).toarray()[np.ix_(f, f)]
        assert (np.abs(hff.imag).max() > 0) == complex_tunneling
        kappa1 = np.linalg.cond(hff, 1)
        cond = adiabatic_eliminate(h0, v, m).condition_number
        assert kappa1 / 3 <= cond <= kappa1 * (1 + 1e-12)


def test_spectral_norm_is_scipy_norm_and_rejects_nan():
    rng = np.random.default_rng(2)
    for shape in ((8, 8), (5, 3), (1, 1), (0, 0)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert spectral_norm(a) == la.norm(a, 2)
    bad = np.eye(3)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        spectral_norm(bad)
    with pytest.raises(ValueError):
        spectral_norm(np.diag([1.0, np.inf]))


def test_singular_fast_block_rejected():
    # no tunneling and no cross-species collision energy: every up-down
    # double occupancy is a zero row of H_FF, an exact zero pivot of
    # LAPACK's LU
    h0, v, m = _setup(make_triangle(), Statistics.BOSON, 0.0, 0.0,
                      u_updn=0.0, u_upup=U, u_dndn=U)
    p = partition(h0, v)
    blocks = [adiabatic._scatter(p, *component)[0]
              + np.diag(p.ef[component[0]])
              for component in p.split.components]
    assert any(not np.abs(block).sum(axis=1).all() for block in blocks)
    with pytest.raises(ValueError, match="fast block not invertible"):
        adiabatic_eliminate(h0, v, m)


def test_truncated_series_matches_engine_exactly():
    for statistics in Statistics:
        h0, v, m = _setup(
            make_triangle(), statistics, 0.06, 0.03, u_updn=U,
            u_upup=None if statistics is Statistics.FERMION else 1.2,
            u_dndn=None if statistics is Statistics.FERMION else 0.9)
        engine2 = h_eff_second(h0, v, m).matrix
        engine3 = engine2 + h_eff_third(h0, v, m).matrix
        p = partition(h0, v)
        assert np.abs(_neumann(p, 2).matrix - engine2).max() <= 1e-12
        assert np.abs(_neumann(p, 3).matrix - engine3).max() <= 1e-12


def test_series_compare_reports():
    h0, v, _ = _setup(make_triangle(), Statistics.BOSON, 0.05, 0.025,
                      u_updn=U, u_upup=U, u_dndn=U)
    report = series_compare(h0, v)
    assert report["series_vs_engine"] <= 1e-12
    assert report["adiabatic_vs_engine"] > 0
    assert report["condition_number"] < 1e3


def test_non_convergent_regime_rejected():
    h0, v, _ = _setup(make_triangle(), Statistics.BOSON, 0.45, 0.45,
                      u_updn=U, u_upup=U, u_dndn=U)
    with pytest.raises(ValueError, match="does not converge"):
        series_compare(h0, v)


def test_series_check_reads_every_block():
    # bosonic triangle, every U = 1: V_FF's blocks have 2-norms 0.437,
    # 0.670, 0.882 and 1.093 in label order against min|E_F| = 1, so
    # only the last one stops the series from converging
    h0, v, m = _setup(make_triangle(), Statistics.BOSON, 0.1, 0.25,
                      u_updn=U, u_upup=U, u_dndn=U)
    p = partition(h0, v)
    assert np.array_equal(p.f, np.setdiff1d(np.arange(h0.dim), m))
    vff = v.mat.toarray()[np.ix_(p.f, p.f)]
    norms = [la.norm(vff[np.ix_(states, states)], 2)
             for states, *_ in p.split.components]
    assert np.allclose(norms, [0.437, 0.670, 0.882, 1.093], atol=5e-4)
    assert np.abs(p.ef).min() == U
    whole = la.norm(vff, 2)
    with pytest.raises(ValueError, match=rf"\|V_FF\| = {whole:.3g} >= 1\)"):
        series_compare(h0, v)
    assert f"{whole:.3g}" == "1.09"


def test_series_compare_runs_up_to_the_six_site_chain():
    # fermionic n = 6 (F = 860, complex) and bosonic n = 5 (F = 1,970,
    # real), the largest fast block a test compares
    for n_sites, statistics, j_dn, u_same, dims in (
            (6, Statistics.FERMION, 0.03j, {}, (924, 860, 64)),
            (5, Statistics.BOSON, 0.03, {"u_upup": 1.1, "u_dndn": 1.2},
             (2002, 1970, 32))):
        h0, v, _ = _setup(make_zigzag(n_sites), statistics, 0.04, j_dn,
                          u_updn=U, **u_same)
        report = series_compare(h0, v)
        assert report["dims"] == dims
        assert report["series_vs_engine"] <= 1e-15


def _traced_peak(call, match):
    """Peak of ``tracemalloc`` over ``call()``, which must raise
    ``ValueError`` matching ``match``."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _dense_block_bytes(p):
    """Bytes of H_FF's dense blocks, one per component of V's pattern,
    counted from the component labels."""
    sizes = np.unique(p.split.labels[len(p.m):], return_counts=True)[1]
    return int((sizes ** 2).sum()) * p.vals.itemsize


def test_oversized_series_compare_refused_before_densifying():
    # fermionic zig-zag chain of eight sites: the dense complex V_FF
    # would take 16 * 12614^2 B = 2.5 GB, and the elimination's dense
    # blocks, one per component, 331 MiB real; the series check is
    # refused by the elimination's own limit
    h0, v, _ = _setup(make_zigzag(8), Statistics.FERMION, 0.04, 0.03,
                      u_updn=U)
    dense = 16 * 12614 ** 2
    assert dense > adiabatic.DENSE_MAX_BYTES
    peak = _traced_peak(lambda: series_compare(h0, v),
                        "too large for the elimination")
    assert peak < dense / 100
    # both routes are refused by the dense blocks: 331 MiB real here,
    # 218 MiB on the bosonic chain of six sites.  The split's structure
    # is built once per plan and is not dense, so it is built before
    # the trace.
    bosonic = _setup(make_zigzag(6), Statistics.BOSON, 0.04, 0.03,
                     u_updn=U, u_upup=1.1, u_dndn=1.2)
    for h0, v, _ in ((h0, v, None), bosonic):
        p = partition(h0, v)
        p.split.components
        dense = _dense_block_bytes(p)
        assert dense > adiabatic.DENSE_MAX_BYTES
        message = (f"too large for the elimination: its dense blocks "
                   f"would take {dense / 2 ** 20:.0f} MiB, limit 64 MiB")
        for call in (lambda: eliminate(p), lambda: series_compare(h0, v)):
            assert _traced_peak(call, message) < dense / 100


def test_cold_elimination_refused_before_building_its_components():
    # on a new plan the refusal reads the block sizes from the component
    # labels alone, so the refused split never builds Split.components
    from trispin import hubbard
    hubbard._shared_basis.cache_clear()
    h0, v, _ = _setup(make_zigzag(8), Statistics.FERMION, 0.04, 0.03,
                      u_updn=U)
    p = partition(h0, v)
    assert "labels" not in vars(p.split)
    peak = _traced_peak(lambda: eliminate(p), "too large for the elimination")
    assert "components" not in vars(p.split)
    dense = _dense_block_bytes(p)
    assert dense > adiabatic.DENSE_MAX_BYTES
    assert peak < 0.03 * dense


def test_elimination_admits_dense_blocks_up_to_the_limit(monkeypatch):
    h0, v, _ = _setup(make_triangle(), Statistics.BOSON, 0.05, 0.03,
                      u_updn=U, u_upup=1.1, u_dndn=0.9)
    p = partition(h0, v)
    dense = _dense_block_bytes(p)
    assert dense < len(p.f) ** 2 * p.vals.itemsize
    monkeypatch.setattr(adiabatic, "DENSE_MAX_BYTES", dense)
    assert eliminate(p).dims == (56, 48, 8)
    assert series_compare(h0, v)["dims"] == (56, 48, 8)
    monkeypatch.setattr(adiabatic, "DENSE_MAX_BYTES", dense - 1)
    for call in (lambda: eliminate(p), lambda: series_compare(h0, v)):
        with pytest.raises(ValueError, match="too large for the elimination"):
            call()


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
