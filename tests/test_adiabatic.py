import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from trispin import adiabatic
from trispin.adiabatic import (_factor_hff, _inverse_one_norm,
                               _neumann, adiabatic_eliminate, eliminate,
                               series_compare)
from trispin.fock import Species, Statistics
from trispin.hubbard import (Edge, HubbardParams, LatticeGraph, build_h0,
                             build_v, hilbert_basis, make_triangle,
                             make_zigzag, projector_single_occupancy)
from trispin.perturb import (h_eff_second, h_eff_third, partition,
                             spectral_norm)
from trispin.raman import SU2Rotation, rotate_tunneling

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


# The 1-norm estimate runs Hager's iteration on the LU factors directly;
# it must give the bits of scipy's onenormest(t=1) on the same factors.

def _onenormest(lu, n, dtype):
    adjoint = partial(lu.solve, trans="H")
    inverse = spla.LinearOperator(
        (n, n), matvec=lu.solve, rmatvec=adjoint, matmat=lu.solve,
        rmatmat=adjoint, dtype=dtype)
    return spla.onenormest(inverse, t=1)


def _dense_hff(p):
    """H_FF = V_FF + diag(E_F) of a partition, dense."""
    return p.vff + np.diag(p.ef)


def _derivation_partitions():
    """Partitions of the derivations in use: triangles of both
    statistics, with real and with complex tunneling, a Raman-rotated
    V, and zig-zag chains of four to six sites."""
    kw = {Statistics.BOSON: {"u_upup": 1.1, "u_dndn": 0.9},
          Statistics.FERMION: {}}
    for statistics in Statistics:
        for j_up, j_dn in ((0.05, 0.03), (0.05j, 0.03j)):
            h0, v, _ = _setup(make_triangle(), statistics, j_up, j_dn,
                              u_updn=U, **kw[statistics])
            yield partition(h0, v)
    h0, v, _ = _setup(make_triangle(), Statistics.BOSON, 0.05, 0.02,
                      u_updn=U, u_upup=U, u_dndn=U)
    yield partition(h0, rotate_tunneling(v, SU2Rotation(0.4, 0.9)))
    for n in (4, 5, 6):
        h0, v, _ = _setup(make_zigzag(n), Statistics.FERMION, 0.04, 0.03,
                          u_updn=U)
        yield partition(h0, v)
    h0, v, _ = _setup(make_zigzag(4), Statistics.BOSON, 0.04, 0.03,
                      u_updn=U, u_upup=1.1, u_dndn=1.2)
    yield partition(h0, v)


def test_inverse_one_norm_is_onenormest_on_derivation_blocks():
    dtypes = set()
    for p in _derivation_partitions():
        lu, cond = _factor_hff(p)
        assert len(lu.parts) == len(p.split.components)
        hff = _dense_hff(p)
        n = hff.shape[0]
        want = _onenormest(lu, n, hff.dtype)
        assert _inverse_one_norm(lu, n).hex() == float(want).hex()
        norm = np.abs(hff).sum(axis=0).max()
        assert cond == pytest.approx(norm * want, rel=1e-15)
        dtypes.add(hff.dtype)
    assert dtypes == {np.dtype(float), np.dtype(complex)}


def test_component_factors_solve_with_each_transpose():
    # a complex fast block made non-Hermitian by one raised entry of
    # V_FF: the factors solve A x = b, A^T x = b and A^H x = b
    h0, v, _ = _setup(make_triangle(), Statistics.FERMION, 0.05j, 0.03,
                      u_updn=U)
    p = partition(h0, v)
    vals = p.vals.copy()
    vals[p.split.ff[0]] += 0.01
    p = dataclasses.replace(p, vals=vals)
    a = _dense_hff(p)
    assert np.abs(a - a.conj().T).max() > 0
    rhs = np.random.default_rng(3).standard_normal((a.shape[0], 2))
    lu, _ = _factor_hff(p)
    for trans, op in (("N", a), ("T", a.T), ("H", a.conj().T)):
        for b in (rhs, rhs[:, 0]):
            assert np.allclose(op @ lu.solve(b, trans=trans), b,
                               rtol=0, atol=1e-12)


class _Solves:
    """LU factors that record each solve: (trans, result)."""

    def __init__(self, lu):
        self.lu, self.calls = lu, []

    def solve(self, rhs, trans="N"):
        out = self.lu.solve(rhs, trans=trans)
        self.calls.append((trans, out))
        return out


def _exit_of(calls):
    """Which test of the iteration ended it, read off its solves."""
    if calls[-1][0] == "H":
        return "largest entry of h at the current index"
    sums = [np.abs(y).sum() for trans, y in calls if trans == "N"]
    if len(sums) >= 2 and sums[-1] <= sums[-2]:
        return "estimate not increasing"
    if len(sums) == adiabatic.ONENORMEST_ITMAX + 1:
        return "more than itmax iterations"
    return "parallel sign vectors"


# found by search: Hager's iteration rarely runs into its iteration limit
ITMAX_MATRIX = [[8, -3, 6, 2, -4, 1, 0, -2], [-3, 3, -2, -1, 1, 0, 0, -4],
                [-4, -4, 2, 3, -3, 0, 2, -2], [-1, -4, -2, 10, 6, 6, 4, -4],
                [-3, 0, 0, 0, 7, 4, 1, 1], [5, -3, -1, -3, 6, 9, -3, -2],
                [-4, -1, -3, -3, -1, -1, 6, 4], [3, 3, -2, -5, 3, 6, 2, 3]]


def _random_matrices():
    rng = np.random.default_rng(11)
    yield np.array(ITMAX_MATRIX, dtype=float)
    yield np.array([[-2.0, 2.0], [3.0, -1.0]])
    yield np.array([[5.0]])
    yield 1j * np.array([[0.0, -3.0], [2.0, 1.0]])
    for _ in range(300):
        n = int(rng.integers(2, 12))
        a = rng.integers(-3, 4, (n, n)).astype(float)
        if rng.random() < 0.4:
            a = rng.standard_normal((n, n))
        if rng.random() < 0.3:
            a = a + 1j * rng.standard_normal((n, n))
        yield a


def test_inverse_one_norm_is_onenormest_at_every_exit():
    exits = set()
    for a in _random_matrices():
        block = sp.csc_matrix(a)
        try:
            lu = spla.splu(block, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError:
            continue
        n = a.shape[0]
        solves = _Solves(lu)
        got = _inverse_one_norm(solves, n)
        assert got.hex() == float(_onenormest(lu, n, block.dtype)).hex()
        exits.add(_exit_of(solves.calls))
    assert exits == {"largest entry of h at the current index",
                     "estimate not increasing", "more than itmax iterations",
                     "parallel sign vectors"}


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
    assert _factor_hff(p) == (None, np.inf)
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


def test_series_compare_runs_up_to_the_six_site_chain():
    # the largest fast block a test compares: F = 860, complex
    h0, v, _ = _setup(make_zigzag(6), Statistics.FERMION, 0.04, 0.03j,
                      u_updn=U)
    report = series_compare(h0, v)
    assert report["dims"] == (924, 860, 64)
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
    # would take 16 * 12614^2 B = 2.5 GB
    h0, v, _ = _setup(make_zigzag(8), Statistics.FERMION, 0.04, 0.03,
                      u_updn=U)
    dense = 16 * 12614 ** 2
    assert dense > adiabatic.DENSE_MAX_BYTES
    peak = _traced_peak(lambda: series_compare(h0, v),
                        "too large for the series")
    assert peak < dense / 100
    # the elimination's dense blocks, one per component, are refused
    # too: 331 MiB real here, 218 MiB on the bosonic chain of six sites.
    # The split's structure is built once per plan and is not dense, so
    # it is built before the trace.
    bosonic = _setup(make_zigzag(6), Statistics.BOSON, 0.04, 0.03,
                     u_updn=U, u_upup=1.1, u_dndn=1.2)
    for h0, v, _ in ((h0, v, None), bosonic):
        p = partition(h0, v)
        p.split.components
        dense = _dense_block_bytes(p)
        assert dense > adiabatic.DENSE_MAX_BYTES
        peak = _traced_peak(lambda: eliminate(p),
                            f"too large for the elimination: its dense "
                            f"blocks would take {dense / 2 ** 20:.0f} MiB, "
                            f"limit 64 MiB")
        assert peak < dense / 100


def test_elimination_admits_dense_blocks_up_to_the_limit(monkeypatch):
    h0, v, _ = _setup(make_triangle(), Statistics.BOSON, 0.05, 0.03,
                      u_updn=U, u_upup=1.1, u_dndn=0.9)
    p = partition(h0, v)
    dense = _dense_block_bytes(p)
    assert dense < len(p.f) ** 2 * p.vals.itemsize
    monkeypatch.setattr(adiabatic, "DENSE_MAX_BYTES", dense)
    assert eliminate(p).dims == (56, 48, 8)
    monkeypatch.setattr(adiabatic, "DENSE_MAX_BYTES", dense - 1)
    with pytest.raises(ValueError, match="too large for the elimination"):
        eliminate(p)


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
