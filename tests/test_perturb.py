import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from trispin import pauli
from trispin.adiabatic import adiabatic_eliminate
from trispin.fock import Basis, Species, Statistics
from trispin.hubbard import (Edge, HubbardParams, LatticeGraph,
                             SparseOperator, build_h0, build_v, derive,
                             hilbert_basis, make_triangle, make_zigzag,
                             projector_single_occupancy)
from trispin.perturb import (DegenerateIntermediateError, h_eff_second,
                             h_eff_third, partition, pauli_decompose,
                             spin_map)

import fock_reference
from engine_reference import h_eff_up_to_third
from evolution_reference import validate_by_evolution

U = 1.0
PAIR = LatticeGraph(2, (Edge(0, 0, 1),), "pair")


def _pair_setup(j, statistics=Statistics.FERMION):
    params = HubbardParams.uniform(
        statistics, 1, j, j, u_updn=U,
        u_upup=None if statistics is Statistics.FERMION else U,
        u_dndn=None if statistics is Statistics.FERMION else U)
    basis = hilbert_basis(PAIR, params)
    h0 = build_h0(basis, params)
    v = build_v(basis, PAIR, params)
    m = projector_single_occupancy(basis)
    return basis, h0, v, m


def _triangle_params(j_up, j_dn, statistics, u_upup=U, u_dndn=U, u_updn=U):
    if statistics is Statistics.FERMION:
        return HubbardParams.uniform(statistics, 3, j_up, j_dn,
                                     u_updn=u_updn)
    return HubbardParams.uniform(statistics, 3, j_up, j_dn, u_updn=u_updn,
                                 u_upup=u_upup, u_dndn=u_dndn)


def _triangle_setup(j_up, j_dn, statistics, u_upup=U, u_dndn=U, u_updn=U):
    tri = make_triangle()
    params = _triangle_params(j_up, j_dn, statistics, u_upup, u_dndn, u_updn)
    basis = hilbert_basis(tri, params)
    h0 = build_h0(basis, params)
    v = build_v(basis, tri, params)
    m = projector_single_occupancy(basis)
    return basis, h0, v, m


def test_spin_map_labels():
    basis, h0, v, m = _triangle_setup(0.1, 0.1, Statistics.BOSON)
    smap = spin_map(basis, m)
    states = fock_reference.fock_states(basis)
    all_up = states[smap[0]]
    assert all(all_up.site_occupations(i) == (1, 0) for i in range(3))
    # |up down down> sits at spin index 0b011 = 3
    state = states[smap[3]]
    assert state.site_occupations(0) == (1, 0)
    assert state.site_occupations(1) == (0, 1)
    assert state.site_occupations(2) == (0, 1)


def test_spin_map_requires_full_block():
    basis = Basis(fock_reference.sector_rows(2, Statistics.FERMION, 2, n_up=1),
                  Statistics.FERMION, 2)
    with pytest.raises(ValueError):
        spin_map(basis, np.arange(2))


def _basis_order_reference(h0, v, m):
    """Orders 2, 3 and the elimination computed on M in basis order, then
    permuted into spin order."""
    vd = v.mat.toarray()
    hd = (h0.mat + v.mat).toarray()
    f = np.setdiff1d(np.arange(h0.dim), m)
    vmf, vff, ef = vd[np.ix_(m, f)], vd[np.ix_(f, f)], h0.diagonal().real[f]
    h2 = -(vmf / ef) @ vmf.conj().T
    h3 = (vmf / ef) @ vff @ (vmf.conj().T / ef[:, None])
    hmf = hd[np.ix_(m, f)]
    exact = hd[np.ix_(m, m)] - hmf @ la.solve(hd[np.ix_(f, f)], hmf.conj().T)
    exact = 0.5 * (exact + exact.conj().T)
    position = np.empty(h0.dim, dtype=int)
    position[m] = np.arange(len(m))
    perm = position[spin_map(h0.basis, m)]
    return [block[np.ix_(perm, perm)] for block in (h2, h3, exact)]


@pytest.mark.parametrize("n, statistics", [
    (4, Statistics.FERMION), (5, Statistics.FERMION), (4, Statistics.BOSON)])
def test_partition_puts_m_in_spin_order(n, statistics):
    graph = make_zigzag(n)
    rng = np.random.default_rng(30 + n)
    tun = {(e.link, s): complex(rng.uniform(0.02, 0.05),
                                rng.uniform(-0.02, 0.02))
           for e in graph.edges for s in Species}
    u_same = {} if statistics is Statistics.FERMION else {
        "u_upup": rng.uniform(0.8, 1.4), "u_dndn": rng.uniform(0.8, 1.4)}
    params = HubbardParams(statistics, u_updn=1.0, tunneling=tun, **u_same)
    h0, v, m = derive(graph, params)
    assert np.array_equal(partition(h0, v, m).m, spin_map(h0.basis, m))
    got = (h_eff_second(h0, v, m).matrix, h_eff_third(h0, v, m).matrix,
           adiabatic_eliminate(h0, v, m).h_eff.matrix)
    for block, want in zip(got, _basis_order_reference(h0, v, m)):
        assert np.abs(block - want).max() <= 1e-13 * np.abs(want).max()


def test_pair_superexchange_matrix():
    j = 0.1
    basis, h0, v, m = _pair_setup(j)
    block = h_eff_second(h0, v, m).matrix
    scale = j * j / U
    expected = np.zeros((4, 4))
    expected[1:3, 1:3] = [[-2, 2], [2, -2]]
    assert np.allclose(block.real, expected * scale, atol=1e-15)
    assert np.abs(block.imag).max() <= 1e-15


def test_pair_decomposition_matches_exchange_couplings():
    j = 0.1
    basis, h0, v, m = _pair_setup(j)
    dec = pauli_decompose(h_eff_second(h0, v, m))
    mu1, mu2 = -j * j / U, j * j / U
    assert dec["II"].real == pytest.approx(mu1)
    assert dec["ZZ"].real == pytest.approx(-mu1)
    assert dec["XX"].real == pytest.approx(mu2)
    assert dec["YY"].real == pytest.approx(mu2)


def test_zero_coupling_gives_zero():
    basis, h0, v, m = _triangle_setup(0.0, 0.0, Statistics.BOSON)
    assert np.abs(h_eff_second(h0, v, m).matrix).max() == 0.0
    assert np.abs(h_eff_third(h0, v, m).matrix).max() == 0.0


def test_second_order_diagonal_against_enumeration_oracle():
    # independent oracle: -sum_g |<g|V|a>|^2 / E_g by raw linear algebra
    basis, h0, v, m = _triangle_setup(0.11, 0.0, Statistics.BOSON)
    smap = spin_map(basis, m)
    vd = v.mat.toarray()
    energies = h0.diagonal().real
    f = np.setdiff1d(np.arange(len(basis)), m)
    pos = smap[0]                       # |up up up>
    amps = vd[f, pos]
    oracle = -np.sum(np.abs(amps) ** 2 / energies[f])
    engine = h_eff_second(h0, v, m).matrix[0, 0].real
    assert engine == pytest.approx(oracle, abs=1e-15)
    assert engine == pytest.approx(-12 * 0.11 ** 2 / U)


def test_third_order_fermionic_three_spin_strings():
    j = 0.07
    basis, h0, v, m = _triangle_setup(j, 0.0, Statistics.FERMION)
    dec = pauli_decompose(h_eff_third(h0, v, m))
    want = j ** 3 / (2 * U * U)
    for site in range(3):
        string = "".join("Z" if k == site else "I" for k in range(3))
        assert dec[string].real == pytest.approx(want, abs=1e-15)
    assert dec["ZZZ"].real == pytest.approx(-3 * want, abs=1e-15)


def test_third_order_bosonic_triple_product_string():
    j = 0.07
    basis, h0, v, m = _triangle_setup(j, 0.0, Statistics.BOSON)
    dec = pauli_decompose(h_eff_third(h0, v, m))
    # single-species value fixed by the closed forms (engine-certified)
    assert dec["ZZZ"].real == pytest.approx(-1.5 * j ** 3 / U ** 2, abs=1e-15)


def test_degenerate_intermediate_guard():
    basis, h0, v, m = _pair_setup(0.1, Statistics.BOSON)
    params = HubbardParams.uniform(Statistics.BOSON, 1, 0.1, 0.1,
                                   u_updn=0.0, u_upup=U, u_dndn=U)
    bad_h0 = build_h0(basis, params)
    with pytest.raises(DegenerateIntermediateError):
        h_eff_second(bad_h0, v, m)


def test_pauli_decompose_basics():
    dec = pauli_decompose(np.eye(8, dtype=complex))
    assert dec["III"] == pytest.approx(1.0)
    assert all(abs(c) <= 1e-15 for s, c in dec.coeffs.items() if s != "III")
    zz = pauli.string_matrix("ZZ")
    dec = pauli_decompose(zz)
    assert dec["ZZ"] == pytest.approx(1.0)


def test_pauli_reconstruction_and_reality():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = a + a.conj().T
    dec = pauli_decompose(h)
    assert np.abs(pauli.pauli_sum(dec.coeffs, dec.n_sites) - h).max() <= 1e-12
    assert max(abs(c.imag) for c in dec.coeffs.values()) <= 1e-12


def _reference_decompose(matrix):
    """The per-string trace loop that the transform replaced."""
    n = int(round(np.log2(matrix.shape[0])))
    return {s: pauli.string_trace_with(s, matrix) / 2 ** n
            for s in pauli.all_strings(n)}


@pytest.mark.parametrize("n", range(1, 6))
def test_pauli_decompose_matches_per_string_traces(n):
    rng = np.random.default_rng(100 + n)
    dim = 2 ** n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    dec = pauli_decompose(m)
    reference = _reference_decompose(m)
    assert list(dec.coeffs) == list(reference)
    tol = 1e-13 * max(1.0, np.linalg.norm(m, 2))
    assert max(abs(dec.coeffs[s] - c) for s, c in reference.items()) <= tol


@pytest.mark.parametrize("n", range(1, 5))
def test_pauli_reconstruction_and_parseval(n):
    rng = np.random.default_rng(200 + n)
    dim = 2 ** n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    dec = pauli_decompose(m)
    assert (np.abs(pauli.pauli_sum(dec.coeffs, dec.n_sites) - m).max()
            <= 1e-13 * np.abs(m).max())
    power = dim * sum(abs(c) ** 2 for c in dec.coeffs.values())
    assert power == pytest.approx(np.linalg.norm(m, "fro") ** 2, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 7))
def test_pauli_sum_matches_kron_products(n):
    rng = np.random.default_rng(300 + n)
    strings = list(pauli.all_strings(n))
    terms = [(s, complex(rng.normal(), rng.normal()))
             for s in rng.choice(strings, min(len(strings), 40),
                                 replace=False)]
    # embedded patterns that land on one string more than once
    terms += [(pauli.embed("Y", (site,), n), 0.3 + 0.1j)
              for site in range(n)] * 2
    if n > 1:
        terms += [(pauli.embed("XY", (0, n - 1), n), 0.5 - 0.25j),
                  (pauli.embed("YX", (n - 1, 0), n), -0.5j)]
    coeffs = {}
    for string, c in terms:
        coeffs[string] = coeffs.get(string, 0.0) + c
    reference = sum(c * pauli.string_matrix(s) for s, c in terms)
    tol = 1e-14 * sum(abs(c) for c in coeffs.values())
    assert np.abs(pauli.pauli_sum(coeffs, n) - reference).max() <= tol
    assert np.array_equal(pauli.pauli_sum({}, n),
                          np.zeros((2 ** n, 2 ** n)))


def test_hermiticity_of_orders():
    basis, h0, v, m = _triangle_setup(0.09, 0.05, Statistics.BOSON,
                                      u_upup=1.2, u_dndn=0.8)
    for heff in (h_eff_second(h0, v, m), h_eff_third(h0, v, m)):
        assert np.abs(heff.matrix - heff.matrix.conj().T).max() <= 1e-12


def test_total_z_spin_conserved_for_real_couplings():
    basis, h0, v, m = _triangle_setup(0.09, 0.05, Statistics.BOSON,
                                      u_upup=1.2, u_dndn=0.8)
    h = h_eff_up_to_third(h0, v, m).matrix
    sz = sum(pauli.string_matrix("".join("Z" if k == i else "I"
                                         for k in range(3)))
             for i in range(3))
    assert np.abs(h @ sz - sz @ h).max() <= 1e-12


def test_xy_plane_rotation_symmetry_for_real_couplings():
    basis, h0, v, m = _triangle_setup(0.09, 0.05, Statistics.BOSON,
                                      u_upup=1.2, u_dndn=0.8)
    dec = pauli_decompose(h_eff_up_to_third(h0, v, m))
    for j in range(3):
        xx = pauli.embed("XX", (j, (j + 1) % 3), 3)
        yy = pauli.embed("YY", (j, (j + 1) % 3), 3)
        xy = pauli.embed("XY", (j, (j + 1) % 3), 3)
        yx = pauli.embed("YX", (j, (j + 1) % 3), 3)
        assert abs(dec[xx] - dec[yy]) <= 1e-12
        assert abs(dec[xy]) <= 1e-12 and abs(dec[yx]) <= 1e-12


def test_three_spin_parity_antisymmetry():
    _, h0a, va, ma = _triangle_setup(0.09, 0.04, Statistics.BOSON)
    _, h0b, vb, mb = _triangle_setup(0.04, 0.09, Statistics.BOSON)
    za = pauli_decompose(h_eff_third(h0a, va, ma))["ZZZ"]
    zb = pauli_decompose(h_eff_third(h0b, vb, mb))["ZZZ"]
    assert abs(za + zb) <= 1e-12


def test_order_scaling_power_laws():
    _, h0a, va, ma = _triangle_setup(0.08, 0.05, Statistics.BOSON)
    _, h0b, vb, mb = _triangle_setup(0.04, 0.025, Statistics.BOSON)
    n2a = np.linalg.norm(h_eff_second(h0a, va, ma).matrix, 2)
    n2b = np.linalg.norm(h_eff_second(h0b, vb, mb).matrix, 2)
    n3a = np.linalg.norm(h_eff_third(h0a, va, ma).matrix, 2)
    n3b = np.linalg.norm(h_eff_third(h0b, vb, mb).matrix, 2)
    assert n2a / n2b == pytest.approx(4.0, rel=1e-10)
    assert n3a / n3b == pytest.approx(8.0, rel=1e-10)


def _per_state_v(basis, graph, params, mode_order):
    """V summed move by move with the reference hop in the given mode
    order."""
    states = fock_reference.fock_states(basis)
    index = {state.occ: k for k, state in enumerate(states)}
    vd = np.zeros((len(states), len(states)), dtype=complex)
    for edge in graph.edges:
        for species in Species:
            j = params.j(edge.link, species)
            # the move edge.to -> edge.frm with -J, the reverse with -J*
            for src, dst, amp in ((edge.to, edge.frm, -j),
                                  (edge.frm, edge.to, -j.conjugate())):
                for col, state in enumerate(states):
                    moved = fock_reference.hop(state, src, dst, species,
                                               mode_order)
                    if moved is not None and moved[0].occ in index:
                        vd[index[moved[0].occ], col] += amp * moved[1]
    return SparseOperator(sp.csr_matrix(vd), basis)


def test_mode_order_convention_independence():
    """The effective model from build_v equals the one from V summed
    state by state in either fermionic mode order."""
    for statistics in Statistics:
        basis, h0, v, m = _triangle_setup(0.08, 0.05, statistics)
        params = _triangle_params(0.08, 0.05, statistics)
        want = pauli_decompose(h_eff_up_to_third(h0, v, m))
        for mode_order in ("standard", "reversed"):
            ref = _per_state_v(basis, make_triangle(), params, mode_order)
            got = pauli_decompose(h_eff_up_to_third(h0, ref, m))
            strings = set(want.coeffs) | set(got.coeffs)
            worst = max(abs(want[s] - got[s]) for s in strings)
            assert worst <= 1e-12


def test_evolution_validation_zero_coupling():
    basis, h0, v, m = _triangle_setup(0.0, 0.0, Statistics.BOSON)
    heff = h_eff_up_to_third(h0, v, m)
    assert validate_by_evolution(h0, v, m, heff, t=50.0) <= 1e-14


def test_evolution_validation_fourth_order_scaling():
    # halving the tunneling in the asymptotic window shrinks the
    # residual by at least 12x (16x is the clean fourth-order factor)
    residuals = []
    for j in (0.02, 0.01):
        basis, h0, v, m = _triangle_setup(j, 0.6 * j, Statistics.BOSON)
        heff = h_eff_up_to_third(h0, v, m)
        residuals.append(validate_by_evolution(h0, v, m, heff, t=50.0 / U))
    assert residuals[0] / residuals[1] >= 12.0


def test_evolution_validation_frozen_bound():
    # regression constant frozen from the measured J/U = 0.02 point
    j = 0.02
    basis, h0, v, m = _triangle_setup(j, 0.6 * j, Statistics.BOSON)
    heff = h_eff_up_to_third(h0, v, m)
    residual = validate_by_evolution(h0, v, m, heff, t=50.0)
    assert residual <= 3000 * j ** 4 * 50.0


def test_src_imports_no_test_code():
    """The package runs on the occupation arrays alone: no module of
    ``src/trispin`` imports the per-state test oracle or anything under
    ``tests``."""
    package = Path(pauli.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    for source in sources:
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                assert "fock_reference" not in parts and parts[0] != "tests", \
                    f"{source.name} imports {name}"


# public names that stay in src although no other module reaches them yet
UNREFERENCED_PUBLIC = {
    # the paper's two-dimensional triangular lattice, which the planned
    # linked-cluster assembly and chiral patches (ROADMAP items 5, 9) use
    "make_triangular_patch",
}


def _references(tree, strings):
    """Names, attributes, imported names and (if ``strings``) string
    constants in each top-level statement of a module."""
    for statement in tree.body:
        found = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                found.add(node.value)
        yield statement, found


def test_src_defines_no_unreferenced_public_code():
    """Every public top-level function or class of ``src/trispin`` is
    reached from outside its own definition by another part of the
    package or by the benchmark (whose tracer names its targets as
    strings); code that only tests call lives under ``tests``."""
    package = Path(pauli.__file__).parent
    sources = [s for s in sorted(package.glob("*.py"))
               if s.name != "__init__.py"]
    bench = sorted((package.parents[1] / "perfbench").glob("*.py"))
    assert len(sources) > 5 and bench
    defined, referenced = {}, set()
    for source in sources + bench:
        tree = ast.parse(source.read_text(), filename=str(source))
        for statement, found in _references(tree, source in bench):
            if (source in sources
                    and isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                    and not statement.name.startswith("_")):
                defined[statement.name] = source.stem
                found = found - {statement.name}
            referenced |= found
    unreferenced = set(defined) - referenced
    assert unreferenced == UNREFERENCED_PUBLIC, sorted(
        f"{defined[name]}.{name}" for name in unreferenced)
