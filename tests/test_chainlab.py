import numpy as np
import pytest

from trispin import chainlab, closedform, pauli
from trispin.fock import Species, Statistics
from trispin.hubbard import (HubbardParams, build_h0, build_v, hilbert_basis,
                             make_zigzag, projector_single_occupancy)
from trispin.perturb import h_eff_up_to_third, pauli_decompose


def test_diagonalize_basics():
    report = chainlab.diagonalize(pauli.string_matrix("Z"))
    assert np.allclose(report.eigenvalues, [-1, 1])
    report = chainlab.diagonalize(-pauli.string_matrix("ZZZ"))
    assert report.clusters == [(-1.0, 4), (1.0, 4)]
    with pytest.raises(ValueError, match="Hermitian"):
        chainlab.diagonalize(np.array([[0, 1], [0, 0]], dtype=complex))


def test_chirality_spectrum_and_annihilated_states():
    chi = chainlab.chirality_operator(3)
    report = chainlab.diagonalize(chi)
    two_root_three = 2 * np.sqrt(3)
    assert [(round(v, 10), n) for v, n in report.clusters] == [
        (-round(two_root_three, 10), 2), (0.0, 4), (round(two_root_three, 10), 2)]
    aligned = np.zeros(8)
    aligned[0] = 1.0
    assert np.abs(chi @ aligned).max() <= 1e-14
    aligned[:] = 0.0
    aligned[7] = 1.0
    assert np.abs(chi @ aligned).max() <= 1e-14


def test_chirality_orientation_flip():
    chi = chainlab.chirality_operator(3, [(0, 1, 2)])
    swapped = chainlab.chirality_operator(3, [(0, 2, 1)])
    assert np.abs(chi + swapped).max() <= 1e-14


def test_chirality_time_reversal_odd():
    chi = chainlab.chirality_operator(3)
    assert np.abs(chi.conj() + chi).max() <= 1e-14


def test_chirality_ground_states_are_circulating_patterns():
    chi = chainlab.chirality_operator(3)
    evals, evecs = np.linalg.eigh(chi)
    ground = evecs[:, :2]
    omega = np.exp(2j * np.pi / 3)
    plus_half = chainlab.circulating_state((1, 2, 4), omega)      # uud, udu, duu
    minus_half = chainlab.circulating_state((6, 5, 3), omega)     # ddu, dud, udd
    for vec in (plus_half, minus_half):
        overlap = np.linalg.norm(ground.conj().T @ vec)
        assert overlap >= 1 - 1e-12
    # complex conjugation maps the lowest sector onto the highest one
    excited = evecs[:, -2:]
    for vec in (plus_half.conj(), minus_half.conj()):
        overlap = np.linalg.norm(excited.conj().T @ vec)
        assert overlap >= 1 - 1e-12


def test_zzz_chain_ground_manifold():
    h = chainlab.zzz_chain_sparse(0.0, 0.0, 6).toarray()
    report = chainlab.diagonalize(h)
    assert report.ground_energy == pytest.approx(-6.0)
    assert report.ground_degeneracy == 4
    e0, configs = chainlab.zzz_ground_space_bruteforce(6)
    assert e0 == pytest.approx(-6.0)
    assert len(configs) == 4
    # brute-force projector equals the spectral one
    evals, evecs = np.linalg.eigh(h)
    spectral = evecs[:, :4] @ evecs[:, :4].conj().T
    brute = np.zeros_like(h)
    for k in configs:
        brute[k, k] = 1.0
    assert np.abs(spectral - brute).max() <= 1e-12


def test_zzz_chain_period_three_patterns():
    _, configs = chainlab.zzz_ground_space_bruteforce(6)
    patterns = set()
    for k in configs:
        bits = tuple((k >> (5 - i)) & 1 for i in range(6))
        assert bits[3:] == bits[:3]   # period-3 repetition
        patterns.add(bits[:3])
    assert patterns == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_zzz_chain_frustrated_length():
    # the aligned state always satisfies every triple, but the three
    # period-3 patterns do not wrap when 3 does not divide n
    h = chainlab.zzz_chain_sparse(0.0, 0.0, 5).toarray()
    report = chainlab.diagonalize(h)
    assert report.ground_energy == pytest.approx(-5.0)
    assert report.ground_degeneracy == 1


def test_zzz_chain_paramagnetic_limit():
    n = 6
    h = chainlab.zzz_chain_sparse(30.0, 0.0, n).toarray()
    _, evecs = np.linalg.eigh(h)
    plus = np.full(2 ** n, 1.0 / np.sqrt(2 ** n))
    assert abs(plus @ evecs[:, 0]) ** 2 >= 0.99


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("n", [5, 6])
def test_zzz_sparse_matches_term_list(n, boundary):
    # independent construction: Pauli strings of an explicit term list,
    # with the open-boundary triples that leave the chain dropped
    bx, bz = 0.7, 0.2
    spec = closedform.SpinHamiltonianSpec(n, boundary)
    for i in range(n):
        spec.add("X", i, -bx)
        spec.add("Z", i, -bz)
        spec.add("ZZZ", i, -1.0)
    expected = closedform.build_spin_hamiltonian(spec)
    h = chainlab.zzz_chain_sparse(bx, bz, n, boundary).toarray()
    assert np.abs(h - expected).max() <= 1e-14


@pytest.mark.parametrize("build", [
    lambda boundary: chainlab.zzz_diagonal(6, boundary),
    lambda boundary: chainlab.zzz_chain_sparse(0.7, 0.2, 6, boundary),
], ids=["zzz_diagonal", "zzz_chain_sparse"])
def test_unknown_boundary_rejected(build):
    with pytest.raises(ValueError, match="unknown boundary 'periodc'"):
        build("periodc")


def test_duality_scan_small_chain():
    grid = np.arange(0.6, 1.45, 0.1)
    scan = chainlab.duality_scan(grid, 9)
    assert np.all(np.isfinite(scan.gap))
    assert np.all(np.isfinite(scan.duality_defect))
    # self-duality functional vanishes identically at bx = 1
    at_one = np.isclose(scan.bx_values, 1.0)
    assert at_one.any()
    assert scan.duality_defect[at_one][0] <= 1e-9
    assert 0.8 <= scan.argmin_bx <= 1.2


def test_duality_scan_requires_multiple_of_three():
    with pytest.raises(ValueError):
        chainlab.duality_scan(np.array([1.0]), 8)


def test_duality_minimum_sharpens_with_size():
    grid = np.arange(0.8, 1.21, 0.05)
    small = chainlab.duality_scan(grid, 9)
    large = chainlab.duality_scan(grid, 12)
    assert abs(large.argmin_bx - 1.0) <= abs(small.argmin_bx - 1.0)


def _zigzag_engine_decomposition(deactivate_up_longitudinal=False):
    graph = make_zigzag(4)
    rng = np.random.default_rng(8)
    tun = {}
    for edge in graph.edges:
        tun[(edge.link, Species.UP)] = complex(rng.uniform(0.02, 0.05))
        tun[(edge.link, Species.DOWN)] = complex(rng.uniform(0.02, 0.05))
    if deactivate_up_longitudinal:
        for edge in graph.edges:
            if abs(edge.to - edge.frm) == 2:
                tun[(edge.link, Species.UP)] = 0.0
    params = HubbardParams(Statistics.FERMION, u_updn=1.0, tunneling=tun)
    basis = hilbert_basis(graph, params)
    h0 = build_h0(basis, params)
    v = build_v(basis, graph, params)
    m = projector_single_occupancy(basis)
    return pauli_decompose(h_eff_up_to_third(h0, v, m)), graph


def test_detect_nnn_terms_generic_couplings():
    dec, graph = _zigzag_engine_decomposition()
    report = chainlab.detect_nnn_terms(dec, graph)
    assert "ZIZI" in report.detected_zz or "IZIZ" in report.detected_zz
    assert max(abs(c) for c in report.detected_zz.values()) > 1e-5
    comp = report.compensated
    for string in report.detected_zz:
        assert comp[string] == 0.0
    # compensation only removes the targeted strings
    untouched = {s: c for s, c in dec.coeffs.items()
                 if s not in report.detected_zz}
    for s, c in untouched.items():
        assert comp[s] == c
    assert np.abs(comp.reconstruct()
                  - (dec.reconstruct()
                     - sum(c * pauli.string_matrix(s)
                           for s, c in report.detected_zz.items()))).max() <= 1e-12


def test_deactivating_longitudinal_removes_distance_two_exchange():
    dec, graph = _zigzag_engine_decomposition(deactivate_up_longitudinal=True)
    report = chainlab.detect_nnn_terms(dec, graph)
    for string, coeff in report.detected.items():
        support = [i for i, ch in enumerate(string) if ch != "I"]
        letters = {string[i] for i in support}
        if letters <= {"X", "Y"}:
            assert abs(coeff) <= 1e-12
    # the diagonal distance-two coupling survives
    assert max(abs(c) for c in report.detected_zz.values()) > 1e-6


SECTORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_sector_dimensions_sum_to_full_space(n):
    dims = [chainlab.zzz_chain_sector(0.9, n, *chi).shape[0]
            for chi in SECTORS]
    assert dims == [2 ** (n - 2)] * 4
    assert sum(dims) == 2 ** n


def test_sector_requires_multiple_of_three():
    with pytest.raises(ValueError):
        chainlab.zzz_chain_sector(1.0, 8, 1, 1)


@pytest.mark.parametrize("n", [6, 9])
def test_nontrivial_sectors_are_isospectral(n):
    for bx in (0.6, 1.0, 1.4):
        spectra = [np.linalg.eigvalsh(
            chainlab.zzz_chain_sector(bx, n, *chi).toarray())
            for chi in SECTORS]
        full = np.linalg.eigvalsh(chainlab.zzz_chain_sparse(bx, 0, n).toarray())
        assert np.abs(np.sort(np.concatenate(spectra)) - full).max() <= 1e-12
        for other in spectra[2:]:
            assert np.abs(other - spectra[1]).max() <= 1e-12


@pytest.mark.parametrize("n", [6, 9])
def test_merged_levels_match_dense_full_spectrum(n):
    for bx in np.linspace(0.5, 1.5, 21):
        full = np.linalg.eigvalsh(chainlab.zzz_chain_sparse(bx, 0, n).toarray())
        levels = chainlab.chain_levels(bx, n)
        assert np.abs(levels - full[:8]).max() <= 1e-12


@pytest.mark.parametrize("bx, k", [(0.7, 8), (1.0, 8), (1.3, 8), (0.95, 9)])
def test_merged_levels_match_full_space_lanczos(bx, k):
    # the full-space solve asks for k + 4 levels: at k = 8 it misses a
    # copy of the degenerate level in eighth place at b = 0.7 and 1.3.
    # At b = 0.95, k = 9 needs the third level of the non-trivial block,
    # of which a three-level block solve misses a copy
    n = 12
    full = chainlab.extremal_eigenvalues(
        chainlab.zzz_chain_sparse(bx, 0, n), k=k + 4)[:k]
    levels = chainlab.chain_levels(bx, n, k)
    assert np.all(np.abs(levels - full) <= 1e-10 * np.maximum(1, np.abs(full)))
    tol = chainlab.CLUSTER_TOL_FACTOR * np.abs(full).max()
    assert (np.sum(np.abs(levels - levels[0]) <= tol)
            == np.sum(np.abs(full - full[0]) <= tol))


def test_duality_scan_solves_each_field_once(monkeypatch):
    built = []
    sector = chainlab.zzz_chain_sector

    def counting(bx, n, chi01, chi12):
        built.append((bx, chi01, chi12))
        return sector(bx, n, chi01, chi12)

    monkeypatch.setattr(chainlab, "zzz_chain_sector", counting)
    scan = chainlab.duality_scan(np.array([1.0]), 12)
    assert built == [(1.0, 1, 1), (1.0, 1, -1)]
    assert scan.duality_defect[0] == 0.0
    built.clear()
    chainlab.duality_scan(np.array([0.8, 1.25]), 9)
    assert len(built) == 4
