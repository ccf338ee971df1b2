import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from trispin import chainlab, pauli
from trispin.fock import Species, Statistics
from trispin.hubbard import (HubbardParams, build_h0, build_v, hilbert_basis,
                             make_zigzag)
from trispin.perturb import pauli_decompose

from engine_reference import h_eff_up_to_third
from spin_reference import (chirality_operator, mirror_permutation,
                            translation, trivial_sector_block_dimensions,
                            zzz_chain_sector, zzz_diagonal,
                            zzz_ground_space_bruteforce)


def _ground_degeneracy(evals):
    # the degeneracy rule of ``duality_scan``
    tol = chainlab.CLUSTER_TOL_FACTOR * max(abs(evals[0]), abs(evals[-1]))
    return int(np.sum(np.abs(evals - evals[0]) <= tol))


def test_diagonalize_basics():
    report = chainlab.diagonalize(pauli.string_matrix("Z"))
    assert np.allclose(report.eigenvalues, [-1, 1])
    report = chainlab.diagonalize(-pauli.string_matrix("ZZZ"))
    assert report.eigenvalues.tolist() == [-1.0] * 4 + [1.0] * 4
    with pytest.raises(ValueError, match="Hermitian"):
        chainlab.diagonalize(np.array([[0, 1], [0, 0]], dtype=complex))


def test_chirality_spectrum_and_annihilated_states():
    chi = chirality_operator(3)
    report = chainlab.diagonalize(chi)
    two_root_three = 2 * np.sqrt(3)
    assert np.round(report.eigenvalues, 10).tolist() == (
        [-round(two_root_three, 10)] * 2 + [0.0] * 4
        + [round(two_root_three, 10)] * 2)
    aligned = np.zeros(8)
    aligned[0] = 1.0
    assert np.abs(chi @ aligned).max() <= 1e-14
    aligned[:] = 0.0
    aligned[7] = 1.0
    assert np.abs(chi @ aligned).max() <= 1e-14


def test_chirality_orientation_flip():
    chi = chirality_operator(3, [(0, 1, 2)])
    swapped = chirality_operator(3, [(0, 2, 1)])
    assert np.abs(chi + swapped).max() <= 1e-14


def test_chirality_time_reversal_odd():
    chi = chirality_operator(3)
    assert np.abs(chi.conj() + chi).max() <= 1e-14


def test_chirality_ground_states_are_circulating_patterns():
    chi = chirality_operator(3)
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
    evals = chainlab.diagonalize(h).eigenvalues
    assert evals[0] == pytest.approx(-6.0)
    assert _ground_degeneracy(evals) == 4
    e0, configs = zzz_ground_space_bruteforce(6)
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
    _, configs = zzz_ground_space_bruteforce(6)
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
    evals = chainlab.diagonalize(h).eigenvalues
    assert evals[0] == pytest.approx(-5.0)
    assert _ground_degeneracy(evals) == 1


def test_zzz_chain_paramagnetic_limit():
    n = 6
    h = chainlab.zzz_chain_sparse(30.0, 0.0, n).toarray()
    _, evecs = np.linalg.eigh(h)
    plus = np.full(2 ** n, 1.0 / np.sqrt(2 ** n))
    assert abs(plus @ evecs[:, 0]) ** 2 >= 0.99


@pytest.mark.parametrize("n", [5, 6])
def test_zzz_sparse_matches_term_list(n):
    # independent construction: the Pauli strings of the periodic chain
    bx, bz = 0.7, 0.2
    coeffs = {}
    for i in range(n):
        for pattern, coeff in (("X", -bx), ("Z", -bz), ("ZZZ", -1.0)):
            sites = [(i + k) % n for k in range(len(pattern))]
            string = pauli.embed(pattern, sites, n)
            coeffs[string] = coeffs.get(string, 0.0) + coeff
    expected = pauli.pauli_sum(coeffs, n)
    h = chainlab.zzz_chain_sparse(bx, bz, n).toarray()
    assert np.abs(h - expected).max() <= 1e-14


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
    return pauli_decompose(h_eff_up_to_third(h0, v)), graph


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
    assert np.abs(pauli.pauli_sum(comp.coeffs, comp.n_sites)
                  - (pauli.pauli_sum(dec.coeffs, dec.n_sites)
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
    dims = [zzz_chain_sector(0.9, n, *chi).shape[0]
            for chi in SECTORS]
    assert dims == [2 ** (n - 2)] * 4
    assert sum(dims) == 2 ** n


def test_sector_requires_multiple_of_three():
    with pytest.raises(ValueError):
        chainlab.chain_blocks(8)


@pytest.mark.parametrize("n", [6, 9])
def test_nontrivial_sectors_are_isospectral(n):
    for bx in (0.6, 1.0, 1.4):
        spectra = [np.linalg.eigvalsh(
            zzz_chain_sector(bx, n, *chi).toarray())
            for chi in SECTORS]
        full = np.linalg.eigvalsh(chainlab.zzz_chain_sparse(bx, 0, n).toarray())
        assert np.abs(np.sort(np.concatenate(spectra)) - full).max() <= 1e-12
        for other in spectra[2:]:
            assert np.abs(other - spectra[1]).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 6, 9])
def test_merged_levels_match_dense_full_spectrum(n):
    # b = 0 and b < 0 included: there the levels are highly degenerate
    blocks = chainlab.chain_blocks(n)
    for bx in np.linspace(-1.5, 1.5, 13):
        full = np.linalg.eigvalsh(chainlab.zzz_chain_sparse(bx, 0, n).toarray())
        for k in (8, 9):
            levels = chainlab.chain_levels(bx, blocks, k)
            assert len(levels) == min(k, 2 ** n)
            assert np.abs(levels - full[:k]).max() <= 1e-12


@pytest.mark.parametrize("bx, k", [(0.7, 8), (1.0, 8), (1.3, 8), (0.95, 9)])
def test_merged_levels_match_full_space_lanczos(bx, k):
    # the full-space solve asks for k + 4 levels: at k = 8 it misses a
    # copy of the degenerate level in eighth place at b = 0.7 and 1.3.
    # At b = 0.95, k = 9 needs the third level of the non-trivial block,
    # of which a three-level solve of the unsplit block missed a copy
    n = 12
    full = chainlab.extremal_eigenvalues(
        chainlab.zzz_chain_sparse(bx, 0, n), k=k + 4)[:k]
    levels = chainlab.chain_levels(bx, chainlab.chain_blocks(n), k)
    assert np.all(np.abs(levels - full) <= 1e-10 * np.maximum(1, np.abs(full)))
    tol = chainlab.CLUSTER_TOL_FACTOR * np.abs(full).max()
    assert (np.sum(np.abs(levels - levels[0]) <= tol)
            == np.sum(np.abs(full - full[0]) <= tol))


@pytest.mark.parametrize("bx", [0.5, 0.7, 0.95, 1.0, 1.3, 1.5])
def test_merged_levels_match_dense_sector_blocks(bx):
    # the reference is the dense spectrum of the 1024-state trivial block
    # and, three times, of a non-trivial one
    n = 12
    blocks = [np.linalg.eigvalsh(zzz_chain_sector(bx, n, *chi)
                                 .toarray()) for chi in SECTORS[:2]]
    dense = np.sort(np.concatenate([blocks[0], np.repeat(blocks[1], 3)]))
    for k in (8, 9):
        levels = chainlab.chain_levels(bx, chainlab.chain_blocks(n), k)
        assert np.abs(levels - dense[:k]).max() <= 1e-12


def _record_solves(monkeypatch):
    solves = []
    lowest = chainlab.SymmetryBlock.lowest

    def recording(block, bx, count):
        solves.append((bx, block.irrep, count))
        return lowest(block, bx, count)

    monkeypatch.setattr(chainlab.SymmetryBlock, "lowest", recording)
    return solves


def test_duality_scan_solves_each_field_once(monkeypatch):
    solves = _record_solves(monkeypatch)
    scan = chainlab.duality_scan(np.array([1.0]), 12)
    blocks = chainlab.chain_blocks(12)
    assert len(blocks) == 14
    levels = {1: 8, 2: 4, 3: 3, 6: 2}       # ceil(8 / copies)
    assert solves == [(1.0, block.irrep, levels[block.copies])
                      for block in blocks]
    assert scan.duality_defect[0] == 0.0
    solves.clear()
    chainlab.duality_scan(np.array([0.8, 1.25]), 9)
    assert [bx for bx, _, _ in solves] == [0.8] * 8 + [1.25] * 8


def test_duality_scan_builds_each_sector_once(monkeypatch):
    built = []
    sector_blocks = chainlab._sector_blocks

    def counting(orbits, chi12):
        built.append(chi12)
        return sector_blocks(orbits, chi12)

    monkeypatch.setattr(chainlab, "_sector_blocks", counting)
    chainlab.duality_scan(0.5 + 0.05 * np.arange(21), 9)
    assert built == [1, -1]


def test_duality_scan_solves_off_grid_reciprocals_for_e0_alone(monkeypatch):
    solves = _record_solves(monkeypatch)
    chainlab.duality_scan(np.array([0.9, 1.0]), 12)
    # every block for each grid field, then the totally symmetric block
    # at 1/0.9; the reciprocal 1/1.0 is the grid field 1.0
    assert ([bx for bx, _, _ in solves]
            == [0.9] * 14 + [1.0] * 14 + [1 / 0.9])
    assert solves[-1][1:] == ((1, 0, 1), 1)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_ground_level_lies_in_the_trivial_even_half(n):
    # in its totally symmetric block, which chain_levels(bx, blocks, 1)
    # solves alone
    blocks = chainlab.chain_blocks(n)
    assert blocks[0].irrep == (1, 0, 1)
    for bx in (-0.8, 0.0, 0.3, 1.0, 2.5):
        lowest = [block.lowest(bx, 1)[0] for block in blocks]
        assert lowest[0] <= min(lowest) + 1e-12 * abs(lowest[0])
        assert chainlab.chain_levels(bx, blocks, 1)[0] == lowest[0]


@pytest.mark.parametrize("n", [3, 6, 9, 12, 15])
def test_mirror_commutes_with_both_sector_blocks(n):
    image = mirror_permutation(n)
    assert np.array_equal(image[image], np.arange(2 ** (n - 2)))
    for chi in SECTORS[:2]:
        block = zzz_chain_sector(0.83, n, *chi)
        assert (block[image][:, image] != block).nnz == 0


@pytest.mark.parametrize("n", [3, 6, 9, 12, 15])
def test_translation_by_three_commutes_with_both_sector_blocks(n):
    for chi12 in (1, -1):
        shift = translation(n, 3, chi12)
        assert (shift.T @ shift != sp.identity(2 ** (n - 2))).nnz == 0
        # (T^3)^(n/3) is the identity, signs included
        power = sp.identity(2 ** (n - 2), format="csr")
        for _ in range(n // 3):
            power = shift @ power
        assert (power != sp.identity(2 ** (n - 2))).nnz == 0
        block = zzz_chain_sector(0.83, n, 1, chi12)
        assert (shift @ block != block @ shift).nnz == 0


@pytest.mark.parametrize("n", [3, 6, 9, 12, 15])
def test_translation_by_one_commutes_with_the_trivial_sector_block(n):
    # so the trivial sector carries all of D_n; the flipped one does not
    identity = sp.identity(2 ** (n - 2))
    shift = translation(n, 1, 1)
    assert (shift.T @ shift != identity).nnz == 0
    power = sp.identity(2 ** (n - 2), format="csr")
    for _ in range(n):
        power = shift @ power
    assert (power != identity).nnz == 0
    block = zzz_chain_sector(0.83, n, 1, 1)
    assert (shift @ block != block @ shift).nnz == 0
    if n > 3:
        flipped = zzz_chain_sector(0.83, n, 1, -1)
        shift = translation(n, 1, -1)
        assert (shift @ flipped != flipped @ shift).nnz > 0


@pytest.mark.parametrize("n", [3, 6, 9, 12, 15])
def test_trivial_block_dimensions_equal_the_dihedral_character_count(n):
    counted = {irrep: dim for irrep, dim
               in trivial_sector_block_dimensions(n).items() if dim}
    assert {block.irrep[1:]: len(block.zzz)
            for block in chainlab.chain_blocks(n)
            if block.irrep[0] == 1} == counted


@pytest.mark.parametrize("n", [3, 6, 9, 12, 15])
def test_block_dimensions_times_copies_sum_to_the_sector(n):
    blocks = chainlab.chain_blocks(n)
    for chi12, copies in ((1, 1), (-1, 3)):
        assert sum(len(block.zzz) * block.copies // copies
                   for block in blocks if block.irrep[0] == chi12) \
            == 2 ** (n - 2)
    for block in blocks:
        assert block.hops.shape == (len(block.zzz),) * 2


def _mirror_halves(blocks, chi12):
    """The blocks that span the M-even and the M-odd half of a sector: a
    +-q pair block is the M-even row of its irrep, and the M-odd row
    repeats its levels."""
    pair = [block for block in blocks
            if block.irrep[0] == chi12 and block.copies in (2, 6)]
    return [[block for block in blocks if block.irrep[0] == chi12
             and block.copies in (1, 3) and block.irrep[2] == parity] + pair
            for parity in (1, -1)]


@pytest.mark.parametrize("n", [3, 6, 9, 12, 15])
def test_mirror_half_dimensions_sum_to_the_sector(n):
    image = mirror_permutation(n)
    fixed = int(np.sum(image == np.arange(2 ** (n - 2))))
    blocks = chainlab.chain_blocks(n)
    for chi12 in (1, -1):
        even, odd = (sum(len(block.zzz) for block in half)
                     for half in _mirror_halves(blocks, chi12))
        assert even + odd == 2 ** (n - 2)
        assert even - odd == fixed


def _half_spectrum(h, image, parity):
    """Spectrum of a sector block on the mirror half of the given parity,
    from an orthonormal basis of (1 + parity M) / 2."""
    dim = len(image)
    projector = (np.eye(dim) + parity * np.eye(dim)[image]) / 2
    values, vectors = np.linalg.eigh(projector)
    basis = vectors[:, values > 0.5]
    return np.linalg.eigvalsh(basis.T @ h @ basis)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_mirror_halves_merge_to_the_dense_sector_spectrum(n):
    image = mirror_permutation(n)
    blocks = chainlab.chain_blocks(n)
    for block in blocks:
        hops = block.hops.toarray()
        assert np.array_equal(hops, hops.T)
    for bx in (0.6, 1.0, 1.4):
        for chi in SECTORS[:2]:
            dense = zzz_chain_sector(bx, n, *chi).toarray()
            scale = np.abs(np.linalg.eigvalsh(dense)).max()
            halves = _mirror_halves(blocks, chi[1])
            for parity, half in zip((1, -1), halves):
                merged = np.sort(np.concatenate([np.linalg.eigvalsh(
                    bx * block.hops.toarray() + np.diag(block.zzz))
                    for block in half]))
                reference = _half_spectrum(dense, image, parity)
                assert np.abs(merged - reference).max() <= 1e-12 * scale


@pytest.mark.parametrize("bx", [0.5, 0.7, 0.95, 1.0, 1.3, 1.5])
def test_flipped_halves_have_no_degenerate_low_levels(bx):
    # the mirror halves of the flipped sector, merged from its blocks,
    # have no degenerate level among their lowest four
    blocks = chainlab.chain_blocks(12)
    for half in _mirror_halves(blocks, -1):
        levels = np.sort(np.concatenate([block.lowest(bx, 4)
                                         for block in half]))[:4]
        assert np.diff(levels).min() > 1e-3


@pytest.mark.parametrize("bx", [0.5, 0.7, 0.95, 1.0, 1.3, 1.5])
def test_flipped_pair_blocks_have_no_degenerate_low_levels(bx):
    # chain_levels takes ceil(k/6) = 2 levels of each flipped pair block
    # for k = 8 or 9; neither they nor the next one are degenerate, so a
    # solve has no copy of its last level to miss
    for n in (12, 15):
        pairs = [block for block in chainlab.chain_blocks(n)
                 if block.copies == 6]
        assert pairs
        for block in pairs:
            assert np.diff(block.lowest(bx, 3)).min() > 1e-3


def test_lanczos_blocks_fill_their_kept_pattern_as_scipy_sums_it():
    # each field scales the hops' data and adds zzz in the diagonal
    # slots: the matrix of bx * hops + diag(zzz), so the same levels, bit
    # for bit; every n = 15 block but one is solved by Lanczos
    blocks = [block for block in chainlab.chain_blocks(15)
              if len(block.zzz) > chainlab.DENSE_BLOCK_DIM]
    assert len(blocks) == 12
    for block in blocks:
        hops = block.hops
        row = np.repeat(np.arange(hops.shape[0]), np.diff(hops.indptr))
        assert np.array_equal(block.diagonal, np.flatnonzero(
            hops.indices == row))
        for bx in (0.7, 1.0):
            reference = chainlab.extremal_eigenvalues(
                bx * hops + sp.diags(block.zzz), k=3)
            assert np.array_equal(block.lowest(bx, 3), reference)


def test_block_build_memory_stays_within_the_site_cap_bound():
    # cli.CHAIN_MAX_SITES rests on this bound: a scan holds the blocks of
    # both solved sectors and peaks while it builds the last one (about
    # 28.5 (n + 1) 2^(n-2) bytes at n = 15, 24 at n = 18)
    n = 15
    tracemalloc.start()
    try:
        blocks = chainlab.chain_blocks(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 13
    assert peak <= 30 * (n + 1) * 2 ** (n - 2)


DEFAULT_GRID = 0.5 + 0.05 * np.arange(21)      # the defaults of ``chain``


@pytest.mark.parametrize("n", [9, 12])
def test_duality_defect_is_roundoff_on_the_default_grid(n):
    scan = chainlab.duality_scan(DEFAULT_GRID, n)
    assert scan.duality_defect.max() <= 1e-12
    assert scan.duality_defect[np.flatnonzero(DEFAULT_GRID == 1.0)] == 0.0


@pytest.mark.parametrize("n", [3, 6, 9, 12, 15])
def test_sector_arrays_equal_full_space_diagonal_reference(n):
    # the diagonal of the sector representatives j < 2**(n - 2), one
    # triple at a time in src, against the full-space pattern table
    dim = 2 ** (n - 2)
    got = chainlab._zzz_diagonal(np.arange(dim), n)
    ref = zzz_diagonal(n)[:dim]
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

