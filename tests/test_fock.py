import itertools
import math
import tracemalloc

import numpy as np
import pytest

from trispin import fock
from trispin.fock import Basis, Species, Statistics, enumerate_basis

from fock_reference import (ANNIHILATE, CREATE, FockState, apply_ladder,
                            fock_states, hop, sector_basis,
                            sector_rows)


def test_sector_counts():
    assert len(enumerate_basis(3, Statistics.BOSON)) == 56
    assert len(enumerate_basis(3, Statistics.FERMION)) == 20


def test_oversized_sector_refused_before_allocating():
    # C(32, 16) = 601,080,390 rows: counted, never built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="601080390 states exceeds the "
                                             "limit of 1000000"):
            enumerate_basis(16, Statistics.FERMION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_sector_limit_boundary(monkeypatch):
    monkeypatch.setattr(fock, "MAX_BASIS_STATES", 20)
    assert len(enumerate_basis(3, Statistics.FERMION)) == 20
    # bosons capped at one atom per mode count C(6, 3) = 20 as well,
    # before the cross-occupancy filter leaves 8
    assert len(enumerate_basis(3, Statistics.BOSON,
                               forbid_cross_occupancy=True,
                               forbid_same_species_doubles=(True, True))) == 8
    with pytest.raises(ValueError, match="sector of 56 states exceeds the "
                                         "limit of 20"):
        enumerate_basis(3, Statistics.BOSON, forbid_cross_occupancy=True)
    # one species capped: refused on the uncapped count, an upper bound
    # on the 23 rows it would build
    with pytest.raises(ValueError, match="sector of 56 states exceeds the "
                                         "limit of 20"):
        enumerate_basis(3, Statistics.BOSON, forbid_cross_occupancy=True,
                        forbid_same_species_doubles=(True, False))
    monkeypatch.setattr(fock, "MAX_BASIS_STATES", 19)
    with pytest.raises(ValueError, match="sector of 20 states exceeds the "
                                         "limit of 19"):
        enumerate_basis(3, Statistics.FERMION)


def test_single_occupancy_subspace_dimension():
    basis = enumerate_basis(3, Statistics.BOSON)
    singles = [s for s in fock_states(basis)
               if all(sum(s.site_occupations(i)) == 1 for i in range(3))]
    assert len(singles) == 8


def test_index_round_trip():
    basis = enumerate_basis(3, Statistics.BOSON)
    for k, state in enumerate(fock_states(basis)):
        assert basis.locate(np.array(state.occ) @ basis.place) == k


def test_deterministic_lexicographic_order():
    basis = enumerate_basis(2, Statistics.BOSON)
    occs = [s.occ for s in fock_states(basis)]
    assert occs == sorted(occs)


def test_bosonic_ladder_amplitudes():
    state = FockState((2, 0), Statistics.BOSON)
    out, amp = apply_ladder(state, 0, Species.UP, CREATE)
    assert out.occ == (3, 0)
    assert amp == pytest.approx(math.sqrt(3))
    out, amp = apply_ladder(state, 0, Species.UP, ANNIHILATE)
    assert out.occ == (1, 0)
    assert amp == pytest.approx(math.sqrt(2))
    assert apply_ladder(FockState((0, 0), Statistics.BOSON), 0,
                        Species.UP, ANNIHILATE) is None


def test_fermionic_exclusion_and_sign():
    occupied = FockState((1, 0), Statistics.FERMION)
    assert apply_ladder(occupied, 0, Species.UP, CREATE) is None
    # modes (0:1up, 1:1dn, 2:2up, ...): creating 2up behind two occupied
    # modes picks up (-1)^2 = +1
    state = FockState((1, 1, 0, 0, 0, 0), Statistics.FERMION)
    out, amp = apply_ladder(state, 1, Species.UP, CREATE)
    assert out.occ == (1, 1, 1, 0, 0, 0)
    assert amp == 1.0
    # one occupied mode in front: sign -1
    state = FockState((1, 0, 0, 0, 0, 0), Statistics.FERMION)
    _, amp = apply_ladder(state, 1, Species.DOWN, CREATE)
    assert amp == -1.0


def test_hop_amplitudes():
    state = FockState((1, 0, 1, 0), Statistics.BOSON)
    out, amp = hop(state, 0, 1, Species.UP)
    assert out.occ == (0, 0, 2, 0)
    assert amp == pytest.approx(math.sqrt(2))
    blocked = FockState((1, 0, 1, 0), Statistics.FERMION)
    assert hop(blocked, 0, 1, Species.UP) is None
    # hop across an occupied intermediate mode flips the sign
    state = FockState((1, 0, 1, 0, 0, 0), Statistics.FERMION)
    out, amp = hop(state, 0, 2, Species.UP)
    assert out.occ == (0, 0, 1, 0, 1, 0)
    assert amp == -1.0


def test_out_of_range_site_raises():
    state = FockState((1, 0), Statistics.BOSON)
    with pytest.raises(ValueError):
        apply_ladder(state, 1, Species.UP, CREATE)


def test_unknown_mode_order_rejected():
    state = FockState((1, 0, 0, 0), Statistics.FERMION)
    with pytest.raises(ValueError, match="unknown mode order"):
        apply_ladder(state, 1, Species.UP, CREATE, "sideways")
    with pytest.raises(ValueError, match="unknown mode order"):
        hop(state, 0, 1, Species.UP, "sideways")


def _full_fermion_space(n_sites):
    states = [FockState(occ, Statistics.FERMION)
              for occ in itertools.product((0, 1), repeat=2 * n_sites)]
    index = {s.occ: k for k, s in enumerate(states)}
    return states, index


def _ladder_matrix(states, index, site, species, kind, mode_order="standard"):
    dim = len(states)
    mat = np.zeros((dim, dim), dtype=complex)
    for col, state in enumerate(states):
        moved = apply_ladder(state, site, species, kind, mode_order)
        if moved is not None:
            out, amp = moved
            mat[index[out.occ], col] = amp
    return mat


def test_creation_is_adjoint_of_annihilation():
    states, index = _full_fermion_space(2)
    for site in range(2):
        for species in Species:
            c = _ladder_matrix(states, index, site, species, CREATE)
            a = _ladder_matrix(states, index, site, species, ANNIHILATE)
            assert np.array_equal(c, a.conj().T)


def test_number_operator_reconstruction():
    basis = Basis(sector_rows(2, Statistics.BOSON, 3), Statistics.BOSON, 2)
    index = {s.occ: k for k, s in enumerate(fock_states(basis))}
    dim = len(basis)
    # a^dag a stays inside the sector: build it from composed moves
    n_mat = np.zeros((dim, dim), dtype=complex)
    for col, state in enumerate(fock_states(basis)):
        moved = apply_ladder(state, 0, Species.UP, ANNIHILATE)
        if moved is None:
            continue
        mid, amp1 = moved
        back, amp2 = apply_ladder(mid, 0, Species.UP, CREATE)
        n_mat[index[back.occ], col] = amp1 * amp2
    expected = np.diag([s.occupation(0, Species.UP)
                        for s in fock_states(basis)])
    assert np.allclose(n_mat, expected, atol=1e-14)


def test_fermionic_anticommutators():
    states, index = _full_fermion_space(2)
    dim = len(states)
    modes = [(site, species) for site in range(2) for species in Species]
    for i, (si, pi) in enumerate(modes):
        for j, (sj, pj) in enumerate(modes):
            a_i = _ladder_matrix(states, index, si, pi, ANNIHILATE)
            c_j = _ladder_matrix(states, index, sj, pj, CREATE)
            anti = a_i @ c_j + c_j @ a_i
            expected = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.abs(anti - expected).max() <= 1e-14


def test_reversed_mode_order_signs_stay_unit():
    states, index = _full_fermion_space(2)
    for site in range(2):
        for species in Species:
            c = _ladder_matrix(states, index, site, species, CREATE, "reversed")
            a = _ladder_matrix(states, index, site, species, ANNIHILATE,
                               "reversed")
            assert np.array_equal(c, a.conj().T)
            anti = a @ c + c @ a
            assert np.abs(anti - np.eye(len(states))).max() <= 1e-14


@pytest.mark.parametrize("n_sites, statistics, sector", [
    (3, Statistics.BOSON, dict()),
    (3, Statistics.BOSON, dict(n_atoms=4, site_cap=2)),
    (3, Statistics.BOSON, dict(forbid_same_species_doubles=(True, True))),
    (4, Statistics.FERMION, dict(n_atoms=4, n_up=2)),
    (5, Statistics.FERMION, dict(forbid_cross_occupancy=True)),
])
def test_occupation_array_and_keys(n_sites, statistics, sector):
    basis = sector_basis(n_sites, statistics, **sector)
    assert all(isinstance(s, FockState) and s.statistics is statistics
               for s in fock_states(basis))
    assert basis.occ.tolist() == [list(s.occ) for s in fock_states(basis)]
    assert np.all(np.diff(basis.keys) > 0)
    assert np.array_equal(basis.locate(basis.keys), np.arange(len(basis)))
    for k, state in enumerate(fock_states(basis)):
        assert basis.keys[k] == sum(n * basis.radix ** (2 * n_sites - 1 - m)
                                    for m, n in enumerate(state.occ))


def test_locate_hand_built_basis_in_any_order():
    lexicographic = enumerate_basis(2, Statistics.BOSON)
    basis = Basis(lexicographic.occ[::-1], Statistics.BOSON, 2)
    assert np.array_equal(basis.locate(lexicographic.keys),
                          np.arange(len(basis))[::-1])
    # (0, 0, 0, 1) holds one atom and (2, 2, 2, 2) sorts after every key
    absent = np.array([(0, 0, 0, 1), (2, 2, 2, 2)]) @ basis.place
    assert basis.locate(absent).tolist() == [-1, -1]


def test_occupation_keys_overflow_rejected():
    crowded = [(12,) + (0,) * 23]
    with pytest.raises(ValueError, match="overflow int64"):
        Basis(crowded, Statistics.BOSON, 12)


@pytest.mark.parametrize("n_sites, statistics", [
    *[(n, Statistics.BOSON) for n in (1, 2, 3)],
    *[(n, Statistics.FERMION) for n in (1, 2, 3, 4, 5)],
])
def test_enumeration_equals_brute_force_filter(n_sites, statistics):
    # every combination, each same-species exclusion on its own too
    for cross, *doubles in itertools.product((False, True), repeat=3):
        basis = enumerate_basis(n_sites, statistics,
                                forbid_cross_occupancy=cross,
                                forbid_same_species_doubles=doubles)
        assert basis.occ.dtype == np.int64
        assert basis.occ.tolist() == sector_rows(
            n_sites, statistics, n_sites, forbid_cross_occupancy=cross,
            forbid_same_species_doubles=doubles)
