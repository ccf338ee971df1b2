import itertools
import math

import numpy as np
import pytest

from trispin.fock import (ANNIHILATE, CREATE, Basis, FockState, SectorSpec,
                          Species, Statistics, apply_ladder, enumerate_basis,
                          hop)


def test_sector_counts():
    assert len(enumerate_basis(3, Statistics.BOSON, SectorSpec(n_total=3))) == 56
    assert len(enumerate_basis(3, Statistics.BOSON,
                               SectorSpec(n_up=1, n_down=2))) == 18
    assert len(enumerate_basis(3, Statistics.FERMION,
                               SectorSpec(n_up=2, n_down=1))) == 9
    assert len(enumerate_basis(3, Statistics.FERMION, SectorSpec(n_total=3))) == 20


def test_single_occupancy_subspace_dimension():
    basis = enumerate_basis(3, Statistics.BOSON, SectorSpec(n_total=3))
    singles = [s for s in basis.states
               if all(sum(s.site_occupations(i)) == 1 for i in range(3))]
    assert len(singles) == 8


def test_empty_sector_raises():
    with pytest.raises(ValueError, match="empty basis"):
        enumerate_basis(2, Statistics.FERMION, SectorSpec(n_up=3, n_down=0))


def test_negative_cutoff_raises():
    with pytest.raises(ValueError):
        SectorSpec(n_total=2, site_cap=-1)


def test_index_round_trip():
    basis = enumerate_basis(3, Statistics.BOSON, SectorSpec(n_total=3))
    for k, state in enumerate(basis.states):
        assert basis.locate(np.array(state.occ) @ basis.place) == k


def test_deterministic_lexicographic_order():
    basis = enumerate_basis(2, Statistics.BOSON, SectorSpec(n_total=2))
    occs = [s.occ for s in basis.states]
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
    basis = enumerate_basis(2, Statistics.BOSON, SectorSpec(n_total=3))
    index = {s.occ: k for k, s in enumerate(basis.states)}
    dim = len(basis)
    # a^dag a stays inside the sector: build it from composed moves
    n_mat = np.zeros((dim, dim), dtype=complex)
    for col, state in enumerate(basis.states):
        moved = apply_ladder(state, 0, Species.UP, ANNIHILATE)
        if moved is None:
            continue
        mid, amp1 = moved
        back, amp2 = apply_ladder(mid, 0, Species.UP, CREATE)
        n_mat[index[back.occ], col] = amp1 * amp2
    expected = np.diag([s.occupation(0, Species.UP) for s in basis.states])
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
    (3, Statistics.BOSON, SectorSpec(n_total=3)),
    (3, Statistics.BOSON, SectorSpec(n_total=4, site_cap=2)),
    (3, Statistics.BOSON, SectorSpec(n_total=3,
                                     forbid_same_species_doubles=True)),
    (4, Statistics.FERMION, SectorSpec(n_up=2, n_down=2)),
    (5, Statistics.FERMION, SectorSpec(n_total=5,
                                       forbid_cross_occupancy=True)),
])
def test_occupation_array_and_keys(n_sites, statistics, sector):
    basis = enumerate_basis(n_sites, statistics, sector)
    assert all(isinstance(s, FockState) and s.statistics is statistics
               for s in basis.states)
    assert basis.occ.tolist() == [list(s.occ) for s in basis.states]
    assert np.all(np.diff(basis.keys) > 0)
    assert np.array_equal(basis.locate(basis.keys), np.arange(len(basis)))
    for k, state in enumerate(basis.states):
        assert basis.keys[k] == sum(n * basis.radix ** (2 * n_sites - 1 - m)
                                    for m, n in enumerate(state.occ))


def test_locate_hand_built_basis_in_any_order():
    lexicographic = enumerate_basis(2, Statistics.BOSON, SectorSpec(n_total=2))
    basis = Basis(lexicographic.occ[::-1], Statistics.BOSON, 2,
                  lexicographic.sector)
    assert np.array_equal(basis.locate(lexicographic.keys),
                          np.arange(len(basis))[::-1])
    # (0, 0, 0, 1) holds one atom and (2, 2, 2, 2) sorts after every key
    absent = np.array([(0, 0, 0, 1), (2, 2, 2, 2)]) @ basis.place
    assert basis.locate(absent).tolist() == [-1, -1]


def test_occupation_keys_overflow_rejected():
    crowded = [(12,) + (0,) * 23]
    with pytest.raises(ValueError, match="overflow int64"):
        Basis(crowded, Statistics.BOSON, 12, SectorSpec(n_total=12))


def _brute_force_occ(n_sites, statistics, sector):
    """Every occupation tuple of the sector, by filtering the full
    product of per-mode occupations, in lexicographic order."""
    total = sector.total
    cap = 1 if statistics is Statistics.FERMION else (
        total if sector.site_cap is None else sector.site_cap)
    rows = []
    for occ in itertools.product(range(cap + 1), repeat=2 * n_sites):
        up, dn = occ[0::2], occ[1::2]
        if sum(occ) != total:
            continue
        if sector.n_up is not None and (sum(up), sum(dn)) != (sector.n_up,
                                                              sector.n_down):
            continue
        if sector.forbid_cross_occupancy and any(u and d
                                                 for u, d in zip(up, dn)):
            continue
        if sector.forbid_same_species_doubles and max(occ) > 1:
            continue
        rows.append(list(occ))
    return rows


def _sectors(max_total):
    for total in range(max_total + 1):
        for cap in (None, 1, 2):
            for cross in (False, True):
                for doubles in (False, True):
                    yield SectorSpec(n_total=total, site_cap=cap,
                                     forbid_cross_occupancy=cross,
                                     forbid_same_species_doubles=doubles)
        for n_up in range(total + 1):
            yield SectorSpec(n_up=n_up, n_down=total - n_up)


@pytest.mark.parametrize("n_sites, statistics", [
    *[(n, Statistics.BOSON) for n in (1, 2, 3)],
    *[(n, Statistics.FERMION) for n in (1, 2, 3, 4, 5)],
])
def test_enumeration_equals_brute_force_filter(n_sites, statistics):
    max_total = n_sites + 1 if statistics is Statistics.BOSON else 2 * n_sites
    checked = 0
    for sector in _sectors(max_total):
        want = _brute_force_occ(n_sites, statistics, sector)
        if not want:
            with pytest.raises(ValueError, match="empty basis"):
                enumerate_basis(n_sites, statistics, sector)
            continue
        basis = enumerate_basis(n_sites, statistics, sector)
        assert basis.occ.dtype == np.int64
        assert basis.occ.tolist() == want
        checked += 1
    assert checked > 0
