import math

import numpy as np
import pytest

from trispin import closedform, conformance, raman
from trispin.fock import Statistics
from trispin.hubbard import (HubbardParams, SparseOperator, build_h0, build_v,
                             build_v_mixed, hilbert_basis, make_triangle,
                             projector_single_occupancy)
from trispin.perturb import h_eff_second, pauli_decompose
from trispin.raman import (SU2Rotation, covariance_check, rotate_tunneling,
                           spin_rotation_matrix)

from engine_reference import h_eff_up_to_third
from test_sparse_core import cross_second

U = 1.0


def _setup(j_up=0.05, j_dn=0.03, uu=U, dd=U):
    tri = make_triangle()
    params = HubbardParams.uniform(Statistics.BOSON, 3, j_up, j_dn,
                                   u_updn=U, u_upup=uu, u_dndn=dd)
    basis = hilbert_basis(tri, params)
    h0 = build_h0(basis, params)
    v = build_v(basis, tri, params)
    m = projector_single_occupancy(basis)
    return h0, v, m


def test_rotation_matrix_form_and_unitarity():
    g = SU2Rotation(phi=0.7, theta=1.1)
    gm = g.matrix
    assert gm[0, 0] == pytest.approx(math.cos(1.1))
    assert gm[0, 1] == pytest.approx(np.exp(0.7j) * math.sin(1.1))
    assert gm[1, 0] == pytest.approx(math.sin(1.1))
    assert gm[1, 1] == pytest.approx(-np.exp(0.7j) * math.cos(1.1))
    assert np.abs(gm @ gm.conj().T - np.eye(2)).max() <= 1e-14
    assert SU2Rotation(0.0, math.pi / 2).matrix[0, 1] == pytest.approx(1.0)


def test_spin_rotation_matrix_unitary():
    g = SU2Rotation(phi=0.3, theta=0.9)
    big = spin_rotation_matrix(g, 3)
    assert big.shape == (8, 8)
    assert np.abs(big @ big.conj().T - np.eye(8)).max() <= 1e-13


def test_theta_zero_keeps_species_diagonal_structure():
    h0, v, m = _setup()
    g = SU2Rotation(phi=1.3, theta=0.0)
    v_rot = rotate_tunneling(v, g)
    assert np.abs((v_rot.mat - v.mat).toarray()).max() <= 1e-14


def test_equal_rates_make_rotation_transparent():
    h0, v, m = _setup(j_up=0.04, j_dn=0.04)
    g = SU2Rotation(phi=0.9, theta=math.pi / 4)
    v_rot = rotate_tunneling(v, g)
    assert np.abs((v_rot.mat - v.mat).toarray()).max() <= 1e-14


def test_half_pi_theta_swaps_species_roles():
    gm = SU2Rotation(phi=0.0, theta=math.pi / 2).matrix
    k = gm.conj().T @ np.diag([0.07, 0.02]) @ gm
    assert np.allclose(k, np.diag([0.02, 0.07]), atol=1e-15)


def test_identity_rotation_zero_residual():
    h0, v, m = _setup()
    [residual] = covariance_check(h0, v, [SU2Rotation(0.0, 0.0)], m)
    assert residual <= 1e-13


def test_covariance_random_rotations_equal_u():
    h0, v, m = _setup()
    rng = np.random.default_rng(9)
    rotations = [SU2Rotation(phi=float(rng.uniform(0, 2 * math.pi)),
                             theta=float(rng.uniform(0, math.pi)))
                 for _ in range(10)]
    residuals = covariance_check(h0, v, rotations, m)
    assert len(residuals) == 10 and max(residuals) <= 1e-11


def test_phi_rotation_invariance_of_the_effective_model():
    h0, v, m = _setup()
    g = SU2Rotation(phi=2.1, theta=0.0)
    v_rot = rotate_tunneling(v, g)
    direct = h_eff_up_to_third(h0, v, m).matrix
    rotated = h_eff_up_to_third(h0, v_rot, m).matrix
    assert np.linalg.norm(direct - rotated, 2) <= 1e-11


def test_unequal_u_residual_is_data_not_invariant():
    h0, v, m = _setup(uu=1.4, dd=0.8)
    g = SU2Rotation(phi=0.5, theta=0.8)
    [residual] = covariance_check(h0, v, [g], m)
    assert residual > 1e-6   # genuinely broken, reported as data


def test_second_order_bilinearity_of_combined_tunnelings():
    h0, v, m = _setup()
    g = SU2Rotation(phi=0.4, theta=0.6)
    v_rot = rotate_tunneling(v, g)
    combined = SparseOperator(v.mat + v_rot.mat, v.basis)
    lhs = h_eff_second(h0, combined, m).matrix
    rhs = (h_eff_second(h0, v, m).matrix
           + h_eff_second(h0, v_rot, m).matrix
           + cross_second(h0, v, v_rot, m).matrix)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_rotated_xy_point_reproduces_couplings():
    # one rotated internal state tunneling at theta = pi/4 (Bloch angle
    # pi/2 about y) turns the z-quantized single-species model into the
    # x-quantized chain
    h0, v, m = _setup()
    j = 0.05
    gm = SU2Rotation(phi=0.0, theta=math.pi / 4).matrix
    k = gm.conj().T @ np.diag([j, 0.0]) @ gm
    v_rot = build_v_mixed(v.basis, make_triangle(),
                          {link: k for link in range(3)})
    dec = pauli_decompose(h_eff_up_to_third(h0, v_rot, m))
    cs = closedform.rotated_xy_couplings(j, U)
    assert dec["III"].real == pytest.approx(3 * cs["A"], abs=1e-13)
    for j3 in range(3):
        x = "".join("X" if k == j3 else "I" for k in range(3))
        assert dec[x].real == pytest.approx(cs["B"], abs=1e-13)
        xx = "".join("X" if k in (j3, (j3 + 1) % 3) else "I" for k in range(3))
        assert dec[xx].real == pytest.approx(cs["nu1"], abs=1e-13)
    assert dec["XXX"].real == pytest.approx(3 * cs["nu3"], abs=1e-13)
    others = {s: c for s, c in dec.nonzero(1e-12).items() if set(s) - {"I", "X"}}
    assert not others


def test_covariance_section_builds_the_bare_partition_once(monkeypatch):
    """Ten rotations against one unrotated model: ten rotated partitions
    and one bare one."""
    calls = []
    partition = raman.partition
    monkeypatch.setattr(raman, "partition",
                        lambda *args: calls.append(args) or partition(*args))
    draws = conformance.covariance_section(10, 3)
    assert len(draws) == 10 and len(calls) == 11
    assert max(d["residual"] for d in draws) <= 1e-11


def test_covariance_check_rebuilds_for_other_operators():
    h0, v, m = _setup()
    g = SU2Rotation(phi=0.5, theta=0.8)
    covariance_check(h0, v, [g], m)
    h0_u, v_u, m_u = _setup(uu=1.4, dd=0.8)
    # the unequal-U model's own residual, not one against another model's
    # bare orders: the same value as from a check that follows another
    # model
    [first] = covariance_check(h0_u, v_u, [g], m_u)
    covariance_check(h0, v, [SU2Rotation(0.1, 0.2)], m)
    assert covariance_check(h0_u, v_u, [g], m_u) == [first]
    assert first > 1e-6
    assert covariance_check(h0, v, [g], m)[0] <= 1e-11


@pytest.mark.parametrize("uu, dd", [(U, U), (1.4, 0.8)])
def test_covariance_check_of_a_list_equals_single_rotations(uu, dd):
    h0, v, m = _setup(uu=uu, dd=dd)
    g1, g2 = SU2Rotation(0.5, 0.8), SU2Rotation(2.9, 0.3)
    pair = covariance_check(h0, v, [g1, g2], m)
    singles = covariance_check(h0, v, [g1], m) + covariance_check(h0, v, [g2], m)
    assert len(pair) == 2
    assert np.array(pair).tobytes() == np.array(singles).tobytes()
    assert covariance_check(h0, v, [], m) == []


def test_verification_covariance_lists_the_rotations_in_draw_order():
    seed = 11
    rng = np.random.default_rng(seed + 1)
    want = []
    for _ in range(10):
        phi = float(rng.uniform(0, 2 * math.pi))
        want.append((phi, float(rng.uniform(0, math.pi))))
    report = conformance.run_verification(n_draws=0, seed=seed)
    assert [(d["phi"], d["theta"]) for d in report["covariance"]] == want
    assert max(d["residual"] for d in report["covariance"]) <= 1e-11
