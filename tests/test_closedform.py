import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispin import closedform
from trispin.conformance import (formula_tolerance, printed_fermionic,
                                 random_triangle_params)
from trispin.fock import Species, Statistics
from trispin.hubbard import (HubbardParams, build_h0, build_v, build_v_mixed,
                             hilbert_basis, make_triangle)
from trispin.perturb import pauli_decompose
from trispin.raman import SU2Rotation

from engine_reference import h_eff_up_to_third
from spin_reference import chirality_operator

U = 1.0


def _uniform_params(statistics, j_up, j_dn, uu=U, dd=U, ud=U):
    tun = {}
    for link in range(3):
        tun[(link, Species.UP)] = complex(j_up)
        tun[(link, Species.DOWN)] = complex(j_dn)
    if statistics is Statistics.FERMION:
        return HubbardParams(statistics, u_updn=ud, tunneling=tun)
    return HubbardParams(statistics, u_upup=uu, u_dndn=dd, u_updn=ud,
                         tunneling=tun)


def test_bosonic_equal_parameters_has_no_three_spin_term():
    # the triple-product coupling is odd under the species swap, so it
    # vanishes identically at species-symmetric parameters
    cs = closedform.bosonic_couplings(_uniform_params(Statistics.BOSON,
                                                      0.1, 0.1))
    assert cs["lambda3"] == pytest.approx(0.0, abs=1e-18)


def test_bosonic_single_species_values():
    j = 0.1
    cs = closedform.bosonic_couplings(_uniform_params(Statistics.BOSON,
                                                      j, 0.0))
    assert cs["lambda3"] == pytest.approx(-j ** 3 / (2 * U ** 2))
    assert all(x == pytest.approx(0.0, abs=1e-18) for x in cs["lambda2"])
    assert all(x == pytest.approx(0.0, abs=1e-18) for x in cs["lambda4"])
    assert cs.link("B", 0) == pytest.approx(-2 * j ** 2 / U
                                            - 5.5 * j ** 3 / U ** 2)


def test_bosonic_rejects_zero_or_infinite_u():
    with pytest.raises(ValueError):
        closedform.bosonic_couplings(
            _uniform_params(Statistics.BOSON, 0.1, 0.1, uu=0.0))
    with pytest.raises(ValueError):
        closedform.bosonic_couplings(
            _uniform_params(Statistics.BOSON, 0.1, 0.1, ud=math.inf))


def test_bosonic_rejects_complex_couplings():
    with pytest.raises(ValueError, match="real"):
        closedform.bosonic_couplings(
            _uniform_params(Statistics.BOSON, 0.1j, 0.1))


def test_fermionic_symmetric_tunneling_kills_three_spin_terms():
    cs = closedform.fermionic_couplings(
        _uniform_params(Statistics.FERMION, 0.1, 0.1))
    assert cs["mu3"] == pytest.approx(0.0, abs=1e-16)
    assert all(x == pytest.approx(0.0, abs=1e-16) for x in cs["mu4"])


def test_fermionic_single_species_values():
    j = 0.1
    cs = closedform.fermionic_couplings(
        _uniform_params(Statistics.FERMION, j, 0.0))
    assert all(x == pytest.approx(-j * j / (2 * U)) for x in cs["mu1"])
    assert all(x == pytest.approx(0.0, abs=1e-18) for x in cs["mu2"])
    assert all(x == pytest.approx(0.0, abs=1e-18) for x in cs["mu4"])
    # certified sign: the anticommuting exchange loop makes this +5e-4;
    # the audit transcription carries the opposite sign
    assert cs["mu3"] == pytest.approx(5e-4)
    assert printed_fermionic(cs)["mu3"] == pytest.approx(-5e-4)


def _transcribed_fermionic(params):
    """The fermionic coupling list as it circulates in print, written
    out: mu3 and mu4 carry the opposite sign of the certified ones."""
    ju = [params.j(link, Species.UP).real for link in range(3)]
    jd = [params.j(link, Species.DOWN).real for link in range(3)]
    u = params.u_updn
    return {
        "mu1": tuple(-(ju[j] ** 2 + jd[j] ** 2) / (2 * u) for j in range(3)),
        "mu2": tuple(ju[j] * jd[j] / u for j in range(3)),
        "mu3": -(ju[0] * ju[1] * ju[2] - jd[0] * jd[1] * jd[2]) / (2 * u ** 2),
        "mu4": tuple(3 / (2 * u ** 2)
                     * (ju[j] * ju[(j + 1) % 3] * jd[(j + 2) % 3]
                        - jd[j] * jd[(j + 1) % 3] * ju[(j + 2) % 3])
                     for j in range(3)),
    }


def _bits(value):
    return [float.hex(float(x)) for x in np.atleast_1d(value)]


def test_printed_fermionic_set_is_the_transcribed_formulas():
    """The audit's printed set, the certified one with mu3 and mu4
    negated, has the bits of the transcribed formulas, signed zeros
    included."""
    rng = np.random.default_rng(23)
    draws = [random_triangle_params(Statistics.FERMION, rng, 0.05)
             for _ in range(200)]
    symmetric = _uniform_params(Statistics.FERMION, 0.07, 0.07)
    draws += [symmetric, _uniform_params(Statistics.FERMION, 0.1, 0.0)]
    for params in draws:
        printed = printed_fermionic(closedform.fermionic_couplings(params))
        want = _transcribed_fermionic(params)
        assert printed.family == "fermionic"
        assert set(printed.values) == set(want)
        for name, value in want.items():
            assert _bits(printed[name]) == _bits(value), name
    # species-symmetric tunneling: mu3 is +0.0 certified, -0.0 printed
    mu3 = printed_fermionic(closedform.fermionic_couplings(symmetric))["mu3"]
    assert mu3 == 0.0 and math.copysign(1.0, mu3) == -1.0


def test_species_swap_symmetry_of_families():
    a = closedform.bosonic_couplings(
        _uniform_params(Statistics.BOSON, 0.09, 0.04))
    b = closedform.bosonic_couplings(
        _uniform_params(Statistics.BOSON, 0.04, 0.09))
    assert a["lambda3"] == pytest.approx(-b["lambda3"], abs=1e-18)
    for name in ("A", "lambda1", "lambda2"):
        for j in range(3):
            assert a.link(name, j) == pytest.approx(b.link(name, j))
    fa = closedform.fermionic_couplings(
        _uniform_params(Statistics.FERMION, 0.09, 0.04))
    fb = closedform.fermionic_couplings(
        _uniform_params(Statistics.FERMION, 0.04, 0.09))
    assert fa["mu3"] == pytest.approx(-fb["mu3"], abs=1e-18)
    for j in range(3):
        assert fa.link("mu4", j) == pytest.approx(-fb.link("mu4", j),
                                                  abs=1e-18)
        assert fa.link("mu1", j) == pytest.approx(fb.link("mu1", j))
        assert fa.link("mu2", j) == pytest.approx(fb.link("mu2", j))


def test_complex_requires_imaginary_and_uniform():
    with pytest.raises(ValueError, match="purely imaginary"):
        closedform.complex_tunneling_couplings(
            _uniform_params(Statistics.BOSON, 0.1, 0.05j))
    tun = {(l, Species.UP): 0.1j for l in range(3)}
    tun[(0, Species.UP)] = 0.2j
    for l in range(3):
        tun[(l, Species.DOWN)] = 0.05j
    params = HubbardParams(Statistics.BOSON, U, U, U, tun)
    with pytest.raises(ValueError, match="uniform"):
        closedform.complex_tunneling_couplings(params)


def test_guards_check_every_point_of_array_tunnelings():
    j = np.array([0.02, 0.05, 0.1])
    off = np.array([0, 0, 1e-3])     # only the last point is out of family

    def params(j_up, j_dn):
        return HubbardParams.uniform(Statistics.BOSON, 3, j_up, j_dn,
                                     u_updn=U, u_upup=U, u_dndn=U)

    with pytest.raises(ValueError, match="real"):
        closedform.bosonic_couplings(params(j + 1j * off, j))
    with pytest.raises(ValueError, match="purely imaginary"):
        closedform.complex_tunneling_couplings(params(1j * j + off, 1j * j))
    skewed = params(1j * j, 1j * j)
    skewed.tunneling[(0, Species.UP)] = 1j * (j + off)
    with pytest.raises(ValueError, match="uniform"):
        closedform.complex_tunneling_couplings(skewed)
    assert closedform.bosonic_couplings(params(j, j))["lambda3"].shape == (3,)


def test_complex_fermionic_equal_couplings_keeps_chirality():
    # the flux through the triangle survives species-symmetric imaginary
    # tunneling: tau4 = -3 j^3 / U^2 (the audited transcription instead
    # predicts an antisymmetric difference that would vanish here)
    j = 0.05
    cs = closedform.complex_tunneling_couplings(
        _uniform_params(Statistics.FERMION, 1j * j, 1j * j))
    assert cs["tau4"] == pytest.approx(-3 * j ** 3 / U ** 2)
    assert cs["tau3"] == 0.0
    assert cs["B"] == 0.0


def test_chirality_point_isolates_antisymmetric_exchange():
    params = closedform.chirality_point_params(0.04, 1.0)
    cs = closedform.complex_tunneling_couplings(params)
    tau = 0.04 ** 3
    assert cs["A"] == pytest.approx(0.0, abs=1e-18)
    assert cs["tau1"] == pytest.approx(0.0, abs=1e-18)
    assert cs["tau2"] == pytest.approx(0.0, abs=1e-18)
    assert cs["tau4"] == pytest.approx(0.0, abs=1e-18)
    assert abs(cs["tau3"]) == pytest.approx(tau)
    # the uncompensated single-site field the proposal cancels externally
    assert cs["B"] == pytest.approx(4 * 0.04 ** 2 / 1.0)


def test_rotated_xy_values():
    assert all(v == 0.0 for v in
               closedform.rotated_xy_couplings(0.0, U).values.values())
    j = 0.1
    cs = closedform.rotated_xy_couplings(j, U)
    assert cs["nu1"] == pytest.approx(-0.5 * j ** 2 / U - 3 * j ** 3 / U ** 2)
    assert cs["B"] == pytest.approx(-2e-2 * U - 5.5e-3 * U)
    assert cs["nu3"] == pytest.approx(-j ** 3 / (2 * U ** 2))
    with pytest.raises(ValueError):
        closedform.rotated_xy_couplings(j, 0.0)


def test_fermionic_exchange_annihilates_aligned_state():
    params = _uniform_params(Statistics.FERMION, 0.08, 0.05)
    cs = closedform.fermionic_couplings(params)
    only_mu1 = closedform.CouplingSet("fermionic", {
        "mu1": cs["mu1"], "mu2": (0.0,) * 3, "mu3": 0.0, "mu4": (0.0,) * 3})
    matrix = closedform.build_spin_hamiltonian(only_mu1)
    aligned = np.zeros(8)
    aligned[0] = 1.0
    assert np.abs(matrix @ aligned).max() <= 1e-15


def _tau4_only(tau4):
    return closedform.CouplingSet("complex_fermionic", {
        "A": 0.0, "B": 0.0, "tau1": 0.0, "tau2": 0.0, "tau3": 0.0,
        "tau4": tau4})


def test_tau4_term_matches_chainlab_operator():
    matrix = closedform.build_spin_hamiltonian(_tau4_only(0.7))
    assert np.abs(matrix - 0.7 * chirality_operator(3)).max() <= 1e-14


def test_complex_family_swap_symmetry_structure():
    # the two-site antisymmetric exchange flips under the species swap
    # (its operator is odd under the spin flip), while the three-site
    # mixed-product coefficient is invariant (the operator is a
    # rotation scalar)
    a = closedform.complex_tunneling_couplings(
        _uniform_params(Statistics.BOSON, 0.04j, 0.025j, uu=1.2, dd=0.9))
    b = closedform.complex_tunneling_couplings(
        _uniform_params(Statistics.BOSON, 0.025j, 0.04j, uu=0.9, dd=1.2))
    assert a["tau3"] == pytest.approx(-b["tau3"])
    assert a["tau4"] == pytest.approx(b["tau4"])
    assert a["B"] == pytest.approx(-b["B"])
    for name in ("A", "tau1", "tau2"):
        assert a[name] == pytest.approx(b[name])


def test_hard_core_limit_reproduces_cross_channel_exchange():
    # sending the same-species channels to infinity leaves only the
    # cross-channel processes; the couplings approach their hard-core
    # values at a 1/Lambda rate, and the second-order pieces of those
    # limits coincide with the fermionic cross-channel couplings
    # (identically for ZZ, up to the statistics sign for the exchange)
    ju, jd, ud = 0.06, 0.04, 1.0
    limit_zz = (ju ** 2 + jd ** 2) / (2 * ud) \
        + (ju ** 3 + jd ** 3) / (2 * ud ** 2)
    limit_xx = -ju * jd / ud \
        - 3 * (jd * ju ** 2 + ju * jd ** 2) / (2 * ud ** 2)
    lambdas = (10.0, 100.0, 1000.0)
    dev_zz, dev_xx = [], []
    for lam in lambdas:
        cs = closedform.bosonic_couplings(
            _uniform_params(Statistics.BOSON, ju, jd, uu=lam, dd=lam, ud=ud))
        dev_zz.append(abs(cs.link("lambda1", 0) - limit_zz))
        dev_xx.append(abs(cs.link("lambda2", 0) - limit_xx))
    for dev in (dev_zz, dev_xx):
        exponent = np.polyfit(np.log(lambdas), np.log(dev), 1)[0]
        assert exponent <= -1.0 + 1e-6
    fermi = closedform.fermionic_couplings(
        _uniform_params(Statistics.FERMION, ju, jd, ud=ud))
    assert (ju ** 2 + jd ** 2) / (2 * ud) == pytest.approx(
        -fermi.link("mu1", 0))
    assert -ju * jd / ud == pytest.approx(-fermi.link("mu2", 0))


def test_plateau_point_suppresses_two_spin_diagonal():
    # tuning the same-species channels to 2.12x the cross channel keeps
    # the ZZ coupling far below its untuned size across the scan window
    js = np.linspace(0.02, 0.1, 9)
    tuned = [abs(closedform.bosonic_couplings(
        _uniform_params(Statistics.BOSON, j, j, uu=2.12, dd=2.12,
                        ud=1.0)).link("lambda1", 0)) for j in js]
    untuned = [abs(closedform.bosonic_couplings(
        _uniform_params(Statistics.BOSON, j, j)).link("lambda1", 0))
        for j in js]
    assert max(tuned) <= 0.05 * max(untuned)


def _engine_draws(rng, j_scale):
    """(H0, V, coupling set) of ten random triangles per family: real
    tunnelings of both statistics, imaginary link-uniform ones of both
    statistics (bosons also with U_updn = inf), and one Raman-rotated
    species tunneling at equal collision energies."""
    tri = make_triangle()

    def model(params, couplings, v=None):
        basis = hilbert_basis(tri, params)
        v = build_v(basis, tri, params) if v is None else v(basis)
        return build_h0(basis, params), v, couplings

    for statistics in Statistics:
        for _ in range(10):
            params = random_triangle_params(
                statistics, rng, j_scale,
                u_ratios=(rng.uniform(0.8, 1.3), rng.uniform(0.8, 1.3)))
            if statistics is Statistics.FERMION:
                yield model(params, closedform.fermionic_couplings(params))
            else:
                yield model(params, closedform.bosonic_couplings(params))
    for statistics in Statistics:
        for draw in range(10):
            j_up, j_dn = 1j * rng.uniform(-1, 1, 2) * j_scale
            if statistics is Statistics.FERMION:
                params = _uniform_params(statistics, j_up, j_dn,
                                         ud=rng.uniform(0.8, 1.3))
            else:
                ud = math.inf if draw % 3 == 2 else rng.uniform(0.8, 1.3)
                params = _uniform_params(statistics, j_up, j_dn,
                                         *rng.uniform(0.8, 1.3, 2), ud=ud)
            yield model(params,
                        closedform.complex_tunneling_couplings(params))
    rotation = SU2Rotation(phi=0.0, theta=math.pi / 4).matrix
    for _ in range(10):
        j = rng.uniform(-1, 1) * j_scale
        k = rotation.conj().T @ np.diag([j, 0.0]) @ rotation
        yield model(_uniform_params(Statistics.BOSON, j, 0.0),
                    closedform.rotated_xy_couplings(j, U),
                    lambda basis: build_v_mixed(basis, tri,
                                                {link: k for link in range(3)}))


def test_engine_agreement_over_random_draws():
    # the central conformance property: certified formulas reproduce the
    # engine string by string to the order the expansion claims; both
    # are exact through third order, so they also agree to roundoff,
    # which pins every row of the term tables (the complex families' tau3
    # and tau4 rows among them) on its sites
    rng = np.random.default_rng(42)
    j_scale = 0.05
    tol = formula_tolerance(j_scale, U)
    families = set()
    for h0, v, cs in _engine_draws(rng, j_scale):
        dec = pauli_decompose(h_eff_up_to_third(h0, v))
        expected = closedform.expected_string_coefficients(cs)
        strings = set(expected) | set(dec.nonzero(1e-13))
        worst = max(abs(dec[s] - expected.get(s, 0.0)) for s in strings)
        assert worst <= tol, cs.family
        assert worst <= 1e-13 * max(map(abs, expected.values())), cs.family
        families.add(cs.family)
    assert families == set(closedform.TRIANGLE_TERMS)


def test_expected_strings_match_decomposition():
    rng = np.random.default_rng(3)
    sets = [
        closedform.fermionic_couplings(
            random_triangle_params(Statistics.FERMION, rng, 0.05)),
        closedform.bosonic_couplings(
            random_triangle_params(Statistics.BOSON, rng, 0.05,
                                   u_ratios=(1.1, 0.9))),
        closedform.complex_tunneling_couplings(
            _uniform_params(Statistics.BOSON, 0.04j, 0.025j, uu=1.2, dd=0.9)),
        closedform.complex_tunneling_couplings(
            _uniform_params(Statistics.FERMION, 0.04j, 0.025j)),
        closedform.rotated_xy_couplings(0.1, U),
        _tau4_only(0.7),
    ]
    for cs in sets:
        # the summed term list against the decomposition of its matrix,
        # which carries only summation roundoff on the other strings
        expected = closedform.expected_string_coefficients(cs)
        tol = 1e-15 * max(abs(c) for c in expected.values())
        matrix = closedform.build_spin_hamiltonian(cs)
        coeffs = pauli_decompose(matrix).coeffs
        for string, c in expected.items():
            assert abs(coeffs[string] - c) <= tol, (cs.family, string)
        for string, c in coeffs.items():
            if string not in expected:
                assert abs(c) <= tol, (cs.family, string)


# A collision energy is accepted when its cube is a finite normal float:
# with |J| <= |U| / 2, the cap of the command line, every closed form is
# then finite.

TINY, HUGE = 1e-103, 1e103      # cubes below the normal range, above max


@pytest.mark.parametrize("u", [0.0, math.inf, -math.inf, math.nan, TINY,
                               -TINY, HUGE, -HUGE, 1e-160, 1e150],
                         ids=str)
def test_collision_energy_out_of_range_is_refused(u):
    j = 1e-3
    calls = [
        lambda: closedform.bosonic_couplings(
            _uniform_params(Statistics.BOSON, j, j, uu=u)),
        lambda: closedform.fermionic_couplings(
            _uniform_params(Statistics.FERMION, j, j, ud=u)),
        lambda: closedform.complex_tunneling_couplings(
            _uniform_params(Statistics.BOSON, 1j * j, 1j * j, dd=u)),
        lambda: closedform.complex_tunneling_couplings(
            _uniform_params(Statistics.FERMION, 1j * j, 1j * j, ud=u)),
        lambda: closedform.rotated_xy_couplings(j, u),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="cube finite and nonzero"):
            call()


def _energy():
    # |U| from the smallest to the largest decade with a normal cube
    return st.builds(lambda sign, exponent, mantissa:
                     sign * mantissa * 10.0 ** exponent,
                     st.sampled_from([-1.0, 1.0]), st.integers(-102, 101),
                     st.floats(3.0, 5.0))


@settings(max_examples=200, deadline=None)
@given(_energy(), _energy(), _energy(), st.floats(-0.5, 0.5),
       st.floats(-0.5, 0.5))
def test_couplings_within_the_cap_are_finite(uu, dd, ud, x_up, x_dn):
    scale = min(abs(uu), abs(dd), abs(ud))
    j_up, j_dn = x_up * scale, x_dn * scale
    sets = [
        closedform.bosonic_couplings(_uniform_params(
            Statistics.BOSON, j_up, j_dn, uu, dd, ud)),
        closedform.fermionic_couplings(_uniform_params(
            Statistics.FERMION, j_up, j_dn, ud=ud)),
        closedform.complex_tunneling_couplings(_uniform_params(
            Statistics.BOSON, 1j * j_up, 1j * j_dn, uu, dd, ud)),
        closedform.complex_tunneling_couplings(_uniform_params(
            Statistics.FERMION, 1j * j_up, 1j * j_dn, ud=ud)),
        closedform.rotated_xy_couplings(x_up * abs(ud), ud),
    ]
    for couplings in sets:
        values = [np.ravel(value) for value in couplings.values.values()]
        assert np.isfinite(np.concatenate(values)).all(), couplings.family
