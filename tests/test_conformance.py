import pytest

from trispin import conformance
from trispin.conformance import (formula_tolerance, oracle_tolerance,
                                 run_triangle_draw, run_verification,
                                 scaling_ladder)
from trispin.fock import Statistics
from trispin.hubbard import HubbardParams


def _uniform(statistics, j):
    return HubbardParams.uniform(
        statistics, 3, j, 0.5 * j, u_updn=1.0,
        u_upup=None if statistics is Statistics.FERMION else 1.0,
        u_dndn=None if statistics is Statistics.FERMION else 1.0)


def test_regime_guards():
    with pytest.raises(ValueError, match="hard cap"):
        run_triangle_draw(_uniform(Statistics.FERMION, 0.55))
    for draw in run_triangle_draw(_uniform(Statistics.FERMION, 0.4)):
        assert any("perturbative-regime" in w for w in draw["warnings"])


def test_tolerances_scale_with_fourth_power():
    assert formula_tolerance(0.1, 1.0) == pytest.approx(1e-6)
    assert formula_tolerance(1e-4, 1.0) == 1e-12
    assert oracle_tolerance(0.05, 2.0) == pytest.approx(200 * 0.05 ** 4 * 2)


def test_scaling_ladder_sections():
    section = scaling_ladder(Statistics.BOSON)
    assert [r["j_over_u"] for r in section["rows"]] == [0.08, 0.04, 0.02,
                                                        0.01]
    assert section["fitted_power"] >= 0.9
    assert all(r["condition_number"] < 1e3 for r in section["rows"])


def test_full_report_structure():
    report = run_verification(n_draws=1, seed=11)
    assert report["ok"] is True
    assert set(report["scaling"]) == {"boson", "fermion"}
    assert len(report["covariance"]) == 10
    assert len(report["covariance_unequal_u"]) == 4
    assert max(d["residual"] for d in report["covariance"]) <= 1e-11
    # broken-symmetry residuals are reported as data
    assert max(d["residual"] for d in report["covariance_unequal_u"]) > 1e-9


def test_draw_tolerances_use_lowest_collision_energy():
    params = HubbardParams.uniform(Statistics.BOSON, 3, 0.04, 0.02,
                                   u_updn=1.0, u_upup=0.8, u_dndn=1.2)
    for draw in run_triangle_draw(params):
        assert draw["j_over_u"] == pytest.approx(0.05)
        assert draw["tolerance"] == pytest.approx(formula_tolerance(0.05, 1.0))
    for fermion in run_triangle_draw(_uniform(Statistics.FERMION, 0.04)):
        assert fermion["j_over_u"] == pytest.approx(0.04)


def test_one_derivation_per_draw(monkeypatch):
    """Both audit variants of a draw share one derivation: two draws, a
    four-point ladder for each statistics and two covariance sections."""
    calls = []
    derive = conformance.derive
    monkeypatch.setattr(conformance, "derive",
                        lambda *args: calls.append(args) or derive(*args))
    run_verification(n_draws=1, seed=11)
    assert len(calls) == 2 + 2 * 4 + 2


def test_draw_variants_share_the_engine():
    params = HubbardParams.uniform(Statistics.FERMION, 3, 0.05, -0.02)
    certified, printed = run_triangle_draw(params)
    assert (printed["adiabatic_vs_engine"]
            == certified["adiabatic_vs_engine"])
    assert certified["n_failed"] == 0 and printed["n_failed"] > 0


def test_verification_has_no_false_oracle_alarm_at_seed_4():
    # seed 4 draws a bosonic triangle with U_min = 0.81 whose fourth-order
    # tail exceeds the oracle tolerance taken at the cross channel U = 1
    assert run_verification(seed=4)["ok"] is True


def test_bosonic_printed_variant_reuses_the_certified_audit(monkeypatch):
    """For bosons the printed list is the certified one: one closed-form
    evaluation and string comparison per draw, reported twice as copies."""
    calls = []
    expected = conformance.closedform.expected_string_coefficients
    monkeypatch.setattr(conformance.closedform,
                        "expected_string_coefficients",
                        lambda c: calls.append(c) or expected(c))
    bosons = _uniform(Statistics.BOSON, 0.04)
    certified, printed = run_triangle_draw(bosons)
    assert len(calls) == 1
    assert printed == certified
    assert printed["strings"] is not certified["strings"]
    assert all(a is not b for a, b in zip(printed["strings"],
                                          certified["strings"]))
    run_triangle_draw(_uniform(Statistics.FERMION, 0.04))
    assert len(calls) == 3
