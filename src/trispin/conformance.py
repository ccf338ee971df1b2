"""Cross-oracle verification: engine vs closed forms vs exact elimination.

The perturbative engine and the adiabatic elimination are the two
authorities; closed-form coupling sets are audited against them string
by string.  The "printed" audit variant (a transcription of the
fermionic coupling list that circulates with both three-spin signs
flipped; for bosons it is the certified list, so a bosonic draw reports
a copy of its certified audit) is evaluated alongside the certified
formulas, and every discrepancy is recorded with the engine-derived
replacement value instead of being patched silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closedform
from .adiabatic import eliminate, series_compare
from .fock import Species, Statistics
from .hubbard import HubbardParams, derive, make_triangle
from .perturb import (check_engine, partition, pauli_decompose,
                      second_order, spectral_norm, third_order)
from .raman import SU2Rotation, covariance_check

SOFT_REGIME_LIMIT = 0.3
HARD_REGIME_LIMIT = 0.5


def formula_tolerance(j_over_u, u_scale):
    """Order tolerance for engine-vs-formula comparisons: the closed
    forms are exact only through third order."""
    return max(1e-12, 1e-2 * j_over_u ** 4 * u_scale)


def oracle_tolerance(j_over_u, u_scale):
    """Bound on the engine-vs-elimination residual: the all-orders
    elimination differs from the order-3 engine by the genuine
    fourth-order tail.  The prefactor is a frozen regression constant
    measured on triangle draws (observed coefficients reach ~110 when
    the same-species channels dip to 0.8 of the cross channel)."""
    return 200.0 * j_over_u ** 4 * u_scale


def audit_couplings(params, variant):
    """Coupling set for an audit variant of a family."""
    if params.statistics is Statistics.FERMION:
        if variant == "certified":
            return closedform.fermionic_couplings(params)
        if variant == "printed":
            return closedform.fermionic_couplings(params, three_spin_sign=-1.0)
    else:
        if variant in ("certified", "printed"):
            return closedform.bosonic_couplings(params)
    raise ValueError(f"unknown audit variant {variant!r}")


def engine_decomposition(graph, params):
    """A derivation's partition, orders 2 and 3 and their Pauli terms."""
    p = check_engine(partition(*derive(graph, params)))
    h2, h3 = second_order(p), third_order(p)
    return p, h2, h3, pauli_decompose(h2 + h3)


def _compare_strings(engine_dec, expected, tol):
    entries = []
    n_fail = 0
    strings = sorted(set(expected) | set(engine_dec.nonzero(1e-13)))
    for string in strings:
        want = complex(expected.get(string, 0.0))
        got = engine_dec[string]
        delta = abs(got - want)
        ok = delta <= tol
        n_fail += not ok
        entries.append({
            "pauli": string,
            "engine_re": float(got.real),
            "formula_re": float(want.real),
            "abs_error": float(delta),
            "pass": bool(ok),
        })
    return entries, n_fail


@dataclass
class DrawResult:
    family: str
    j_over_u: float
    tolerance: float
    entries: list
    n_failed: int
    adiabatic_vs_engine: float
    warnings: list

    def to_json_dict(self):
        return {
            "family": self.family,
            "j_over_u": self.j_over_u,
            "tolerance": self.tolerance,
            "n_failed": self.n_failed,
            "adiabatic_vs_engine": self.adiabatic_vs_engine,
            "warnings": self.warnings,
            "strings": self.entries,
        }


def run_triangle_draw(params, variants=("certified",), j_over_u=None):
    """Audit one parameter draw: engine vs formulas vs elimination.

    One ``DrawResult`` per variant, all from one derivation.
    ``j_over_u`` defaults to the largest |J| over the smallest nonzero
    collision energy of the draw, since the fourth-order tail that both
    tolerances bound grows as J^4 / U_min^3.
    """
    graph = make_triangle()
    warnings = []
    if j_over_u is None:
        mags = [abs(params.j(l, s)) for l in range(3)
                for s in (Species.UP, Species.DOWN)]
        u_min = min(abs(u) for u in (params.u_upup, params.u_dndn,
                                     params.u_updn) if u)
        j_over_u = max(mags) / u_min
    if j_over_u > HARD_REGIME_LIMIT:
        raise ValueError("tunneling beyond the perturbative hard cap")
    if j_over_u > SOFT_REGIME_LIMIT:
        warnings.append(f"perturbative-regime warning: J/U = {j_over_u:.3g}")
    p, h2, h3, engine_dec = engine_decomposition(graph, params)
    exact = eliminate(p)
    residual = float(spectral_norm(exact.h_eff.matrix
                                   - (h2.matrix + h3.matrix)))
    tol = formula_tolerance(j_over_u, 1.0)
    audited = {}
    results = []
    for variant in variants:
        # a bosonic draw's printed list is its certified one
        same_as = ("certified" if variant == "printed"
                   and params.statistics is Statistics.BOSON else variant)
        if same_as not in audited:
            couplings = audit_couplings(params, same_as)
            expected = closedform.expected_string_coefficients(couplings)
            audited[same_as] = (couplings.family,
                                *_compare_strings(engine_dec, expected, tol))
        family, entries, n_fail = audited[same_as]
        results.append(DrawResult(family, j_over_u, tol,
                                  [dict(e) for e in entries], n_fail,
                                  residual, list(warnings)))
    return results


def random_triangle_params(statistics, rng, j_scale, u_ratios=(1.0, 1.0)):
    tun = {}
    for link in range(3):
        tun[(link, Species.UP)] = complex(rng.uniform(-1, 1) * j_scale)
        tun[(link, Species.DOWN)] = complex(rng.uniform(-1, 1) * j_scale)
    if statistics is Statistics.FERMION:
        return HubbardParams(statistics, tunneling=tun)
    return HubbardParams(statistics, u_upup=u_ratios[0], u_dndn=u_ratios[1],
                         tunneling=tun)


def scaling_ladder(statistics, j_over_u_values):
    """Adiabatic-vs-engine residual across a tunneling ladder at U = 1 and
    J_dn = J_up / 2; the decrease should follow (J/U)^4 against the
    (J/U)^3 engine norm."""
    graph = make_triangle()
    same_species = None if statistics is Statistics.FERMION else 1.0
    rows = []
    for s in j_over_u_values:
        params = HubbardParams.uniform(statistics, 3, s, 0.5 * s,
                                       u_upup=same_species,
                                       u_dndn=same_species)
        compared = series_compare(*derive(graph, params))
        rows.append({
            "j_over_u": s,
            "residual": float(compared["adiabatic_vs_engine"]),
            "engine_third_norm": float(compared["engine_third_norm"]),
            "series_vs_engine": float(compared["series_vs_engine"]),
            "condition_number": compared["condition_number"],
        })
    ratios = [r["residual"] / max(r["engine_third_norm"], 1e-300)
              for r in rows]
    xs = np.log(np.asarray(j_over_u_values))
    fitted = float(np.polyfit(xs, np.log(np.maximum(ratios, 1e-300)), 1)[0])
    return {"rows": rows, "relative_residuals": ratios,
            "fitted_power": fitted}


def covariance_section(n_draws, seed, u_ratios=(1.0, 1.0)):
    """Covariance residuals for random rotations at J_up = 0.05,
    J_dn = 0.03 and U_updn = 1.  Exact only with species-blind collision
    energies; unequal-U residuals are recorded as data, not asserted."""
    rng = np.random.default_rng(seed)
    params = HubbardParams.uniform(Statistics.BOSON, 3, 0.05, 0.03,
                                   u_upup=u_ratios[0], u_dndn=u_ratios[1])
    h0, v, m = derive(make_triangle(), params)
    rotations = [SU2Rotation(phi=float(rng.uniform(0, 2 * math.pi)),
                             theta=float(rng.uniform(0, math.pi)))
                 for _ in range(n_draws)]
    residuals = covariance_check(h0, v, rotations, m)
    return [{"phi": g.phi, "theta": g.theta, "residual": float(residual)}
            for g, residual in zip(rotations, residuals)]


def run_verification(n_draws=20, seed=2024, j_over_u=0.05):
    """Full cross-oracle report; hard failures are oracle disagreements,
    never formula mismatches (those are listed with replacements)."""
    rng = np.random.default_rng(seed)
    report = {"j_over_u": j_over_u, "draws": [], "hard_failures": []}
    for statistics in (Statistics.FERMION, Statistics.BOSON):
        for _ in range(n_draws):
            params = random_triangle_params(
                statistics, rng, j_over_u,
                u_ratios=(rng.uniform(0.8, 1.4), rng.uniform(0.8, 1.4)))
            certified, audit = run_triangle_draw(params,
                                                 ("certified", "printed"))
            if certified.adiabatic_vs_engine > oracle_tolerance(
                    certified.j_over_u, 1.0):
                report["hard_failures"].append({
                    "kind": "oracle_disagreement",
                    "family": certified.family,
                    "residual": certified.adiabatic_vs_engine,
                })
            report["draws"].append({
                "statistics": statistics.value,
                "certified": certified.to_json_dict(),
                "printed_variant": audit.to_json_dict(),
            })
    report["scaling"] = {
        stats.value: scaling_ladder(stats, (0.08, 0.04, 0.02, 0.01))
        for stats in (Statistics.FERMION, Statistics.BOSON)
    }
    report["covariance"] = covariance_section(10, seed + 1)
    report["covariance_unequal_u"] = covariance_section(
        4, seed + 2, u_ratios=(1.3, 0.8))
    worst = max((d["residual"] for d in report["covariance"]), default=0.0)
    if worst > 1e-11:
        report["hard_failures"].append({"kind": "covariance",
                                        "residual": worst})
    for stats, section in report["scaling"].items():
        if section["fitted_power"] < 0.9:
            report["hard_failures"].append({
                "kind": "scaling", "statistics": stats,
                "fitted_power": section["fitted_power"]})
        if max(r["series_vs_engine"] for r in section["rows"]) > 1e-12:
            report["hard_failures"].append({
                "kind": "series_mismatch", "statistics": stats})
    report["ok"] = not report["hard_failures"]
    return report
