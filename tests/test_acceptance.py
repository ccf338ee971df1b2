"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Where cross-oracle certification showed a closed-form transcription
defect (fermionic three-spin signs, the triple-product coefficient of
the x-quantized chain, the operator content at the chirality point),
the criterion is asserted against the two-oracle-certified value and
the deviation from the transcribed variant is itself asserted and
reported, never silently absorbed.
"""

import math
import subprocess
import sys
import time

import numpy as np

from trispin import chainlab, closedform, pauli
from trispin.conformance import (formula_tolerance, random_triangle_params,
                                 run_triangle_draw, scaling_ladder)
from trispin.fock import Species, Statistics, enumerate_basis
from trispin.hubbard import (HubbardParams, build_h0, build_v, build_v_mixed,
                             hilbert_basis, make_triangle, make_zigzag,
                             projector_single_occupancy)
from trispin.perturb import pauli_decompose
from trispin.raman import SU2Rotation, covariance_check

from engine_reference import h_eff_up_to_third
from evolution_reference import validate_by_evolution
from spin_reference import zzz_ground_space_bruteforce

U = 1.0
TWO_ROOT_THREE = 2 * math.sqrt(3.0)


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def _triangle(statistics, j_up, j_dn, uu=U, dd=U, ud=U):
    tun = {}
    for link in range(3):
        tun[(link, Species.UP)] = complex(j_up)
        tun[(link, Species.DOWN)] = complex(j_dn)
    if statistics is Statistics.FERMION:
        params = HubbardParams(statistics, u_updn=ud, tunneling=tun)
    else:
        params = HubbardParams(statistics, u_upup=uu, u_dndn=dd, u_updn=ud,
                               tunneling=tun)
    graph = make_triangle()
    basis = hilbert_basis(graph, params)
    h0 = build_h0(basis, params)
    v = build_v(basis, graph, params)
    return h0, v


def test_criterion_1_state_counting():
    start = time.monotonic()
    basis = enumerate_basis(3, Statistics.BOSON)
    singles = projector_single_occupancy(basis)
    elapsed = time.monotonic() - start
    ok = len(basis) == 56 and len(singles) == 8 and elapsed < 1.0
    report(1, ok, f"dim {len(basis)} = 56, single-occupancy {len(singles)}"
                  f" = 8, {elapsed:.3f} s < 1 s")


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    powers = {}
    series_worst = 0.0
    for statistics in Statistics:
        section = scaling_ladder(statistics)
        powers[statistics.value] = section["fitted_power"]
        series_worst = max(series_worst,
                           max(r["series_vs_engine"] for r in section["rows"]))
    elapsed = time.monotonic() - start
    ok = (all(p >= 0.9 for p in powers.values())
          and series_worst <= 1e-12 and elapsed < 10.0)
    report(2, ok, f"relative-residual power fits {powers} (need >= 0.9), "
                  f"truncated series vs engine {series_worst:.2e} <= 1e-12, "
                  f"{elapsed:.2f} s < 10 s")


THREE_SPIN_STRINGS = {
    "ZII", "IZI", "IIZ", "ZZZ",
    "XZX", "XXZ", "ZXX", "YZY", "YYZ", "ZYY",
}


def test_criterion_3_fermionic_formula_conformance():
    rng = np.random.default_rng(101)
    j_over_u = 0.05
    tol = 0.0
    audit_findings = 0
    for _ in range(20):
        params = random_triangle_params(Statistics.FERMION, rng, j_over_u)
        certified, audit = run_triangle_draw(params)
        assert certified.n_failed == 0, "certified couplings must match"
        tol = max(tol, certified.tolerance)
        flagged = {e["pauli"] for e in audit.entries if not e["pass"]}
        assert flagged <= THREE_SPIN_STRINGS, (
            "only the three-spin sign findings may differ from the "
            f"transcribed variant, got {flagged}")
        audit_findings += len(flagged)
    # vanishing claim: species-symmetric tunneling (per link) kills all
    # three-spin terms regardless of any sign convention
    tun = {}
    rng2 = np.random.default_rng(7)
    for link in range(3):
        j = complex(rng2.uniform(0.02, 0.05))
        tun[(link, Species.UP)] = j
        tun[(link, Species.DOWN)] = j
    params = HubbardParams(Statistics.FERMION, u_updn=U, tunneling=tun)
    graph = make_triangle()
    basis = hilbert_basis(graph, params)
    dec = pauli_decompose(h_eff_up_to_third(
        build_h0(basis, params), build_v(basis, graph, params)))
    vanish = max(abs(dec[s]) for s in THREE_SPIN_STRINGS)
    ok = vanish <= 1e-14 and audit_findings > 0
    report(3, ok, f"20/20 draws match certified couplings at tol {tol:.2e}; "
                  f"three-spin sign findings recorded on the transcribed "
                  f"variant ({audit_findings} string entries); symmetric-"
                  f"tunneling three-spin residue {vanish:.2e} <= 1e-14")


def test_criterion_4_bosonic_formula_conformance():
    rng = np.random.default_rng(202)
    j_over_u = 0.05
    tol = formula_tolerance(j_over_u, U)
    report_rows = []
    worst_oracle = 0.0
    for _ in range(20):
        params = random_triangle_params(
            Statistics.BOSON, rng, j_over_u,
            u_ratios=(rng.uniform(0.8, 1.4), rng.uniform(0.8, 1.4)))
        draw, _ = run_triangle_draw(params)
        report_rows.append(draw.to_json_dict())
        worst_oracle = max(worst_oracle, draw.adiabatic_vs_engine)
        assert draw.n_failed == 0
        # a draw's own tolerance is taken at its U_min, which may be
        # below U; the strings also meet the tolerance at U
        assert max(e["abs_error"] for e in draw.entries) <= tol
    complete = all(row["strings"] for row in report_rows)
    oracle_ok = worst_oracle <= 200.0 * j_over_u ** 4 * U
    ok = complete and oracle_ok
    report(4, ok, f"20/20 draws conform; report complete with "
                  f"{sum(len(r['strings']) for r in report_rows)} string "
                  f"entries; worst engine-vs-elimination residual "
                  f"{worst_oracle:.2e} within the fourth-order bound")


def test_criterion_5_raman_covariance_and_rotated_xy():
    h0, v = _triangle(Statistics.BOSON, 0.05, 0.03)
    rng = np.random.default_rng(303)
    rotations = [SU2Rotation(phi=float(rng.uniform(0, 2 * math.pi)),
                             theta=float(rng.uniform(0, math.pi)))
                 for _ in range(10)]
    worst = max(covariance_check(h0, v, rotations))
    j = 0.05
    gm = SU2Rotation(0.0, math.pi / 4).matrix
    k = gm.conj().T @ np.diag([j, 0.0]) @ gm
    v_rot = build_v_mixed(v.basis, make_triangle(),
                          {link: k for link in range(3)})
    dec = pauli_decompose(h_eff_up_to_third(h0, v_rot))
    tol = formula_tolerance(j, U)
    stated = {
        "A": -3 * j ** 2 / (2 * U) - 3 * j ** 3 / U ** 2,
        "B": -2 * j ** 2 / U - 11 * j ** 3 / (2 * U ** 2),
        "nu1": -j ** 2 / (2 * U) - 3 * j ** 3 / U ** 2,
        "nu3": -j ** 3 / (6 * U ** 2),
    }
    checks = {
        "A": abs(dec["III"].real - 3 * stated["A"]),
        "B": abs(dec["XII"].real - stated["B"]),
        "nu1": abs(dec["XXI"].real - stated["nu1"]),
        # certified three-spin coefficient is exactly three times the
        # transcribed nu3; pin the factor rather than smear the tolerance
        "nu3x3": abs(dec["XXX"].real - 3 * (3 * stated["nu3"])),
    }
    ratio = dec["XXX"].real / (3 * stated["nu3"])
    ok = worst <= 1e-11 and all(d <= tol for d in checks.values())
    report(5, ok, f"covariance residual {worst:.2e} <= 1e-11 over 10 draws; "
                  f"rotated-XY point reproduces A, B, nu1 as stated and the "
                  f"triple-product coefficient at exactly {ratio:.6f}x the "
                  f"stated nu3 (two-oracle certified factor 3)")


def test_criterion_6_chirality_point():
    magnitude = 0.05
    params = closedform.chirality_point_params(magnitude, U)
    graph = make_triangle()
    basis = hilbert_basis(graph, params)
    h0 = build_h0(basis, params)
    v = build_v(basis, graph, params)
    h = h_eff_up_to_third(h0, v)
    dec = pauli_decompose(h)
    tau4 = magnitude ** 3 / U ** 2
    # compensating single-site field (part of the proposal) removed
    matrix = h.matrix.copy()
    for site in range(3):
        string = "".join("Z" if k == site else "I" for k in range(3))
        matrix -= dec[string] * pauli.string_matrix(string)
    comp = pauli_decompose(matrix)
    exchange_strings = {"XYI", "YXI", "IXY", "IYX", "XIY", "YIX"}
    epsilon_strings = {p for p, _ in closedform.EPSILON_PATTERNS}
    strange = max((abs(c) for s, c in comp.coeffs.items()
                   if s not in exchange_strings), default=0.0)
    eps_weight = max(abs(comp[s]) for s in epsilon_strings)
    chiral_weights = [abs(comp[s]) for s in exchange_strings]
    evals = np.linalg.eigvalsh(matrix)
    spectrum_err = np.abs(
        evals - tau4 * np.array([-TWO_ROOT_THREE] * 2 + [0.0] * 4
                                + [TWO_ROOT_THREE] * 2)).max()
    evecs = np.linalg.eigh(matrix)[1][:, :2]
    overlaps = {}
    for sector, positions in (("+1/2", (1, 2, 4)), ("-1/2", (6, 5, 3))):
        best = 0.0
        best_tag = None
        for tag, omega in (("omega", np.exp(2j * np.pi / 3)),
                           ("conj", np.exp(-2j * np.pi / 3))):
            vec = chainlab.circulating_state(positions, omega)
            value = float(np.linalg.norm(evecs.conj().T @ vec))
            if value > best:
                best, best_tag = value, tag
        overlaps[sector] = (best_tag, best)
    ok = (strange <= 1e-12 * tau4
          and all(abs(w - tau4) <= 1e-12 for w in chiral_weights)
          and eps_weight <= 1e-12 * tau4
          and spectrum_err <= 1e-10
          and all(val >= 1 - 1e-10 for _, val in overlaps.values()))
    report(6, ok,
           f"chiral content isolated as the antisymmetric-exchange sum with "
           f"|coefficient| = tau4 = |J|^3/U^2 (three-site mixed-product "
           f"strings carry zero weight: {eps_weight:.1e}); spectrum "
           f"{{-2sqrt3, 0x4, +2sqrt3}}*tau4 to {spectrum_err:.1e} <= 1e-10; "
           f"ground circulating overlaps {overlaps}")


def test_criterion_7_zzz_chain_and_duality():
    start = time.monotonic()
    for n in (6, 12):
        e0, configs = zzz_ground_space_bruteforce(n)
        assert e0 == -n and len(configs) == 4, f"n={n} manifold"
    grid = np.arange(0.5, 1.51, 0.05)
    scan = chainlab.duality_scan(grid, 12)
    elapsed = time.monotonic() - start
    ok = abs(scan.argmin_bx - 1.0) <= 0.05 and elapsed < 60.0
    report(7, ok, f"ground energy -n with fourfold degeneracy at n = 6, 12 "
                  f"(exact diagonal oracle); gap-scan argmin at Bx = "
                  f"{scan.argmin_bx:.2f} within 5% of 1; {elapsed:.1f} s < 60 s")


def test_criterion_8_zigzag_nnn_terms():
    graph = make_zigzag(4)
    rng = np.random.default_rng(404)
    tun = {}
    for edge in graph.edges:
        tun[(edge.link, Species.UP)] = complex(rng.uniform(0.02, 0.05))
        tun[(edge.link, Species.DOWN)] = complex(rng.uniform(0.02, 0.05))
    params = HubbardParams(Statistics.FERMION, u_updn=U, tunneling=tun)
    basis = hilbert_basis(graph, params)
    dec = pauli_decompose(h_eff_up_to_third(
        build_h0(basis, params), build_v(basis, graph, params)))
    found = chainlab.detect_nnn_terms(dec, graph)
    zz_peak = max(abs(c) for c in found.detected_zz.values())
    compensated_peak = max(abs(found.compensated[s])
                           for s in found.detected_zz)
    for edge in graph.edges:
        if abs(edge.to - edge.frm) == 2:
            tun[(edge.link, Species.UP)] = 0.0
    params = HubbardParams(Statistics.FERMION, u_updn=U, tunneling=tun)
    basis = hilbert_basis(graph, params)
    dec = pauli_decompose(h_eff_up_to_third(
        build_h0(basis, params), build_v(basis, graph, params)))
    found = chainlab.detect_nnn_terms(dec, graph)
    xy_peak = max((abs(c) for s, c in found.detected.items()
                   if {ch for ch in s if ch != "I"} <= {"X", "Y"}),
                  default=0.0)
    ok = zz_peak > 1e-5 and compensated_peak == 0.0 and xy_peak <= 1e-12
    report(8, ok, f"distance-2 ZZ coefficient {zz_peak:.2e} detected and "
                  f"compensated to {compensated_peak}; deactivating the "
                  f"up-species longitudinal hopping leaves distance-2 "
                  f"exchange at {xy_peak:.2e} <= 1e-12")


def test_criterion_9_evolution_validation_order():
    # asymptotic window at fixed Ut = 50: (Jt)-corrections die out below
    # J/U ~ 0.02 and the genuine fourth-order scaling shows
    ladder = (0.02, 0.01, 0.005)
    residuals = []
    for j in ladder:
        h0, v = _triangle(Statistics.BOSON, j, 0.6 * j)
        heff = h_eff_up_to_third(h0, v)
        residuals.append(validate_by_evolution(h0, v, heff, t=50.0 / U))
    slope = float(np.polyfit(np.log(ladder), np.log(residuals), 1)[0])
    ok = slope >= 3.7
    report(9, ok, f"fitted residual order {slope:.2f} >= 3.7 in J at "
                  f"Ut = 50 over J/U = {ladder}")


def test_criterion_10_scan_determinism():
    args = [sys.executable, "-m", "trispin.cli", "scan", "--family",
            "bosonic", "--uuu", "1", "--udd", "1", "--u", "1",
            "--j-up-min", "0.005", "--j-up-max", "0.1", "--j-up-steps", "25",
            "--j-dn-min", "0.0", "--j-dn-max", "0.1", "--j-dn-steps", "25"]
    outputs = []
    for _ in range(2):
        run = subprocess.run(args, capture_output=True, text=True)
        assert run.returncode == 0
        outputs.append(run.stdout)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(10, ok, f"scan output byte-identical across repeated runs "
                   f"({len(outputs[0].splitlines())} lines)")
