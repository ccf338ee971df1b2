import json
import os
import subprocess
import sys

import pytest

from trispin.cli import main


def run_cli(args, env_extra=None, config=None, tmp_path=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    cmd = [sys.executable, "-m", "trispin.cli"]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        cmd += ["--config", str(path)]
    cmd += args
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_couplings_fermionic_three_spin_value(capsys):
    code = main(["couplings", "--family", "fermionic", "--j-up", "0.1",
                 "--j-dn", "0", "--u", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "fermionic"
    assert payload["values"]["mu3"] == pytest.approx(5e-4)


def test_couplings_missing_u_exits_2(capsys):
    code = main(["couplings", "--family", "fermionic", "--j-up", "0.1"])
    assert code == 2
    assert "missing required" in capsys.readouterr().err


def test_couplings_bosonic_plateau_point(capsys):
    code = main(["couplings", "--family", "bosonic", "--uuu", "2.12",
                 "--udd", "2.12", "--uud", "1", "--j-up", "0.05",
                 "--j-dn", "0.05"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"]["lambda3"] == pytest.approx(0.0, abs=1e-15)
    assert abs(payload["values"]["lambda1"][0]) < 2e-4


def test_couplings_rotated_xy_needs_no_same_species_energies(capsys):
    code = main(["couplings", "--family", "rotated_xy", "--j-up", "0.1",
                 "--u", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "rotated_xy"
    assert payload["values"]["nu3"] == pytest.approx(-5e-4)


def test_couplings_unknown_family_exits_2(capsys):
    code = main(["couplings", "--family", "nope", "--j-up", "0.1",
                 "--u", "1"])
    assert code == 2
    assert "unknown family 'nope'" in capsys.readouterr().err


def test_scan_with_zero_collision_energies_exits_2(capsys):
    code = main(["scan", "--family", "bosonic", "--u", "0", "--uuu", "0",
                 "--udd", "0", "--j-up-max", "0.05", "--j-up-steps", "2",
                 "--j-dn-max", "0.05", "--j-dn-steps", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonzero collision energy" in captured.err


def test_scan_shape_and_header(capsys):
    code = main(["scan", "--family", "bosonic", "--uuu", "1", "--udd", "1",
                 "--u", "1", "--j-up-min", "0.01", "--j-up-max", "0.1",
                 "--j-up-steps", "10", "--j-dn-min", "0.01",
                 "--j-dn-max", "0.1", "--j-dn-steps", "10"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "j_up,j_dn,A,B,lambda1,lambda2,lambda3,lambda4"
    assert len(lines) == 101


def test_scan_hard_cap(capsys):
    code = main(["scan", "--family", "fermionic", "--u", "1",
                 "--j-up-max", "0.6", "--j-up-steps", "3",
                 "--j-dn-max", "0.1", "--j-dn-steps", "2"])
    assert code == 2
    assert "hard cap" in capsys.readouterr().err


def test_fermionic_scan_cap_ignores_same_species_energies(capsys):
    # the fermionic couplings read U_updn = 1 only, so J/U = 0.1 here
    code = main(["scan", "--family", "fermionic", "--uuu", "0.05",
                 "--udd", "0.05", "--u", "1", "--j-up-max", "0.1",
                 "--j-up-steps", "2", "--j-dn-max", "0.1",
                 "--j-dn-steps", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 5
    assert "J/U" not in captured.err


SCAN_GUARD_GRID = ["--j-up-min", "0.001", "--j-up-max", "0.1",
                   "--j-up-steps", "26", "--j-dn-min", "0.001",
                   "--j-dn-max", "0.1", "--j-dn-steps", "26",
                   "--uuu", "1.1", "--udd", "0.9", "--u", "1"]


@pytest.mark.parametrize("family", ["bosonic", "fermionic",
                                    "complex_bosonic", "complex_fermionic"])
def test_scan_rows_equal_pointwise_couplings(capsys, family):
    # numpy's array ** 2 is x * x, which misses CPython's float ** 2 by
    # 1 ULP on some tunnelings of this grid
    assert main(["scan", "--family", family, *SCAN_GUARD_GRID]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = lines[0].split(",")[2:]
    assert len(lines) == 1 + 26 * 26
    for line in lines[1:]:
        j_up, j_dn, *cells = line.split(",")
        assert main(["couplings", "--family", family, "--j-up", j_up,
                     "--j-dn", j_dn, "--uuu", "1.1", "--udd", "0.9",
                     "--u", "1"]) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        point = [values[n][0] if isinstance(values[n], list) else values[n]
                 for n in names]
        assert cells == [f"{x:.17g}" for x in point], line


TAU4_UNUSABLE = "tau4 = j_mag^3 / u^2 must be finite and nonzero"


@pytest.mark.parametrize("args, message", [
    (["chain", "--bx-step", "0"], "--bx-step must be positive"),
    (["chain", "--bx-step", "-0.1"], "--bx-step must be positive"),
    (["chain", "--bx-min", "1.2", "--bx-max", "0.8"],
     "--bx-min must not exceed --bx-max"),
    (["scan", "--family", "fermionic", "--j-up-max", "0.05",
      "--j-up-steps", "0", "--j-dn-max", "0.05", "--j-dn-steps", "2"],
     "--j-up-steps must be at least 1"),
    (["chain", "--sites", "0"], "--sites must be a positive multiple of 3"),
    (["chain", "--sites", "-3"], "--sites must be a positive multiple of 3"),
    (["chain", "--sites", "4"], "--sites must be a positive multiple of 3"),
    (["chain", "--bx-min", "0"], "--bx-min must be positive"),
    (["chain", "--bx-min", "-0.5"], "--bx-min must be positive"),
    (["chiral", "--j-mag", "0"], "--j-mag must be nonzero"),
    (["chiral", "--u", "inf"], TAU4_UNUSABLE),
    (["chiral", "--u", "0"], TAU4_UNUSABLE),
    (["chiral", "--j-mag", "1e-120"], TAU4_UNUSABLE),
    (["chiral", "--j-mag", "1e200"], TAU4_UNUSABLE),
    (["verify", "--draws", "-1"], "--draws must not be negative"),
    (["scan", "--family", "fermionic", "--j-up-max", "nan",
      "--j-up-steps", "3", "--j-dn-max", "0.05", "--j-dn-steps", "2"],
     "--j-up-max must be a number, not NaN"),
    (["scan", "--family", "fermionic", "--u", "nan", "--j-up-max", "0.05",
      "--j-up-steps", "3", "--j-dn-max", "0.05", "--j-dn-steps", "2"],
     "--uud must be a number, not NaN"),
    (["chain", "--bx-min", "0.5", "--bx-max", "0.5", "--bx-step", "inf"],
     "--bx-step must be finite"),
    (["chain", "--bx-max", "inf"], "--bx-max must be finite"),
], ids=["zero-step", "negative-step", "min-above-max", "zero-steps",
        "zero-sites", "negative-sites", "sites-not-multiple-of-3",
        "zero-bx-min", "negative-bx-min", "zero-j-mag", "infinite-u",
        "zero-u", "underflowing-tau4", "overflowing-tau4", "negative-draws",
        "nan-flag", "nan-energy", "infinite-bx-step", "infinite-bx-max"])
def test_bad_grid_is_a_usage_error(capsys, args, message):
    # rejected with exit 2 before any output is written
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_scan_fermionic_symmetric_diagonal_kills_mu3(capsys):
    code = main(["scan", "--family", "fermionic", "--u", "1",
                 "--j-up-min", "0.02", "--j-up-max", "0.08",
                 "--j-up-steps", "4", "--j-dn-min", "0.02",
                 "--j-dn-max", "0.08", "--j-dn-steps", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    mu3_col = header.index("mu3")
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] == cells[1]:
            assert float(cells[mu3_col]) == 0.0


def test_scan_complex_families(capsys):
    for family in ("complex_bosonic", "complex_fermionic"):
        args = ["scan", "--family", family, "--u", "1",
                "--j-up-min", "0.02", "--j-up-max", "0.06",
                "--j-up-steps", "3", "--j-dn-min", "0.02",
                "--j-dn-max", "0.06", "--j-dn-steps", "3"]
        if family == "complex_bosonic":
            args += ["--uuu", "1.2", "--udd", "0.9"]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "j_up,j_dn,A,B,tau1,tau2,tau3,tau4"
        assert len(lines) == 10


def test_scan_determinism_across_worker_counts(tmp_path):
    args = ["scan", "--family", "bosonic", "--uuu", "1.1", "--udd", "0.9",
            "--u", "1", "--j-up-min", "0.01", "--j-up-max", "0.12",
            "--j-up-steps", "12", "--j-dn-min", "0.0", "--j-dn-max", "0.12",
            "--j-dn-steps", "11"]
    single = run_cli(args, {"TRISPIN_THREADS": "1"})
    pooled = run_cli(args, {"TRISPIN_THREADS": "8"})
    assert single.returncode == 0 and pooled.returncode == 0
    assert single.stdout == pooled.stdout
    again = run_cli(args, {"TRISPIN_THREADS": "8"})
    assert again.stdout == pooled.stdout


def test_chain_csv_columns(capsys, tmp_path):
    summary = tmp_path / "summary.json"
    code = main(["chain", "--sites", "6", "--bx-min", "0.8",
                 "--bx-max", "1.2", "--bx-step", "0.1",
                 "--summary", str(summary)])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "parameter,E0,E1,gap,degeneracy0"
    assert len(lines) == 6
    payload = json.loads(summary.read_text())
    assert "argmin_bx" in payload and len(payload["duality_defect"]) == 5


def test_chiral_report(capsys):
    code = main(["chiral", "--j-mag", "0.04", "--u", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    tau4 = payload["tau4"]
    assert tau4 == pytest.approx(0.04 ** 3)
    ratios = payload["eigenvalues_over_tau4"][:2]
    assert ratios[0] == pytest.approx(-2 * 3 ** 0.5, abs=1e-9)
    assert ratios[1] == pytest.approx(-2 * 3 ** 0.5, abs=1e-9)
    for sector in ("+1/2", "-1/2"):
        assert payload["ground_overlaps"][sector]["overlap"] >= 1 - 1e-10


def test_config_file_with_flag_override(capsys, tmp_path):
    config = {"family": "fermionic", "uud": 1.0, "j_up": 0.1, "j_dn": 0.0}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code = main(["--config", str(path), "couplings", "--j-up", "0.2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # the flag overrides the config value: mu3 = (0.2^3)/2
    assert payload["values"]["mu3"] == pytest.approx(0.2 ** 3 / 2)


def test_nan_config_setting_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"family": "fermionic", "uud": float("nan"),
                                "j_up": 0.1}))
    assert main(["--config", str(path), "couplings"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--uud must be a number, not NaN" in captured.err


def test_nan_config_string_is_a_usage_error(capsys, tmp_path):
    # the caller's float() would read "nan" as NaN; "inf" stays valid
    path = tmp_path / "c.json"
    config = {"family": "complex_bosonic", "uud": "nan", "uuu": 1.2,
              "udd": 0.9, "j_up": 0.04, "j_dn": 0.025}
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "couplings"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--uud must be a number, not NaN" in captured.err
    path.write_text(json.dumps(dict(config, uud="inf")))
    assert main(["--config", str(path), "couplings"]) == 0
    assert json.loads(capsys.readouterr().out)["values"]["tau2"] == 0.0


def test_infinite_cross_channel_stays_valid(capsys):
    # inf is the exclusion sentinel of a collision channel, not a bad number
    assert main(["couplings", "--family", "complex_bosonic", "--u", "inf",
                 "--uuu", "1.2", "--udd", "0.9", "--j-up", "0.04",
                 "--j-dn", "0.025"]) == 0
    assert json.loads(capsys.readouterr().out)["values"]["tau2"] == 0.0


def test_verify_without_draws_still_checks_the_oracles(capsys):
    assert main(["verify", "--draws", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["draws"] == [] and report["ok"] is True
    assert set(report["scaling"]) == {"fermion", "boson"}


def test_verify_small_run(capsys):
    code = main(["verify", "--draws", "2", "--seed", "7"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert not report["hard_failures"]
    assert len(report["draws"]) == 4
    fermionic = [d for d in report["draws"] if d["statistics"] == "fermion"]
    # certified formulas pass; the audited transcription shows the
    # three-spin sign findings with engine replacements listed
    for draw in fermionic:
        assert draw["certified"]["n_failed"] == 0
        assert draw["printed_variant"]["n_failed"] > 0
        flagged = [e for e in draw["printed_variant"]["strings"]
                   if not e["pass"]]
        assert all("engine_re" in e for e in flagged)
    for draw in report["draws"]:
        if draw["statistics"] == "boson":
            assert draw["certified"]["n_failed"] == 0
            assert draw["printed_variant"]["n_failed"] == 0


def test_chain_csv_repeats_byte_for_byte(capsys):
    args = ["chain", "--sites", "12", "--bx-min", "0.9", "--bx-max", "1.1"]
    outputs = []
    for _ in range(2):
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 6
