import contextlib
import hashlib
import io
import json
import json.encoder
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from trispin import cli
from trispin.cli import SCAN_MAX_STEPS, main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "trispin.cli", *args],
                          capture_output=True, text=True)


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


def test_rotated_xy_bounds_j_over_u_by_j_up_alone(capsys):
    # the family reads --j-up alone, so --j-dn changes nothing
    args = ["couplings", "--family", "rotated_xy", "--j-up", "0.1",
            "--u", "1"]
    assert main(args) == 0
    want = capsys.readouterr()
    assert main(args + ["--j-dn", "5"]) == 0
    got = capsys.readouterr()
    assert got.out == want.out and got.err == want.err == ""


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


@pytest.mark.parametrize("family, energies, message", [
    ("bosonic", ["--uuu", "0", "--udd", "1"], "finite and nonzero"),
    ("bosonic", ["--uuu", "inf", "--udd", "1"], "finite and nonzero"),
    ("complex_bosonic", ["--u", "0", "--uuu", "1", "--udd", "1"],
     "cross channel must be nonzero"),
], ids=["zero-same-species", "infinite-same-species", "complex-zero-cross"])
def test_scan_refused_by_the_closed_forms_writes_nothing(capsys, family,
                                                         energies, message):
    code = main(["scan", "--family", family, *energies, "--j-up-max", "0.05",
                 "--j-up-steps", "2", "--j-dn-max", "0.05",
                 "--j-dn-steps", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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
    (["verify", "--draws", "10001"], "--draws must not exceed 10000"),
    (["verify", "--draws", "1000000"], "--draws must not exceed 10000"),
    (["scan", "--family", "fermionic", "--j-up-max", "nan",
      "--j-up-steps", "3", "--j-dn-max", "0.05", "--j-dn-steps", "2"],
     "--j-up-max must be a number, not NaN"),
    (["scan", "--family", "fermionic", "--u", "nan", "--j-up-max", "0.05",
      "--j-up-steps", "3", "--j-dn-max", "0.05", "--j-dn-steps", "2"],
     "--uud must be a number, not NaN"),
    (["chain", "--bx-min", "0.5", "--bx-max", "0.5", "--bx-step", "inf"],
     "--bx-step must be finite"),
    (["chain", "--bx-max", "inf"], "--bx-max must be finite"),
    (["chain", "--sites", "24"], "--sites must not exceed 21"),
    (["chain", "--sites", "300"], "--sites must not exceed 21"),
    # counted before the grid is built: the first point count is not
    # finite, the second 10^12
    (["chain", "--sites", "6", "--bx-step", "5e-324"],
     "the --bx grid must not exceed 10000 points"),
    (["chain", "--sites", "6", "--bx-step", "1e-12"],
     "the --bx grid must not exceed 10000 points"),
    (["scan", "--family", "fermionic", "--j-up-max", "0.05",
      "--j-up-steps", "1000000000000", "--j-dn-max", "0.05",
      "--j-dn-steps", "2"], "--j-up-steps must not exceed 1000"),
    # collision energies whose cube is not a normal float: each of these
    # used to raise OverflowError or ZeroDivisionError, or print NaN or
    # Infinity (the last at J/U = 0.4, so no regime warning may precede
    # the refusal)
    (["couplings", "--family", "fermionic", "--j-up", "0.1",
      "--u", "1e200"], "cross channel must be nonzero and its cube"),
    (["scan", "--family", "bosonic", "--j-up-max", "0.05",
      "--j-up-steps", "2", "--j-dn-max", "0.05", "--j-dn-steps", "2",
      "--u", "1", "--uuu", "1e200", "--udd", "1"],
     "up-up channel must be nonzero and its cube"),
    (["couplings", "--family", "rotated_xy", "--j-up", "1e-201",
      "--u", "1e-200"], "collision energy must be nonzero and its cube"),
    (["couplings", "--family", "complex_fermionic", "--j-up", "1e-170",
      "--u", "1e-160"], "cross channel must be nonzero and its cube"),
    (["couplings", "--family", "fermionic", "--j-up", "4e149",
      "--u", "1e150"], "cross channel must be nonzero and its cube"),
    # J/U beyond the hard cap, over the smallest channel a family reads
    (["couplings", "--family", "fermionic", "--j-up", "inf", "--u", "1"],
     "hard cap"),
    (["couplings", "--family", "fermionic", "--j-up", "5", "--u", "1"],
     "hard cap"),
    (["couplings", "--family", "bosonic", "--j-up", "0.1", "--j-dn", "0.6",
      "--u", "2", "--uuu", "2", "--udd", "1"], "hard cap"),
    (["chiral", "--j-mag", "5", "--u", "1"], "hard cap"),
], ids=["zero-step", "negative-step", "min-above-max", "zero-steps",
        "zero-sites", "negative-sites", "sites-not-multiple-of-3",
        "zero-bx-min", "negative-bx-min", "zero-j-mag", "infinite-u",
        "zero-u", "underflowing-tau4", "overflowing-tau4", "negative-draws",
        "draws-above-limit", "million-draws",
        "nan-flag", "nan-energy", "infinite-bx-step", "infinite-bx-max",
        "sites-24", "sites-300", "subnormal-bx-step", "tiny-bx-step",
        "huge-steps", "overflowing-cube", "overflowing-scan-cube",
        "vanishing-square", "underflowing-cube",
        "overflowing-cube-at-small-ratio", "infinite-j", "j-over-u-5",
        "bosonic-smallest-channel", "chiral-j-over-u-5"])
def test_bad_grid_is_a_usage_error(capsys, args, message):
    # rejected with exit 2 before any output is written, in one line
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    refusal, = captured.err.splitlines()
    assert refusal.startswith("error: ") and message in refusal


@pytest.mark.parametrize("command, setting", [
    ("verify", "draws"), ("verify", "seed"), ("chain", "sites")])
def test_infinite_config_count_is_a_usage_error(capsys, tmp_path, command,
                                                setting):
    path = tmp_path / "config.json"
    path.write_text(f'{{"{setting}": 1e999}}')
    assert main(["--config", str(path), command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--{setting} must be finite" in captured.err


def test_infinite_config_steps_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "scan.json"
    path.write_text('{"family": "fermionic", "j_up_max": 0.05, '
                    '"j_up_steps": 1e999, "j_dn_max": 0.05, '
                    '"j_dn_steps": 2}')
    assert main(["--config", str(path), "scan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--j-up-steps must be finite" in captured.err


@pytest.mark.parametrize("ups, dns", [(50, 50), (SCAN_MAX_STEPS, 1)])
def test_scan_grid_within_bound_passes(capsys, ups, dns):
    assert main(["scan", "--family", "fermionic", "--j-up-max", "0.05",
                 "--j-up-steps", str(ups), "--j-dn-max", "0.05",
                 "--j-dn-steps", str(dns)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + ups * dns


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


def test_scan_repeated_runs_are_byte_identical():
    args = ["scan", "--family", "bosonic", "--uuu", "1.1", "--udd", "0.9",
            "--u", "1", "--j-up-min", "0.01", "--j-up-max", "0.12",
            "--j-up-steps", "12", "--j-dn-min", "0.0", "--j-dn-max", "0.12",
            "--j-dn-steps", "11"]
    first = run_cli(args)
    again = run_cli(args)
    assert first.returncode == 0 and again.returncode == 0
    assert first.stdout == again.stdout
    assert len(first.stdout.splitlines()) == 1 + 12 * 11


class _DigestSink:
    """A stdout that keeps only the digest and length of what it gets."""

    def __init__(self):
        self.digest = hashlib.md5()
        self.size = 0

    def write(self, text):
        self.digest.update(text.encode())
        self.size += len(text)

    def flush(self):
        pass


def _scan_complex_bosonic(monkeypatch, steps):
    sink = _DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    code = main(["scan", "--family", "complex_bosonic", "--u", "1",
                 "--uuu", "1.2", "--udd", "0.9", "--j-up-min", "0.001",
                 "--j-up-max", "0.06", "--j-up-steps", str(steps),
                 "--j-dn-min", "0.0", "--j-dn-max", "0.06",
                 "--j-dn-steps", str(steps)])
    assert code == 0
    return sink


def test_scan_rows_do_not_depend_on_the_chunk_size(monkeypatch):
    whole = _scan_complex_bosonic(monkeypatch, 30)
    monkeypatch.setattr(cli, "SCAN_CHUNK_ROWS", 7)
    chunked = _scan_complex_bosonic(monkeypatch, 30)
    assert chunked.size == whole.size > 0
    assert chunked.digest.digest() == whole.digest.digest()


@pytest.fixture(scope="module")
def scan_peak_300():
    """Traced peak of one 300 x 300 scan, shared by the memory bounds."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        tracemalloc.start()
        try:
            _scan_complex_bosonic(monkeypatch, 300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def test_scan_memory_stays_with_the_array_pass(scan_peak_300):
    # a closed-form pass over the whole 300 x 300 grid peaked at about
    # 15 MB of traced memory; turning every column of the grid into
    # Python floats at once added about 14 MB on top of that
    assert scan_peak_300 < 20e6


def test_scan_memory_follows_the_chunk(scan_peak_300):
    # the closed forms run one chunk of points at a time: about 1.4 MB
    # traced at any grid size
    assert scan_peak_300 < 3e6


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


# b = 1e308 overflows the chain's levels (3b is not finite); at
# b = 5e-324 the levels are finite but 1/b is not, and neither is the
# duality defect.  Both are refused before any solve, so no overflow
# warning (an error under this suite's filter) precedes the refusal.
@pytest.mark.parametrize("bx", ["1e308", "5e-324"])
def test_chain_refuses_a_grid_with_results_that_are_not_finite(
        capsys, tmp_path, bx):
    summary = tmp_path / "summary.json"
    code = main(["chain", "--sites", "3", "--bx-min", bx, "--bx-max", bx,
                 "--summary", str(summary)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    refusal, = captured.err.splitlines()
    assert refusal.startswith("error: ") and "not finite" in refusal
    assert not summary.exists()


@pytest.mark.parametrize("grid, points", [
    (["--bx-min", "0.5", "--bx-max", "0.58", "--bx-step", "0.05"], 2),
    ([], 21),
    (["--bx-min", "0.85", "--bx-max", "1.15"], 7),
    (["--bx-min", "1.0", "--bx-max", "1.0"], 1),
], ids=["overshoot", "default", "ratio-below-integer", "single-point"])
def test_chain_grid_stops_at_bx_max(capsys, grid, points):
    assert main(["chain", "--sites", "6", *grid]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == points
    bx_max = float(grid[grid.index("--bx-max") + 1]) if grid else 1.5
    assert float(rows[-1].split(",")[0]) <= bx_max * (1 + 1e-9)


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


CHAIN_B1 = ["chain", "--sites", "3", "--bx-min", "1", "--bx-max", "1"]


@pytest.mark.parametrize("config, args, message", [
    ([1, 2], ["chain", "--sites", "6"], "the config must be a JSON object"),
    ({"draws": [2]}, ["verify"], "--draws must be a number"),
    ({"family": ["bosonic"], "uud": 1, "j_up": 0.05}, ["couplings"],
     "--family must be a string"),
    ({"family": "fermionic", "uud": {"a": 1}, "j_up": 0.05}, ["couplings"],
     "--uud must be a number"),
    ({"family": "fermionic", "uud": 10 ** 400, "j_up": 0.05}, ["couplings"],
     "--uud exceeds the float range"),
    ({"summary": 1}, CHAIN_B1, "--summary must be a string"),
    ({"summary": True}, CHAIN_B1, "--summary must be a string"),
    ({"sites": 6.9}, ["chain", "--bx-min", "1", "--bx-max", "1"],
     "--sites must be a whole number"),
], ids=["list-config", "list-draws", "list-family", "object-uud",
        "huge-integer-uud", "integer-summary", "boolean-summary",
        "fractional-sites"])
def test_config_value_of_a_wrong_json_type_is_a_usage_error(
        capsys, tmp_path, config, args, message):
    # refused in one line before any output; a summary that is not a
    # path is refused before the chain writes its first row
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    refusal, = captured.err.splitlines()
    assert refusal.startswith("error: ") and message in refusal


def test_numeric_config_strings_read_as_their_numbers(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"family": "fermionic", "uud": "1",
                                "j_up": "0.1", "j_dn": None}))
    assert main(["--config", str(path), "couplings"]) == 0
    from_config = capsys.readouterr().out
    assert main(["couplings", "--family", "fermionic", "--u", "1",
                 "--j-up", "0.1"]) == 0
    assert capsys.readouterr().out == from_config


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


def test_chain_matches_the_benchmark_reference(capsys):
    # the chain workload's check on both of its runs, the 7-point n = 12
    # scan and n = 15 at b = 1: every value within 1e-9 relative of the
    # committed reference, the degeneracy exact
    for n, grid, points in ((12, ["0.85", "1.15"], 7), (15, ["1.0", "1.0"], 1)):
        assert main(["chain", "--sites", str(n), "--bx-min", grid[0],
                     "--bx-max", grid[1]]) == 0
        lines = capsys.readouterr().out.splitlines()
        ref_lines = (REFERENCE / f"chain_n{n}.csv").read_text().splitlines()
        assert lines[0] == ref_lines[0]
        got = np.array([[float(x) for x in line.split(",")]
                        for line in lines[1:]])
        ref = np.array([[float(x) for x in line.split(",")]
                        for line in ref_lines[1:]])
        rows = [int(np.argmin(np.abs(ref[:, 0] - bx))) for bx in got[:, 0]]
        ref = ref[rows]
        assert len(got) == points
        assert np.all(np.abs(got[:, 0] - ref[:, 0]) <= 1e-12)
        assert np.array_equal(got[:, 4], ref[:, 4])
        assert np.all(np.abs(got[:, 1:4] - ref[:, 1:4])
                      <= 1e-9 * np.maximum(1.0, np.abs(ref[:, 1:4])))


def test_chain_default_grid_matches_the_benchmark_reference(capsys):
    # the whole n = 12 reference, whose rows are the default grid; the
    # n = 15 row at b = 1 is checked above
    assert main(["chain", "--sites", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ref_lines = (REFERENCE / "chain_n12.csv").read_text().splitlines()
    assert lines[0] == ref_lines[0] and len(lines) == len(ref_lines) == 22
    got, ref = (np.array([[float(x) for x in line.split(",")]
                          for line in table[1:]])
                for table in (lines, ref_lines))
    assert np.all(np.abs(got[:, 0] - ref[:, 0]) <= 1e-12)
    assert np.array_equal(got[:, 4], ref[:, 4])
    assert np.all(np.abs(got[:, 1:4] - ref[:, 1:4])
                  <= 1e-9 * np.maximum(1.0, np.abs(ref[:, 1:4])))


@pytest.mark.parametrize("argv", [["verify", "--draws", "1"], ["chiral"],
                                  ["couplings", "--family", "bosonic",
                                   "--uuu", "1.1", "--udd", "1.2", "--u", "1",
                                   "--j-up", "0.05", "--j-dn", "0.03"]])
def test_json_documents_are_json_dump_text_in_one_write(argv, monkeypatch):
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    main(argv)
    text = out.getvalue()
    want = io.StringIO()
    json.dump(json.loads(text), want, indent=2, sort_keys=True)
    assert text == want.getvalue() + "\n"
    # the document in one write, not streamed chunk by chunk, then the
    # newline, so the text is never copied to append it
    assert writes == [want.getvalue(), "\n"]


# The fixed structure of a call is built once per process: the parser,
# and one printf format per CSV row.

DATA = Path(__file__).resolve().parent / "data"
PINNED_GRID = ["--j-up-min", "-0.03", "--j-up-max", "0.09", "--j-up-steps",
               "9", "--j-dn-min", "0.0", "--j-dn-max", "0.07",
               "--j-dn-steps", "7", "--u", "1", "--uuu", "1.15", "--udd",
               "0.85"]


def _main_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("family", list(cli.SCAN_COLUMNS))
def test_scan_csv_bytes_are_pinned(family, monkeypatch):
    """A 9 x 7 grid in chunks of 7 points, against the bytes that the
    per-float formatting of the earlier writer produced."""
    monkeypatch.setattr(cli, "SCAN_CHUNK_ROWS", 7)
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["scan", "--family", family, *PINNED_GRID]) == 0
    assert (out.getvalue().encode()
            == (DATA / f"scan_{family}.csv").read_bytes())


def test_row_format_writes_floats_as_format_17g():
    values = (-0.0, 5e-324, 1e308, float("nan"), float("inf"),
              float("-inf"), 0.1, -1 / 3)
    want = ",".join(format(x, ".17g") for x in values) + "\n"
    assert cli._row_format(len(values)) % values == want


def test_calls_in_one_process_do_not_depend_on_earlier_calls():
    scan = ["scan", "--family", "complex_bosonic", *PINNED_GRID]
    with pytest.raises(SystemExit) as exc:
        _main_output(["scan", "--j-up-steps", "many"])
    assert exc.value.code == 2
    assert _main_output(["scan", "--family", "bosonic", "--j-up-steps",
                         "0", *PINNED_GRID[6:]])[0] == 2
    first = _main_output(scan)
    assert first[0] == 0
    assert _main_output(["chiral"])[0] == 0
    assert _main_output(["verify", "--draws", "1"])[0] == 0
    assert _main_output(scan) == first


def test_config_does_not_leak_into_the_next_call(capsys, tmp_path):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({
        "family": "fermionic", "j_up_max": 0.05, "j_up_steps": 2,
        "j_dn_max": 0.05, "j_dn_steps": 2}))
    assert main(["--config", str(config), "scan"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert main(["scan"]) == 2
    assert "missing required setting --family" in capsys.readouterr().err


def test_the_command_is_looked_up_when_it_runs(capsys, monkeypatch):
    assert main(["scan", "--family", "fermionic", "--j-up-max", "0.05",
                 "--j-up-steps", "2", "--j-dn-max", "0.05",
                 "--j-dn-steps", "2"]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_scan",
                        lambda args, config: seen.append(args.family) or 7)
    assert main(["scan", "--family", "bosonic"]) == 7
    assert seen == ["bosonic"]
    assert capsys.readouterr().out == ""


# The JSON writer gives json.dumps(..., indent=2, sort_keys=True) byte for
# byte, without the standard library's pure-Python encoder.

_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 0.1,
                   float("nan"), float("inf"), float("-inf")]
_JSON_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\x00\x01\x1f\x7f\n\r\té \U0001f600'),
    st.characters()), max_size=8)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2 ** 300, max_value=2 ** 300),
    st.floats(), st.sampled_from(_SPECIAL_FLOATS),
    st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)).map(np.float64),
    _JSON_TEXT)
_JSON_DOCUMENTS = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCUMENTS)
def test_json_text_is_json_dumps_text(document):
    assert cli._json_text(document) == json.dumps(document, indent=2,
                                                  sort_keys=True)


def test_json_text_writes_scalar_keys_as_json_dumps():
    for document in ({3: "a", -1: [], 2 ** 70: {}}, {0.5: 1, -0.0: 2},
                     {True: 1, False: None}, {None: (1, 2.5)}):
        assert cli._json_text(document) == json.dumps(document, indent=2,
                                                      sort_keys=True)


@pytest.mark.parametrize("document", [
    np.int64(3), [1, np.int64(3)], {"a": np.int64(3)}, {1, 2},
    {"a": [{"b": {1, 2}}]}, {np.int64(1): 2}, {"a": 1, 2: 3}, np.bool_(True)])
def test_json_text_raises_type_error_where_json_dumps_does(document):
    with pytest.raises(TypeError):
        json.dumps(document, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._json_text(document)


def test_chain_summary_is_json_dump_text(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    assert main(["chain", "--sites", "6", "--bx-min", "0.8", "--bx-max",
                 "1.2", "--bx-step", "0.1", "--summary", str(summary)]) == 0
    text = summary.read_text()
    want = io.StringIO()
    json.dump(json.loads(text), want, indent=2, sort_keys=True)
    assert text == want.getvalue()


def test_verify_runs_without_library_wrappers(monkeypatch, capsys):
    # the condition estimate and the JSON report call neither scipy's
    # onenormest and LinearOperator nor the stdlib's indented encoder
    def refuse(*args, **kwargs):
        raise AssertionError("library wrapper called")

    for owner, name in ((spla, "onenormest"), (spla, "LinearOperator"),
                        (json.encoder, "_make_iterencode")):
        monkeypatch.setattr(owner, name, refuse)
    assert main(["verify", "--draws", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


@pytest.mark.parametrize("argv", [
    ["couplings", "--family", "fermionic", "--j-up", "0.4", "--u", "1"],
    ["chiral", "--j-mag", "0.4", "--u", "1"],
], ids=["couplings", "chiral"])
def test_strained_regime_warns_and_runs(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    assert captured.err == ("# warning: J/U up to 0.4 strains the "
                            "perturbative regime\n")
