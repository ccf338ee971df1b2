"""Batch front-end: coupling evaluation, parameter scans, cross-oracle
verification and spin-model diagnostics.

All physical quantities are expressed in units of a declared energy
scale (by default the cross-species collision energy).  A scan
evaluates its grid in array passes of the closed forms, one chunk of
points at a time; rows are row-major over the grid (j_up outer, j_dn
inner), and floats are printed with 17 significant digits so identical
configurations yield byte-identical files.

Exit codes: 0 success, 1 hard invariant failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import chainlab, closedform, conformance, pauli
from .fock import Statistics
from .hubbard import HubbardParams, make_triangle

SOFT_CAP = conformance.SOFT_REGIME_LIMIT
HARD_CAP = conformance.HARD_REGIME_LIMIT
# a chain scan holds the symmetry blocks of both solved flip sectors and
# peaks while it builds the last one, at most about 30 (n + 1) 2^(n-2)
# bytes (28.5 at n = 15, 24 at n = 18 by tracemalloc; the solves add
# less): 0.35 GB at n = 21, 3.1 GB at the next multiple of 3
CHAIN_MAX_SITES = 21
# grid sizes are counted before any grid is built: a chain point costs
# its spectrum and at most a ground-energy solve at 1/b, about 0.02 s at
# n = 12, so 10^4 points already take three minutes; a scan evaluates
# and writes SCAN_CHUNK_ROWS points at a time, about 1.4 MB traced at any
# grid size, so its steps bound time and output: a 1000 x 1000 grid takes
# about 7.5 s (one core of a 2-core host) and writes 180 MB of CSV
CHAIN_MAX_POINTS = 10_000
SCAN_MAX_STEPS = 1000
SCAN_CHUNK_ROWS = 4096
# a verify draw takes about 2 ms and adds about 9 kB to the JSON report,
# which is held whole until it is written: 10^4 draws per statistics run
# about 40 s and report about 180 MB, and --draws 10^6 would run for over
# an hour and hold tens of GB
VERIFY_MAX_DRAWS = 10_000


class UsageError(Exception):
    pass


def _row_format(width):
    """printf format of a CSV row of ``width`` floats, each written as
    ``format(x, ".17g")`` writes it; one format per row costs less than
    one call per float."""
    return ",".join(["%.17g"] * width) + "\n"


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config: {exc}")
    if not isinstance(config, dict):
        raise UsageError("the config must be a JSON object")
    return config


def _setting(args, config, name, default=None, required=False, text=False):
    """A flag, else its config entry, else ``default`` (a JSON null is
    unset): a string when ``text`` is set, and otherwise a number or a
    numeric string."""
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name)
    if value is None:
        value = default
    flag = f"--{name.replace('_', '-')}"
    if value is None:
        if required:
            raise UsageError(f"missing required setting {flag}")
    elif text:
        if not isinstance(value, str):
            raise UsageError(f"{flag} must be a string")
    elif isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise UsageError(f"{flag} must be a number or a numeric string")
    # inf stays valid: it is the exclusion sentinel of a collision channel
    elif _is_nan(value):
        raise UsageError(f"{flag} must be a number, not NaN")
    return value


def _number(args, config, name, default=None, required=False):
    """A float setting, or ``None`` when it is unset without a default."""
    value = _setting(args, config, name, default, required)
    try:
        return None if value is None else float(value)
    except OverflowError:
        raise UsageError(f"--{name.replace('_', '-')} exceeds the float "
                         "range")


def _integer(args, config, name, default=None, required=False):
    """An integer setting; a config value of 1e999 reads as infinity."""
    value = _setting(args, config, name, default, required)
    flag = f"--{name.replace('_', '-')}"
    try:
        integer = int(value)
    except OverflowError:
        raise UsageError(f"{flag} must be finite")
    if isinstance(value, float) and value != integer:
        raise UsageError(f"{flag} must be a whole number")
    return integer


def _is_nan(value):
    """Whether the caller's float() would read the value as NaN."""
    try:
        return math.isnan(float(value))
    except (ValueError, OverflowError):
        return False


def _triangle_params(family, j_up, j_dn, u_upup, u_dndn, u_updn):
    if family == "fermionic" or family == "complex_fermionic":
        return HubbardParams.uniform(Statistics.FERMION, 3, j_up, j_dn,
                                     u_updn=u_updn)
    if u_upup is None or u_dndn is None:
        raise UsageError("bosonic families need --uuu and --udd")
    return HubbardParams.uniform(Statistics.BOSON, 3, j_up, j_dn,
                                 u_updn=u_updn, u_upup=u_upup, u_dndn=u_dndn)


def _regime_warning(family, j_peak, u_upup, u_dndn, u_updn):
    """J/U of the largest |J| ``j_peak`` over the smallest nonzero
    collision energy the family reads (the bosonic families all three
    channels, the others the cross channel): a ``UsageError`` above
    ``HARD_CAP``, and above ``SOFT_CAP`` a warning, returned for the
    caller to print once the closed forms have accepted the energies, so
    that a refused input writes only its refusal."""
    channels = ((u_upup, u_dndn, u_updn) if family.endswith("bosonic")
                else (u_updn,))
    energies = [abs(u) for u in channels if u]
    if not energies:
        raise UsageError("J/U needs a nonzero collision energy to bound it")
    peak = j_peak / min(energies)
    if not peak <= HARD_CAP:
        raise UsageError(
            f"J/U reaches {peak:.3g}, beyond the hard cap {HARD_CAP}")
    if peak > SOFT_CAP:
        return (f"# warning: J/U up to {peak:.3g} strains the perturbative "
                "regime")
    return None


def _couplings_for(family, j_up, j_dn, u_upup, u_dndn, u_updn):
    if family == "rotated_xy":
        return closedform.rotated_xy_couplings(j_up, u_updn)
    # every other family is a scan family derived from HubbardParams
    if family not in SCAN_COLUMNS:
        raise UsageError(f"unknown family {family!r}")
    if family in ("complex_bosonic", "complex_fermionic"):
        j_up, j_dn = 1j * j_up, 1j * j_dn
    params = _triangle_params(family, j_up, j_dn, u_upup, u_dndn, u_updn)
    if family == "bosonic":
        return closedform.bosonic_couplings(params)
    if family == "fermionic":
        return closedform.fermionic_couplings(params)
    return closedform.complex_tunneling_couplings(params)


def _print_json(document):
    """The document as indented JSON with sorted keys, then a newline:
    two writes, where ``json.dump`` makes about 10^5 for a ``verify``
    report, and no copy of the text to join them."""
    sys.stdout.write(json.dumps(document, indent=2, sort_keys=True))
    sys.stdout.write("\n")


def cmd_couplings(args, config):
    family = _setting(args, config, "family", required=True, text=True)
    u_updn = _number(args, config, "uud", required=True)
    j_up = _number(args, config, "j_up", required=True)
    j_dn = _number(args, config, "j_dn", 0.0)
    u_upup = _number(args, config, "uuu")
    u_dndn = _number(args, config, "udd")
    # rotated_xy reads j_up alone
    j_peak = max(abs(j_up), 0.0 if family == "rotated_xy" else abs(j_dn))
    warning = _regime_warning(family, j_peak, u_upup, u_dndn, u_updn)
    couplings = _couplings_for(family, j_up, j_dn, u_upup, u_dndn, u_updn)
    if warning:
        print(warning, file=sys.stderr)
    _print_json({"family": couplings.family, "values": couplings.values})
    return 0


SCAN_COLUMNS = {
    "bosonic": ("A", "B", "lambda1", "lambda2", "lambda3", "lambda4"),
    "fermionic": ("mu1", "mu2", "mu3", "mu4"),
    "complex_bosonic": ("A", "B", "tau1", "tau2", "tau3", "tau4"),
    "complex_fermionic": ("A", "B", "tau1", "tau2", "tau3", "tau4"),
}


def _grid(config, args, axis):
    lo = _number(args, config, f"{axis}_min", 0.0)
    hi = _number(args, config, f"{axis}_max", required=True)
    flag = f"--{axis.replace('_', '-')}-steps"
    steps = _integer(args, config, f"{axis}_steps", required=True)
    if steps < 1:
        raise UsageError(f"{flag} must be at least 1")
    if steps > SCAN_MAX_STEPS:
        raise UsageError(f"{flag} must not exceed {SCAN_MAX_STEPS}")
    return [lo + (hi - lo) * k / (steps - 1) if steps > 1 else lo
            for k in range(steps)]


def cmd_scan(args, config):
    family = _setting(args, config, "family", required=True, text=True)
    if family not in SCAN_COLUMNS:
        raise UsageError(f"unknown scan family {family!r}")
    u_updn = _number(args, config, "uud", 1.0)
    u_upup = _number(args, config, "uuu")
    u_dndn = _number(args, config, "udd")
    ups = _grid(config, args, "j_up")
    dns = _grid(config, args, "j_dn")
    warning = _regime_warning(family, max(map(abs, ups + dns)), u_upup,
                              u_dndn, u_updn)
    ups, dns = np.asarray(ups), np.asarray(dns)
    out = sys.stdout
    # the header goes out with the first chunk: a refused grid writes none
    text = "j_up,j_dn," + ",".join(SCAN_COLUMNS[family]) + "\n"
    row_format = _row_format(2 + len(SCAN_COLUMNS[family]))
    # the closed forms run one chunk of grid points at a time, so neither
    # their arrays nor the Python floats of the whole grid exist at once
    n_points = len(ups) * len(dns)
    for start in range(0, n_points, SCAN_CHUNK_ROWS):
        point = np.arange(start, min(start + SCAN_CHUNK_ROWS, n_points))
        j_up, j_dn = ups[point // len(dns)], dns[point % len(dns)]
        couplings = _couplings_for(family, j_up, j_dn, u_upup, u_dndn,
                                   u_updn)
        if warning:
            print(warning, file=sys.stderr)
            warning = None
        # per-link couplings are reported on link 0
        columns = [j_up, j_dn] + [np.broadcast_to(couplings.link(name, 0),
                                                  j_up.shape)
                                  for name in SCAN_COLUMNS[family]]
        out.write(text + "".join([row_format % row for row in zip(
            *(column.tolist() for column in columns))]))
        text = ""
    return 0


def cmd_verify(args, config):
    n_draws = _integer(args, config, "draws", 20)
    if n_draws < 0:
        raise UsageError("--draws must not be negative")
    if n_draws > VERIFY_MAX_DRAWS:
        raise UsageError(f"--draws must not exceed {VERIFY_MAX_DRAWS}")
    seed = _integer(args, config, "seed", 2024)
    j_over_u = _number(args, config, "j_over_u", 0.05)
    report = conformance.run_verification(n_draws=n_draws, seed=seed,
                                          j_over_u=j_over_u)
    _print_json(report)
    return 0 if report["ok"] else 1


def cmd_chain(args, config):
    n = _integer(args, config, "sites", 12)
    if n < 1 or n % 3:
        raise UsageError("--sites must be a positive multiple of 3")
    if n > CHAIN_MAX_SITES:
        raise UsageError(f"--sites must not exceed {CHAIN_MAX_SITES}")
    lo = _number(args, config, "bx_min", 0.5)
    hi = _number(args, config, "bx_max", 1.5)
    step = _number(args, config, "bx_step", 0.05)
    summary_path = _setting(args, config, "summary", text=True)
    for flag, value in (("--bx-min", lo), ("--bx-max", hi),
                        ("--bx-step", step)):
        if not math.isfinite(value):
            raise UsageError(f"{flag} must be finite")
    if step <= 0:
        raise UsageError("--bx-step must be positive")
    if lo <= 0:
        raise UsageError("--bx-min must be positive: the duality compares "
                         "b with 1/b")
    if lo > hi:
        raise UsageError("--bx-min must not exceed --bx-max")
    # floor with a relative slack: no point beyond --bx-max, but a ratio
    # such as 5.999999999999998 still counts as 6 steps
    spans = (hi - lo) / step * (1 + 1e-9)
    if not spans < CHAIN_MAX_POINTS:
        raise UsageError(f"the --bx grid must not exceed {CHAIN_MAX_POINTS} "
                         "points")
    grid = [lo + k * step for k in range(math.floor(spans) + 1)]
    scan = chainlab.duality_scan(np.asarray(grid), n)
    if not np.isfinite([scan.e0, scan.e1, scan.gap,
                        scan.duality_defect]).all():
        raise UsageError("the --bx grid gives levels or duality defects "
                         "that are not finite; keep b and 1/b in range")
    out = sys.stdout
    out.write("parameter,E0,E1,gap,degeneracy0\n")
    for row in zip(scan.bx_values.tolist(), scan.e0.tolist(),
                   scan.e1.tolist(), scan.gap.tolist(),
                   scan.ground_degeneracy.tolist()):
        out.write("%.17g,%.17g,%.17g,%.17g,%d\n" % row)
    if summary_path:
        summary = {
            "argmin_bx": scan.argmin_bx,
            "duality_defect": [float(d) for d in scan.duality_defect],
        }
        with open(summary_path, "w") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_chiral(args, config):
    magnitude = _number(args, config, "j_mag", 0.05)
    scale = _number(args, config, "u", 1.0)
    if magnitude == 0:
        raise UsageError("--j-mag must be nonzero: the spectrum is reported "
                         "in units of tau4 = j_mag^3 / u^2")
    try:
        tau4 = magnitude ** 3 / scale ** 2
    except (ZeroDivisionError, OverflowError):
        tau4 = math.inf
    if tau4 == 0 or not math.isfinite(tau4):
        raise UsageError("tau4 = j_mag^3 / u^2 must be finite and nonzero: "
                         "the spectrum is reported in units of tau4")
    params = closedform.chirality_point_params(magnitude, scale)
    warning = _regime_warning("complex_bosonic", abs(magnitude),
                              params.u_upup, params.u_dndn, params.u_updn)
    if warning:
        print(warning, file=sys.stderr)
    _, h2, h3, dec = conformance.engine_decomposition(make_triangle(), params)
    zeeman = {s: dec[s] for s in ("ZII", "IZI", "IIZ")}
    matrix = h2.matrix + h3.matrix - pauli.pauli_sum(zeeman, 3)
    report = chainlab.diagonalize(matrix, k=2)
    ground = report.eigenvectors
    overlaps = {}
    for sector, positions in (("+1/2", (1, 2, 4)), ("-1/2", (6, 5, 3))):
        best = None
        for tag, omega in (("omega", np.exp(2j * np.pi / 3)),
                           ("conj_omega", np.exp(-2j * np.pi / 3))):
            vec = chainlab.circulating_state(positions, omega)
            value = float(np.linalg.norm(ground.conj().T @ vec))
            if best is None or value > best[1]:
                best = (tag, value)
        overlaps[sector] = {"omega": best[0], "overlap": best[1]}
    _print_json({
        "tau4": tau4,
        "eigenvalues": [float(e) for e in report.eigenvalues],
        "eigenvalues_over_tau4": [float(e / tau4) for e in report.eigenvalues],
        "compensating_field": {k: float(v.real) for k, v in zeeman.items()},
        "ground_overlaps": overlaps,
    })
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process; it binds no command
    function, so ``main`` finds ``cmd_<command>`` when it runs."""
    parser = argparse.ArgumentParser(
        prog="trispin",
        description="Effective spin models from two-species Hubbard "
                    "dynamics on triangles and zig-zag chains.")
    parser.add_argument("--config", help="JSON configuration document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("couplings", help="evaluate a coupling family")
    p.add_argument("--family")
    p.add_argument("--j-up", dest="j_up", type=float)
    p.add_argument("--j-dn", dest="j_dn", type=float)
    p.add_argument("--u", dest="uud", type=float)
    p.add_argument("--uuu", type=float)
    p.add_argument("--udd", type=float)
    p.add_argument("--uud", dest="uud", type=float)

    p = sub.add_parser("scan", help="coupling surfaces over a J grid")
    p.add_argument("--family")
    for axis in ("j-up", "j-dn"):
        key = axis.replace("-", "_")
        p.add_argument(f"--{axis}-min", dest=f"{key}_min", type=float)
        p.add_argument(f"--{axis}-max", dest=f"{key}_max", type=float)
        p.add_argument(f"--{axis}-steps", dest=f"{key}_steps", type=int)
    p.add_argument("--u", dest="uud", type=float)
    p.add_argument("--uuu", type=float)
    p.add_argument("--udd", type=float)

    p = sub.add_parser("verify", help="cross-oracle conformance report")
    p.add_argument("--draws", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--j-over-u", dest="j_over_u", type=float)

    p = sub.add_parser("chain", help="duality gap scan of the three-spin chain")
    p.add_argument("--sites", type=int)
    p.add_argument("--bx-min", dest="bx_min", type=float)
    p.add_argument("--bx-max", dest="bx_max", type=float)
    p.add_argument("--bx-step", dest="bx_step", type=float)
    p.add_argument("--summary")

    p = sub.add_parser("chiral", help="chirality-point spectrum and overlaps")
    p.add_argument("--j-mag", dest="j_mag", type=float)
    p.add_argument("--u", dest="u", type=float)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        # the module's names are read per call, so a wrapped or patched
        # command is the one that runs
        command = {"couplings": cmd_couplings, "scan": cmd_scan,
                   "verify": cmd_verify, "chain": cmd_chain,
                   "chiral": cmd_chiral}[args.command]
        return command(args, config)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
