"""Batch front-end: coupling evaluation, parameter scans, cross-oracle
verification and spin-model diagnostics.

All physical quantities are expressed in units of a declared energy
scale (by default the cross-species collision energy).  A scan
evaluates its whole grid in one array pass of the closed forms; rows are
row-major over the grid (j_up outer, j_dn inner), and floats are printed
with 17 significant digits so identical configurations yield
byte-identical files.

Exit codes: 0 success, 1 hard invariant failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import chainlab, closedform, conformance, pauli
from .fock import Statistics
from .hubbard import HubbardParams

SOFT_CAP = conformance.SOFT_REGIME_LIMIT
HARD_CAP = conformance.HARD_REGIME_LIMIT


class UsageError(Exception):
    pass


def _fmt(x):
    return f"{x:.17g}"


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config: {exc}")


def _setting(args, config, name, default=None, required=False):
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, default)
    flag = f"--{name.replace('_', '-')}"
    if value is None and required:
        raise UsageError(f"missing required setting {flag}")
    # inf stays valid: it is the exclusion sentinel of a collision channel
    if _is_nan(value):
        raise UsageError(f"{flag} must be a number, not NaN")
    return value


def _is_nan(value):
    """Whether the caller's float() would read the value as NaN."""
    try:
        return math.isnan(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


def _triangle_params(family, j_up, j_dn, u_upup, u_dndn, u_updn):
    if family == "fermionic" or family == "complex_fermionic":
        return HubbardParams.uniform(Statistics.FERMION, 3, j_up, j_dn,
                                     u_updn=u_updn)
    if u_upup is None or u_dndn is None:
        raise UsageError("bosonic families need --uuu and --udd")
    return HubbardParams.uniform(Statistics.BOSON, 3, j_up, j_dn,
                                 u_updn=u_updn, u_upup=u_upup, u_dndn=u_dndn)


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


def cmd_couplings(args, config):
    family = _setting(args, config, "family", required=True)
    u_updn = _setting(args, config, "uud", required=True)
    j_up = _setting(args, config, "j_up", required=True)
    j_dn = _setting(args, config, "j_dn", 0.0)
    u_upup = _setting(args, config, "uuu")
    u_dndn = _setting(args, config, "udd")
    couplings = _couplings_for(family, float(j_up), float(j_dn),
                               None if u_upup is None else float(u_upup),
                               None if u_dndn is None else float(u_dndn),
                               float(u_updn))
    json.dump(couplings.to_json_dict(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


SCAN_COLUMNS = {
    "bosonic": ("A", "B", "lambda1", "lambda2", "lambda3", "lambda4"),
    "fermionic": ("mu1", "mu2", "mu3", "mu4"),
    "complex_bosonic": ("A", "B", "tau1", "tau2", "tau3", "tau4"),
    "complex_fermionic": ("A", "B", "tau1", "tau2", "tau3", "tau4"),
}


def _grid(config, args, axis):
    lo = float(_setting(args, config, f"{axis}_min", 0.0))
    hi = float(_setting(args, config, f"{axis}_max", required=True))
    steps = int(_setting(args, config, f"{axis}_steps", required=True))
    if steps < 1:
        raise UsageError(f"--{axis.replace('_', '-')}-steps must be at "
                         "least 1")
    return [lo + (hi - lo) * k / (steps - 1) if steps > 1 else lo
            for k in range(steps)]


def cmd_scan(args, config):
    family = _setting(args, config, "family", required=True)
    if family not in SCAN_COLUMNS:
        raise UsageError(f"unknown scan family {family!r}")
    u_updn = float(_setting(args, config, "uud", 1.0))
    u_upup = _setting(args, config, "uuu")
    u_dndn = _setting(args, config, "udd")
    u_upup = float(u_upup) if u_upup is not None else None
    u_dndn = float(u_dndn) if u_dndn is not None else None
    ups = _grid(config, args, "j_up")
    dns = _grid(config, args, "j_dn")
    # the fermionic families read only the cross channel
    channels = ((u_updn,) if family.endswith("fermionic")
                else (u_upup, u_dndn, u_updn))
    energies = [abs(u) for u in channels if u]
    if not energies:
        raise UsageError("scan needs a nonzero collision energy to bound "
                         "J/U")
    scale = min(energies)
    peak = max(max(map(abs, ups)), max(map(abs, dns))) / scale
    if peak > HARD_CAP:
        raise UsageError(
            f"grid reaches J/U = {peak:.3g}, beyond the hard cap {HARD_CAP}")
    if peak > SOFT_CAP:
        print(f"# warning: J/U up to {peak:.3g} strains the perturbative "
              "regime", file=sys.stderr)
    j_up = np.repeat(ups, len(dns))
    j_dn = np.tile(dns, len(ups))
    couplings = _couplings_for(family, j_up, j_dn, u_upup, u_dndn, u_updn)
    # per-link couplings are reported on link 0
    columns = [j_up, j_dn] + [np.broadcast_to(couplings.link(name, 0),
                                              j_up.shape)
                              for name in SCAN_COLUMNS[family]]
    out = sys.stdout
    out.write("j_up,j_dn," + ",".join(SCAN_COLUMNS[family]) + "\n")
    for row in zip(*(column.tolist() for column in columns)):
        out.write(",".join(map(_fmt, row)) + "\n")
    return 0


def cmd_verify(args, config):
    n_draws = int(_setting(args, config, "draws", 20))
    if n_draws < 0:
        raise UsageError("--draws must not be negative")
    seed = int(_setting(args, config, "seed", 2024))
    j_over_u = float(_setting(args, config, "j_over_u", 0.05))
    report = conformance.run_verification(n_draws=n_draws, seed=seed,
                                          j_over_u=j_over_u)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if report["ok"] else 1


def cmd_chain(args, config):
    n = int(_setting(args, config, "sites", 12))
    if n < 1 or n % 3:
        raise UsageError("--sites must be a positive multiple of 3")
    lo = float(_setting(args, config, "bx_min", 0.5))
    hi = float(_setting(args, config, "bx_max", 1.5))
    step = float(_setting(args, config, "bx_step", 0.05))
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
    count = int(round((hi - lo) / step)) + 1
    grid = [lo + k * step for k in range(count)]
    scan = chainlab.duality_scan(np.asarray(grid), n)
    out = sys.stdout
    out.write("parameter,E0,E1,gap,degeneracy0\n")
    for i, bx in enumerate(scan.bx_values):
        out.write(",".join([_fmt(bx), _fmt(scan.e0[i]), _fmt(scan.e1[i]),
                            _fmt(scan.gap[i]),
                            str(int(scan.ground_degeneracy[i]))]) + "\n")
    summary_path = _setting(args, config, "summary")
    if summary_path:
        summary = {
            "argmin_bx": scan.argmin_bx,
            "duality_defect": [float(d) for d in scan.duality_defect],
        }
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    return 0


def cmd_chiral(args, config):
    magnitude = float(_setting(args, config, "j_mag", 0.05))
    scale = float(_setting(args, config, "u", 1.0))
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
    from .hubbard import derive, make_triangle
    from .perturb import h_eff_up_to_third, pauli_decompose
    params = closedform.chirality_point_params(magnitude, scale)
    h = h_eff_up_to_third(*derive(make_triangle(), params))
    dec = pauli_decompose(h)
    zeeman = {s: dec[s] for s in ("ZII", "IZI", "IIZ")}
    matrix = h.matrix - pauli.pauli_sum(zeeman, 3)
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
    json.dump({
        "tau4": tau4,
        "eigenvalues": [float(e) for e in report.eigenvalues],
        "eigenvalues_over_tau4": [float(e / tau4) for e in report.eigenvalues],
        "compensating_field": {k: float(v.real) for k, v in zeeman.items()},
        "ground_overlaps": overlaps,
    }, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def build_parser():
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
    p.set_defaults(func=cmd_couplings)

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
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="cross-oracle conformance report")
    p.add_argument("--draws", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--j-over-u", dest="j_over_u", type=float)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chain", help="duality gap scan of the three-spin chain")
    p.add_argument("--sites", type=int)
    p.add_argument("--bx-min", dest="bx_min", type=float)
    p.add_argument("--bx-max", dest="bx_max", type=float)
    p.add_argument("--bx-step", dest="bx_step", type=float)
    p.add_argument("--summary")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("chiral", help="chirality-point spectrum and overlaps")
    p.add_argument("--j-mag", dest="j_mag", type=float)
    p.add_argument("--u", dest="u", type=float)
    p.set_defaults(func=cmd_chiral)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
