"""Benchmark worker: one fresh process per workload run (or set-up probe).

``run.py`` starts this script with the environment fixed; it imports
trispin from the checkout's ``src``, warms every layer up, then runs
closed-loop passes of one workload and checks every output.  The last
line of its standard output is a JSON record that ``run.py`` turns into
metrics.

    python3 perfbench/worker.py --mode setup
    python3 perfbench/worker.py --mode run --workload zigzag --seed 1 \
        --seconds 20 --trace 0
"""

import time

T0 = time.perf_counter()   # set-up time counts from before the imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import trispin  # noqa: E402
from trispin import adiabatic, chainlab, cli, closedform, conformance, \
    hubbard, perturb  # noqa: E402
from trispin.fock import Species, Statistics  # noqa: E402
from trispin.hubbard import HubbardParams  # noqa: E402

from tracing import Tracer  # noqa: E402

if not Path(trispin.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"trispin imported from {trispin.__file__}, not {SRC}")

OUT = HERE / "out"
REFERENCE = HERE / "reference"
UP, DOWN = Species.UP, Species.DOWN


def run_cli(argv):
    """``cli.main`` in-process with its standard output kept in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check(name, ok, detail=""):
    return (name, bool(ok), detail)


# ---------------------------------------------------------------- zigzag

# Fermionic n = 7 (about 25 s) and bosonic n = 5 (8-12 s) are left out: a
# single derivation that long cannot be repeated within a run, so its time
# follows the load other tenants put on the host.
ZIGZAG_CASES = (("fermion", 4), ("fermion", 5), ("fermion", 6),
                ("boson", 4))
ZIGZAG_HEAVY = ("fermion", 6)


def derive(graph, params):
    """The user pipeline from basis to Pauli terms and the elimination."""
    basis = hubbard.hilbert_basis(graph, params)
    h0 = hubbard.build_h0(basis, params)
    v = hubbard.build_v(basis, graph, params)
    m = hubbard.projector_single_occupancy(basis)
    h = perturb.h_eff_second(h0, v, m) + perturb.h_eff_third(h0, v, m)
    dec = perturb.pauli_decompose(h)
    nnn = chainlab.detect_nnn_terms(dec, graph)
    exact = adiabatic.adiabatic_eliminate(h0, v, m)
    return h.matrix, dec, nnn, exact.h_eff.matrix


class Zigzag:
    min_passes = 1

    def __init__(self, rng):
        self.cases = []
        for stat, n in ZIGZAG_CASES:
            graph = hubbard.make_zigzag(n)
            tun = {(e.link, s): complex(rng.uniform(0.02, 0.05))
                   for e in graph.edges for s in (UP, DOWN)}
            if stat == "fermion":
                params = HubbardParams(Statistics.FERMION, u_updn=1.0,
                                       tunneling=tun)
            else:
                params = HubbardParams(Statistics.BOSON,
                                       u_upup=rng.uniform(0.8, 1.4),
                                       u_dndn=rng.uniform(0.8, 1.4),
                                       u_updn=1.0, tunneling=tun)
            self.cases.append((stat, n, graph, params))

    def run_pass(self):
        times = {"heavy_s": 0.0, "light_s": 0.0}
        outputs = []
        start = time.perf_counter()
        for stat, n, graph, params in self.cases:
            t = time.perf_counter()
            outputs.append(derive(graph, params))
            key = "heavy_s" if (stat, n) == ZIGZAG_HEAVY else "light_s"
            times[key] += time.perf_counter() - t
        times["wall_s"] = time.perf_counter() - start
        return times, outputs

    def check(self, outputs):
        for (stat, n, graph, params), out in zip(self.cases, outputs):
            h, dec, nnn, exact = out
            tag = f"{stat} n={n}"
            u_min = min(u for u in (params.u_upup, params.u_dndn,
                                    params.u_updn) if math.isfinite(u))
            j_over_u = max(abs(j) for j in params.tunneling.values()) / u_min
            # the fourth-order tail is extensive: one bound per link
            bound = conformance.oracle_tolerance(j_over_u, 1.0) * graph.n_links
            resid = np.linalg.norm(exact - h, 2)
            yield check(f"{tag} engine vs elimination", resid <= bound,
                        f"{resid:.3e} > {bound:.3e}")
            defect = np.abs(h - h.conj().T).max()
            yield check(f"{tag} hermiticity",
                        defect <= 1e-12 * max(1.0, np.abs(h).max()),
                        f"defect {defect:.3e}")
            coeffs = np.fromiter(dec.coeffs.values(), dtype=complex)
            frob = np.linalg.norm(h, "fro") ** 2
            parseval = abs(2 ** n * np.sum(np.abs(coeffs) ** 2) - frob)
            yield check(f"{tag} Parseval", parseval <= 1e-10 * frob,
                        f"{parseval:.3e} vs |H|_F^2 {frob:.3e}")
            yield check(f"{tag} distance-2 ZZ count",
                        len(nnn.detected_zz) == n - 2,
                        f"{len(nnn.detected_zz)} != {n - 2}")

    def aliases(self, best):
        return {"derive_largest_s": (best["heavy_s"], "s")}


# -------------------------------------------------------------- triangle

SCAN_FAMILIES = tuple(cli.SCAN_COLUMNS)
# Short passes: the fastest of many passes is steady on a noisy machine.
VERIFY_DRAWS = 10           # per statistics, so 20 draws per pass
SCAN_STEPS = 25             # per axis, so 625 points per family
ROWS_SAMPLED = 2            # scan rows per family checked against the engine
# ``verify`` draws the same-species collision energies from [0.8, 1.4] of
# the cross channel, and the fourth-order tail grows as J^4 / U_min^3.
# ``oracle_tolerance`` is applied there with the cross channel as U, so a
# rare bosonic draw with U_min near 0.8 is flagged as an oracle
# disagreement although its residual still falls as J^4.  The gate bounds
# the residual at J / U_min instead, as the zigzag gate does, and counts
# the draws ``verify`` flags.
VERIFY_U_MIN = 0.8
CHIRAL_LEVELS = 2 * math.sqrt(3.0) * np.array([-1, -1, 0, 0, 0, 0, 1, 1])


def scan_row_params(family, j_up, j_dn, uuu, udd):
    if family.startswith("complex_"):
        j_up, j_dn = 1j * j_up, 1j * j_dn
    tun = {(link, s): complex(j) for link in range(3)
           for s, j in ((UP, j_up), (DOWN, j_dn))}
    if family.endswith("fermionic"):
        return HubbardParams(Statistics.FERMION, u_updn=1.0, tunneling=tun)
    return HubbardParams(Statistics.BOSON, u_upup=uuu, u_dndn=udd,
                         u_updn=1.0, tunneling=tun)


class Triangle:
    min_passes = 2

    def __init__(self, rng):
        self.rng = rng
        self.uuu, self.udd = (float(u) for u in rng.uniform(0.8, 1.4, size=2))
        grid = []
        for axis in ("j-up", "j-dn"):
            grid += [f"--{axis}-min", repr(float(rng.uniform(0.005, 0.02))),
                     f"--{axis}-max", repr(float(rng.uniform(0.06, 0.1))),
                     f"--{axis}-steps", str(SCAN_STEPS)]
        energies = ["--u", "1.0", "--uuu", repr(self.uuu),
                    "--udd", repr(self.udd)]
        self.verify = ["verify", "--draws", str(VERIFY_DRAWS),
                       "--seed", str(int(rng.integers(1, 2 ** 31)))]
        self.scans = {f: ["scan", "--family", f, *grid, *energies]
                      for f in SCAN_FAMILIES}
        self.first_csv = None
        self.oracle_false_alarms = 0

    def run_pass(self):
        start = time.perf_counter()
        verify = run_cli(self.verify)
        t_verify = time.perf_counter()
        scans = {f: run_cli(argv) for f, argv in self.scans.items()}
        t_scan = time.perf_counter()
        chiral = run_cli(["chiral"])
        end = time.perf_counter()
        times = {"heavy_s": t_verify - start, "light_s": t_scan - t_verify,
                 "wall_s": end - start}
        return times, (verify, scans, chiral)

    def check(self, outputs):
        (code, text), scans, (chiral_code, chiral_text) = outputs
        report = json.loads(text)
        failures = report["hard_failures"]
        others = [f for f in failures if f["kind"] != "oracle_disagreement"]
        yield check("verify exit code matches ok",
                    code == (0 if report["ok"] else 1)
                    and report["ok"] == (not failures),
                    f"exit {code}, ok {report['ok']}")
        yield check("verify has no hard failure besides oracle disagreement",
                    not others, f"hard failures {others}")
        flagged = 0
        for k, draw in enumerate(report["draws"]):
            cert = draw["certified"]
            yield check(f"verify draw {k} certified strings",
                        cert["n_failed"] == 0, f"{cert['n_failed']} failed")
            resid, j_over_u = cert["adiabatic_vs_engine"], cert["j_over_u"]
            flagged += resid > conformance.oracle_tolerance(j_over_u, 1.0)
            bound = conformance.oracle_tolerance(j_over_u / VERIFY_U_MIN, 1.0)
            yield check(f"verify draw {k} engine vs elimination",
                        resid <= bound, f"{resid:.3e} > {bound:.3e}")
        yield check("verify oracle disagreements match its own tolerance",
                    flagged == len(failures) - len(others),
                    f"{flagged} draws over tolerance, "
                    f"{len(failures) - len(others)} reported")
        self.oracle_false_alarms += flagged
        first = self.first_csv is None
        if first:
            self.first_csv = {f: csv for f, (_, csv) in scans.items()}
        for family, (code, csv) in scans.items():
            yield check(f"scan {family} exit code", code == 0, f"exit {code}")
            if not first:
                yield check(f"scan {family} CSV identical across passes",
                            csv == self.first_csv[family])
            rows = csv.splitlines()[1:]
            for i in self.rng.choice(len(rows), ROWS_SAMPLED, replace=False):
                yield self.check_scan_row(family, rows[i])
        result = json.loads(chiral_text)
        levels = np.sort(result["eigenvalues_over_tau4"])
        overlap = min(o["overlap"] for o in result["ground_overlaps"].values())
        yield check("chiral spectrum and overlaps",
                    chiral_code == 0
                    and np.abs(levels - CHIRAL_LEVELS).max() <= 1e-6
                    and overlap >= 1 - 1e-9,
                    f"levels {levels}, overlap {overlap}")

    def check_scan_row(self, family, line):
        """A scan row's closed-form couplings against the order-3 engine."""
        row = [float(x) for x in line.split(",")]
        j_up, j_dn = row[:2]
        params = scan_row_params(family, j_up, j_dn, self.uuu, self.udd)
        engine = conformance.engine_decomposition(hubbard.make_triangle(),
                                                  params)[3]
        formula = closedform.CouplingSet(
            family, dict(zip(cli.SCAN_COLUMNS[family], row[2:])))
        expected = closedform.expected_string_coefficients(formula)
        u_min = min(1.0, self.uuu, self.udd)
        tol = conformance.formula_tolerance(max(j_up, j_dn) / u_min, 1.0)
        strings = set(expected) | set(engine.nonzero(1e-13))
        worst = max(abs(engine[s] - expected.get(s, 0.0)) for s in strings)
        return check(f"scan {family} row ({j_up:.4g}, {j_dn:.4g}) vs engine",
                     worst <= tol, f"{worst:.3e} > {tol:.3e}")

    def aliases(self, best):
        points = len(SCAN_FAMILIES) * SCAN_STEPS ** 2
        return {"draws_per_s": (2 * VERIFY_DRAWS / best["heavy_s"], "1/s"),
                "scan_points_per_s": (points / best["light_s"], "1/s"),
                "verify_oracle_false_alarms": (self.oracle_false_alarms,
                                               "count")}


# ----------------------------------------------------------------- chain

# The light part is an n = 12 scan over the 7 default grid points around
# the duality point b = 1; the heavy part is n = 15 at b = 1 alone.  The
# full scans (about 3 s and 25 s) would leave too few passes in a run.
CHAIN_RUNS = (("light_s", 12, ["--bx-min", "0.85", "--bx-max", "1.15"]),
              ("heavy_s", 15, ["--bx-min", "1.0", "--bx-max", "1.0"]))
CHAIN_REL_TOL = 1e-9        # ARPACK starts from a random vector


class Chain:
    """Duality scans of the three-spin chain; the inputs do not use the seed."""

    min_passes = 1

    def __init__(self, rng):
        OUT.mkdir(exist_ok=True)
        self.reference = {n: _chain_table((REFERENCE / f"chain_n{n}.csv")
                                          .read_text())
                          for _, n, _ in CHAIN_RUNS}

    def run_pass(self):
        times = {}
        outputs = []
        start = time.perf_counter()
        for key, n, grid in CHAIN_RUNS:
            summary = OUT / f"chain_summary_n{n}.json"
            summary.unlink(missing_ok=True)
            t = time.perf_counter()
            code, csv = run_cli(["chain", "--sites", str(n), *grid,
                                 "--summary", str(summary)])
            times[key] = time.perf_counter() - t
            outputs.append((n, code, csv, json.loads(summary.read_text())))
        times["wall_s"] = time.perf_counter() - start
        return times, outputs

    def check(self, outputs):
        for n, code, csv, summary in outputs:
            got = _chain_table(csv)
            ref = self.reference[n]
            rows = [int(np.argmin(np.abs(ref[:, 0] - bx))) for bx in got[:, 0]]
            ref = ref[rows]
            close = (code == 0 and len(got) > 0
                     and np.all(np.abs(got[:, 0] - ref[:, 0]) <= 1e-12)
                     and np.all(got[:, 4] == ref[:, 4])
                     and np.all(np.abs(got[:, 1:4] - ref[:, 1:4])
                                <= CHAIN_REL_TOL
                                * np.maximum(1.0, np.abs(ref[:, 1:4]))))
            yield check(f"chain n={n} matches reference within "
                        f"{CHAIN_REL_TOL:g}", close, f"exit {code}")
            bx, e0, e1 = got[:, 0], got[:, 1], got[:, 2]
            at_one = int(np.argmin(np.abs(bx - 1.0)))
            defect = summary["duality_defect"][at_one]
            yield check(f"chain n={n} duality defect at b=1",
                        abs(bx[at_one] - 1.0) < 1e-12 and defect <= CHAIN_REL_TOL,
                        f"{defect:.3e}")
            yield check(f"chain n={n} e0 <= e1", np.all(e0 <= e1))
            if len(bx) < 2:
                continue
            step = bx[1] - bx[0]
            yield check(f"chain n={n} gap argmin within one step of 1",
                        abs(summary["argmin_bx"] - 1.0) <= step + 1e-12,
                        f"argmin {summary['argmin_bx']}")
            slack = CHAIN_REL_TOL * np.abs(e0[:-1])
            yield check(f"chain n={n} E0 non-increasing in b",
                        np.all(np.diff(e0) <= slack))

    def aliases(self, best):
        return {"chain_points_per_s": (1 / best["heavy_s"], "1/s")}


def _chain_table(csv):
    return np.array([[float(x) for x in line.split(",")]
                     for line in csv.splitlines()[1:]])


WORKLOADS = {"zigzag": Zigzag, "triangle": Triangle, "chain": Chain}


# ---------------------------------------------------------------- set-up

def warm_up():
    """One small call into every layer: imports, lazy LAPACK/ARPACK
    initialisation and first-call costs all land in set-up time."""
    graph = hubbard.make_zigzag(3)
    derive(graph, HubbardParams.uniform(Statistics.FERMION, graph.n_links,
                                        0.04, 0.03))
    run_cli(["verify", "--draws", "1"])
    for family in SCAN_FAMILIES:
        run_cli(["scan", "--family", family, "--uuu", "1", "--udd", "1",
                 "--j-up-max", "0.05", "--j-up-steps", "2",
                 "--j-dn-max", "0.05", "--j-dn-steps", "2"])
    run_cli(["chiral"])
    run_cli(["chain", "--sites", "6"])
    chainlab.extremal_eigenvalues(chainlab.zzz_chain_sparse(1.0, 0.0, 10))


def environment():
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ------------------------------------------------------------------ main

def run(args, setup_s):
    """Closed-loop passes until the next one would overrun ``--seconds``.

    With ``--trace 1`` passes alternate untraced and traced (at least one
    of each); the fastest traced pass supplies the per-layer figures.
    """
    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    min_passes = max(workload.min_passes, 2 if args.trace else 1)
    # Other tenants slow one core at a time, for seconds to minutes; passes
    # take turns on the usable cores so that the fastest pass finds a quiet
    # one.  A traced run turns after each untraced/traced pair.
    cpus = sorted(os.sched_getaffinity(0))
    stride = 2 if args.trace else 1
    passes = []
    attempted = failed = 0
    failures = []
    best = None                  # (wall_s, tracer) of the fastest traced pass
    start = time.perf_counter()
    while True:
        os.sched_setaffinity(0, {cpus[len(passes) // stride % len(cpus)]})
        tracer = Tracer() if args.trace and len(passes) % 2 else None
        if tracer:
            tracer.install()
        try:
            times, outputs = workload.run_pass()
        finally:
            if tracer:
                tracer.uninstall()
        try:
            for name, ok, detail in workload.check(outputs):
                attempted += 1
                if not ok:
                    failed += 1
                    failures.append(f"{name}: {detail}")
        except (ValueError, KeyError, IndexError) as exc:
            # unreadable output (e.g. a command that printed nothing)
            attempted += 1
            failed += 1
            failures.append(f"output could not be checked: {exc!r}")
        passes.append({**times, "traced": tracer is not None})
        if tracer and (best is None or times["wall_s"] < best[0]):
            best = (times["wall_s"], tracer)
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed + times["wall_s"] > args.seconds):
            break
    untraced = [p for p in passes if not p["traced"]]
    fastest = {k: min(p[k] for p in untraced)
               for k in ("wall_s", "heavy_s", "light_s")}
    record = {
        "setup_s": setup_s,
        "passes": passes,
        "aliases": workload.aliases(fastest),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
        "trace": None,
    }
    if best:
        wall_s, tracer = best
        per_function, self_sum = tracer.summary()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace_{args.workload}_{args.seed}.json",
                     tracer.spans[0][2])
        record["trace"] = {"wall_s": wall_s, "functions": per_function,
                           "counts": tracer.counts, "self_sum_s": self_sum,
                           "spans": len(tracer.spans)}
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    warm_up()
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        record = {"setup_s": setup_s}
    else:
        if args.workload is None or args.seconds is None:
            parser.error("--mode run needs --workload and --seconds")
        record = run(args, setup_s)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
