"""Smoke run of the elimination at the scaling wall.

Derives the bosonic zig-zag chain of five sites and the fermionic one of
seven (uniform J_up = 0.04, J_down = 0.03, U_updown = 1; bosons also
U_upup = 1.1, U_downdown = 1.2), and the fermionic chain of seven with
J_down = 0, whose 128 components of V's pattern share one right-hand-side
column: the widest packing of the elimination.  It partitions each and
eliminates its fast block through ``adiabatic.eliminate``, which raises,
and so exits 1, when its result before symmetrization is not Hermitian
within ``perturb.HERMITICITY_TOL``.  The elimination factors H_FF one
connected component at a time by LAPACK's dense LU.  The run records
the one packed solve that the elimination makes through those factors
and exits 1 unless every eliminated Hamiltonian is finite and
||H_FF X - B|| <= 1e-12 ||B|| (Frobenius) on those right-hand sides B,
the whole solve over all components, with H_FF assembled here as a
sparse matrix from the partition.  It also exits 1 unless the fermionic
chain of eight sites, whose dense blocks would exceed
``adiabatic.DENSE_MAX_BYTES``, is refused by ``eliminate`` with its
"too large for the elimination" message while ``tracemalloc`` sees a
peak below 1% of those blocks' bytes (the split's structure, built once
per plan, is built before the trace).  It prints one JSON line per
case, with times for information only.

    PYTHONPATH=src python tools/wall_smoke.py
"""

import json
import sys
import time
import tracemalloc

import numpy as np
import scipy.sparse as sp

from trispin import adiabatic
from trispin.fock import Statistics
from trispin.hubbard import HubbardParams, derive, make_zigzag
from trispin.perturb import partition

CASES = [(Statistics.BOSON, 5, 0.03, {"u_upup": 1.1, "u_dndn": 1.2}),
         (Statistics.FERMION, 7, 0.03, {}),
         (Statistics.FERMION, 7, 0.0, {})]
REFUSED = (Statistics.FERMION, 8, 0.03, {})
RESIDUAL_TOL = 1e-12
# largest tracemalloc peak of a refused elimination, as a share of the
# dense blocks it refuses
REFUSAL_PEAK_SHARE = 0.01


class _RecordedSolves:
    """LU factors of H_FF that keep each solve's (B, X)."""

    def __init__(self, lu):
        self.lu, self.solves = lu, []

    def solve(self, rhs):
        out = self.lu.solve(rhs)
        self.solves.append((rhs, out))
        return out


def _partition(statistics, n, j_dn, u_same):
    graph = make_zigzag(n)
    return partition(*derive(graph, HubbardParams.uniform(
        statistics, graph.n_links, 0.04, j_dn, **u_same)))


def _sparse_hff(p):
    """H_FF = V_FF + diag(E_F) in CSR form, from V's entries inside F."""
    k, ff, nf = len(p.m), p.split.ff, len(p.f)
    vff = sp.csr_matrix((p.vals[ff], (p.rows[ff] - k, p.cols[ff] - k)),
                        shape=(nf, nf))
    return vff + sp.diags(p.ef)


def _label(statistics, n, j_dn):
    return f"{statistics.value} zigzag n = {n}, J_down = {j_dn}"


def main():
    factor = adiabatic._factor_hff
    factored = []

    def recording(p):
        lu, cond = factor(p)
        if lu is not None:
            lu = _RecordedSolves(lu)
            factored.append(lu)
        return lu, cond

    adiabatic._factor_hff = recording
    try:
        failed = _run(factored)
    finally:
        adiabatic._factor_hff = factor
    failed |= _refusal()
    return 1 if failed else 0


def _run(factored):
    failed = False
    for statistics, n, j_dn, u_same in CASES:
        p = _partition(statistics, n, j_dn, u_same)
        factored.clear()
        start = time.perf_counter()
        h = adiabatic.eliminate(p).h_eff.matrix
        seconds = time.perf_counter() - start
        finite = bool(np.isfinite(h).all())
        # the condition estimate ran on the bare factors, so the one
        # recorded solve is the packed one
        lu, = factored
        (rhs, x), = lu.solves
        residual = float(np.linalg.norm(_sparse_hff(p) @ x - rhs)
                         / np.linalg.norm(rhs))
        ok = finite and residual <= RESIDUAL_TOL
        failed |= not ok
        print(json.dumps({
            "case": _label(statistics, n, j_dn), "fast_dim": len(p.f),
            "columns": rhs.shape[1], "components": len(lu.lu.parts),
            "largest_component": max(len(s) for s, *_ in lu.lu.parts),
            "finite": finite, "relative_residual": residual,
            "eliminate_s": round(seconds, 3), "ok": ok}), flush=True)
    return failed


def _refusal():
    """True unless the oversized case is refused, with its message,
    within the traced peak."""
    statistics, n, j_dn, u_same = REFUSED
    p = _partition(statistics, n, j_dn, u_same)
    dense = p.vals.itemsize * sum(
        len(states) ** 2 for states, *_ in p.split.components)
    message = None
    tracemalloc.start()
    try:
        adiabatic.eliminate(p)
    except ValueError as exc:
        message = str(exc)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    ok = (message is not None
          and message.startswith("fast block too large for the elimination")
          and peak < REFUSAL_PEAK_SHARE * dense)
    print(json.dumps({
        "case": _label(statistics, n, j_dn),
        "dense_mib": round(dense / 2 ** 20, 1), "refused": message,
        "traced_peak_mb": round(peak / 1e6, 3),
        "ok": ok}), flush=True)
    return not ok


if __name__ == "__main__":
    sys.exit(main())
