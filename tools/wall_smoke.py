"""Smoke run of the elimination at the scaling wall.

Derives the bosonic zig-zag chain of five sites and the fermionic one of
seven (uniform J_up = 0.04, J_down = 0.03, U_updown = 1; bosons also
U_upup = 1.1, U_downdown = 1.2), and the fermionic chain of seven with
J_down = 0, whose 126 components of V's pattern with fast states make
the longest loop of the elimination.  It partitions each and eliminates
its fast block through ``adiabatic.eliminate``, which factors H_FF one
connected component at a time by LAPACK's dense LU and raises, and so
exits 1, when its result before symmetrization is not Hermitian within
``perturb.HERMITICITY_TOL``.  The run exits 1 unless every eliminated
Hamiltonian H is finite and within 1e-12 max(1, ||H||_2) (largest
entry) of an independent Schur complement H_MM - V_MF H_FF^{-1} V_FM,
solved here on the V_FM columns by scipy's ``splu`` of H_FF, assembled
here as a sparse matrix from the partition.  It runs
``adiabatic.series_compare`` on the fermionic chain of seven sites
(J_down = 0.03) and exits 1 unless every number it reports is finite
and its truncated series is within 1e-15 (2-norm) of the engine's
orders 2 + 3.  It also exits 1 unless the fermionic chain of eight
sites, whose dense blocks would exceed ``adiabatic.DENSE_MAX_BYTES``,
is refused by ``eliminate`` and by ``series_compare``, each with the
"too large for the elimination" message while ``tracemalloc`` sees a
peak below 1% of those blocks' bytes (the split and its component
labels, built once per plan, are built before the trace).  It prints
one JSON line per case, with times for information only.

    PYTHONPATH=src python tools/wall_smoke.py
"""

import json
import sys
import time
import tracemalloc

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from trispin import adiabatic
from trispin.fock import Statistics
from trispin.hubbard import HubbardParams, derive, make_zigzag
from trispin.perturb import partition, spectral_norm

CASES = [(Statistics.BOSON, 5, 0.03, {"u_upup": 1.1, "u_dndn": 1.2}),
         (Statistics.FERMION, 7, 0.03, {}),
         (Statistics.FERMION, 7, 0.0, {})]
SERIES = (Statistics.FERMION, 7, 0.03, {})
REFUSED = (Statistics.FERMION, 8, 0.03, {})
SCHUR_TOL = 1e-12
# largest 2-norm between the truncated series and the engine's orders
SERIES_TOL = 1e-15
# largest tracemalloc peak of a refused call, as a share of the dense
# blocks it refuses
REFUSAL_PEAK_SHARE = 0.01


def _derive(statistics, n, j_dn, u_same):
    graph = make_zigzag(n)
    return derive(graph, HubbardParams.uniform(
        statistics, graph.n_links, 0.04, j_dn, **u_same))


def _sparse_hff(p):
    """H_FF = V_FF + diag(E_F) in CSR form, from V's entries inside F."""
    k, ff, nf = len(p.m), p.split.ff, len(p.f)
    vff = sp.csr_matrix((p.vals[ff], (p.rows[ff] - k, p.cols[ff] - k)),
                        shape=(nf, nf))
    return vff + sp.diags(p.ef)


def _schur(p):
    """H_MM - V_MF H_FF^{-1} V_FM by one sparse LU of all of H_FF,
    solved on the V_FM columns (the states R one hop from M), made
    exactly Hermitian."""
    rhs = np.zeros((len(p.f), len(p.m)), dtype=p.vals.dtype)
    rhs[p.r] = p.vmr.conj().T
    solved = spla.splu(_sparse_hff(p).tocsc()).solve(rhs)
    block = p.slow_block() - p.vmr @ solved[p.r]
    return 0.5 * (block + block.conj().T)


def _label(statistics, n, j_dn):
    return f"{statistics.value} zigzag n = {n}, J_down = {j_dn}"


def main():
    failed = _run()
    failed |= _series()
    failed |= _refusal()
    return 1 if failed else 0


def _run():
    failed = False
    for statistics, n, j_dn, u_same in CASES:
        p = partition(*_derive(statistics, n, j_dn, u_same))
        start = time.perf_counter()
        h = adiabatic.eliminate(p).h_eff.matrix
        seconds = time.perf_counter() - start
        finite = bool(np.isfinite(h).all())
        error = float(np.abs(h - _schur(p)).max()
                      / max(1.0, spectral_norm(h))) if finite else np.inf
        ok = finite and error <= SCHUR_TOL
        failed |= not ok
        components = p.split.components
        print(json.dumps({
            "case": _label(statistics, n, j_dn), "fast_dim": len(p.f),
            "components": len(components),
            "largest_component": max(len(c[0]) for c in components),
            "finite": finite, "schur_error": error,
            "eliminate_s": round(seconds, 3), "ok": ok}), flush=True)
    return failed


def _series():
    """True unless the series check runs on the largest fast block the
    limit keeps, finite and within ``SERIES_TOL`` of the engine."""
    h0, v = _derive(*SERIES)
    start = time.perf_counter()
    report = adiabatic.series_compare(h0, v)
    seconds = time.perf_counter() - start
    finite = all(np.isfinite(value) for key, value in report.items()
                 if key != "dims")
    ok = bool(finite and report["series_vs_engine"] <= SERIES_TOL)
    print(json.dumps({
        "case": _label(*SERIES[:3]) + ", series_compare",
        **report,
        "series_compare_s": round(seconds, 3), "ok": ok}), flush=True)
    return not ok


def _refusal():
    """True unless the oversized case is refused by both routes, with
    the elimination's message, within the traced peak."""
    h0, v = _derive(*REFUSED)
    p = partition(h0, v)
    sizes = np.bincount(p.split.labels[len(p.m):])
    dense = p.vals.itemsize * int((sizes ** 2).sum())
    failed = False
    for route, call in (("eliminate", lambda: adiabatic.eliminate(p)),
                        ("series_compare",
                         lambda: adiabatic.series_compare(h0, v))):
        message = None
        tracemalloc.start()
        try:
            call()
        except ValueError as exc:
            message = str(exc)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        ok = (message is not None
              and message.startswith("fast block too large for the "
                                     "elimination")
              and peak < REFUSAL_PEAK_SHARE * dense)
        failed |= not ok
        print(json.dumps({
            "case": f"{_label(*REFUSED[:3])}, {route}",
            "dense_mib": round(dense / 2 ** 20, 1), "refused": message,
            "traced_peak_mb": round(peak / 1e6, 3),
            "ok": ok}), flush=True)
    return failed


if __name__ == "__main__":
    sys.exit(main())
