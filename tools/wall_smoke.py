"""Smoke run of the elimination at the scaling wall.

Derives the bosonic zig-zag chain of six sites and the fermionic one of
seven (uniform J_up = 0.04, J_down = 0.03, U_updown = 1; bosons also
U_upup = 1.1, U_downdown = 1.2), and the fermionic chain of seven with
J_down = 0, whose 128 components of V's pattern share one right-hand-side
column: the widest packing of the elimination.  It partitions each and
eliminates its fast block through ``adiabatic.eliminate``, which raises,
and so exits 1, when its result before symmetrization is not Hermitian
within ``perturb.HERMITICITY_TOL``.  The elimination factors H_FF one
connected component at a time, by LAPACK's dense LU up to
``adiabatic.DENSE_COMPONENT_DIM`` states and by SuperLU above; the run
prints how many components of each case went to each and exits 1
unless both kinds occur among the cases.  It records the one packed
solve that the elimination makes through those factors and exits 1
unless every eliminated Hamiltonian is finite and
||H_FF X - B|| <= 1e-12 ||B|| (Frobenius) on those right-hand sides B,
the whole solve over all components.  It prints one JSON line per case,
with times for information only.

    PYTHONPATH=src python tools/wall_smoke.py
"""

import json
import sys
import time

import numpy as np

from trispin import adiabatic
from trispin.fock import Statistics
from trispin.hubbard import HubbardParams, derive, make_zigzag
from trispin.perturb import partition

CASES = [(Statistics.BOSON, 6, 0.03, {"u_upup": 1.1, "u_dndn": 1.2}),
         (Statistics.FERMION, 7, 0.03, {}),
         (Statistics.FERMION, 7, 0.0, {})]
RESIDUAL_TOL = 1e-12


class _RecordedSolves:
    """LU factors of H_FF that keep each solve's (B, X)."""

    def __init__(self, lu, hff):
        self.lu, self.hff, self.solves = lu, hff, []

    def solve(self, rhs):
        out = self.lu.solve(rhs)
        self.solves.append((rhs, out))
        return out


def main():
    factor = adiabatic._factor_fast_block
    factored = []

    def recording(hff, components):
        lu, cond = factor(hff, components)
        if lu is not None:
            lu = _RecordedSolves(lu, hff)
            factored.append(lu)
        return lu, cond

    adiabatic._factor_fast_block = recording
    try:
        return _run(factored)
    finally:
        adiabatic._factor_fast_block = factor


def _run(factored):
    failed = False
    kinds = set()
    for statistics, n, j_dn, u_same in CASES:
        graph = make_zigzag(n)
        h0, v = derive(graph, HubbardParams.uniform(
            statistics, graph.n_links, 0.04, j_dn, **u_same))
        factored.clear()
        start = time.perf_counter()
        h = adiabatic.eliminate(partition(h0, v)).h_eff.matrix
        seconds = time.perf_counter() - start
        finite = bool(np.isfinite(h).all())
        # the condition estimate ran on the bare factors, so the one
        # recorded solve is the packed one
        lu, = factored
        (rhs, x), = lu.solves
        residual = float(np.linalg.norm(lu.hff @ x - rhs)
                         / np.linalg.norm(rhs))
        ok = finite and residual <= RESIDUAL_TOL
        failed |= not ok
        dense = lu.lu.dense
        superlu = len(lu.lu.parts) - dense
        kinds |= {kind for kind, count in (("dense", dense),
                                           ("superlu", superlu)) if count}
        print(json.dumps({
            "case": f"{statistics.value} zigzag n = {n}, J_down = {j_dn}",
            "fast_dim": lu.hff.shape[0], "columns": rhs.shape[1],
            "dense_components": dense, "superlu_components": superlu,
            "finite": finite, "relative_residual": residual,
            "eliminate_s": round(seconds, 3), "ok": ok}), flush=True)
    if kinds != {"dense", "superlu"}:
        print(json.dumps({"factorisations": sorted(kinds),
                          "ok": False}), flush=True)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
