"""In-memory span recorder wrapped around trispin's public functions.

``Tracer.install`` replaces each target function, in every loaded
``trispin`` module namespace that binds it, by a wrapper that records a
span (name, parent span, start, end).  Spans stay in memory until
``write``; ``summary`` derives per-function call counts and self times
(span time minus the time covered by its direct child spans).

Per-state helpers such as ``fock.transfer`` and ``fock.apply_ladder``
are deliberately not wrapped: they run 10^5-10^6 times per pass and the
wrapper cost would swamp them.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs whose calls become spans.
TARGETS = (
    ("fock", "enumerate_basis"),
    ("hubbard", "build_h0"),
    ("hubbard", "build_v"),
    ("hubbard", "projector_single_occupancy"),
    ("perturb", "h_eff_second"),
    ("perturb", "h_eff_third"),
    ("perturb", "pauli_decompose"),
    ("pauli", "string_matrix"),
    ("pauli", "string_trace_with"),
    ("adiabatic", "adiabatic_eliminate"),
    ("closedform", "build_spin_hamiltonian"),
    ("closedform", "expected_string_coefficients"),
    ("closedform", "bosonic_couplings"),
    ("closedform", "fermionic_couplings"),
    ("closedform", "complex_tunneling_couplings"),
    ("raman", "covariance_check"),
    ("chainlab", "duality_scan"),
    ("chainlab", "extremal_eigenvalues"),
    ("chainlab", "zzz_chain_sparse"),
    ("chainlab", "diagonalize"),
    ("chainlab", "detect_nnn_terms"),
    ("conformance", "run_triangle_draw"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_scan"),
    ("cli", "cmd_chain"),
    ("cli", "cmd_chiral"),
)


def _dense_bytes(args, result):
    # each order-2/3 call densifies V on the full sector: 16 bytes per
    # complex entry
    return 16 * args[0].dim ** 2


# Counts read off a call's arguments or result: function -> (name, fn).
FACTS = {
    "hubbard.build_h0": ("hubbard.basis_dim", lambda a, r: r.dim),
    "hubbard.build_v": ("hubbard.v_nnz", lambda a, r: r.mat.nnz),
    "adiabatic.adiabatic_eliminate": ("adiabatic.fast_dim",
                                      lambda a, r: r.dims[1]),
    "perturb.h_eff_second": ("perturb.dense_bytes", _dense_bytes),
    "perturb.h_eff_third": ("perturb.dense_bytes", _dense_bytes),
}

COUNT_UNITS = {
    "hubbard.basis_dim": "count",
    "hubbard.v_nnz": "count",
    "adiabatic.fast_dim": "count",
    "perturb.dense_bytes": "B",
}


def target_names():
    return [f"{module}.{name}" for module, name in TARGETS]


class Tracer:
    def __init__(self):
        self.names = target_names()
        self.spans = []          # [name index, parent span index, start, end]
        self.stack = []
        self.counts = dict.fromkeys(COUNT_UNITS, 0)
        self._patched = []       # (namespace, attribute, original)

    def _wrap(self, index, fn, fact):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if fact is not None:
                counts[fact[0]] += fact[1](args, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever a trispin module binds it by name."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "trispin" or name.startswith("trispin.")]
        for index, (module, fname) in enumerate(TARGETS):
            original = getattr(sys.modules[f"trispin.{module}"], fname)
            wrapper = self._wrap(index, original,
                                 FACTS.get(f"{module}.{fname}"))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def summary(self):
        """Per-function calls and self seconds, plus the summed self time."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for index, parent, start, end in self.spans:
            calls[index] += 1
            total[index] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = list(total)
        for k, (index, _, _, _) in enumerate(self.spans):
            self_s[index] -= child[k]
        per_function = {name: {"calls": calls[i], "self_s": self_s[i]}
                        for i, name in enumerate(self.names)}
        return per_function, sum(self_s)

    def write(self, path, origin):
        """Dump the raw spans, times relative to ``origin``."""
        payload = {
            "names": self.names,
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": [[i, p, s - origin, e - origin]
                      for i, p, s, e in self.spans],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
