"""The names the benchmark's tracer and worker use must exist in the
package.

``perfbench/tracing.py`` and ``perfbench/worker.py`` are read by path and
left unchanged, so a deleted or renamed function fails here rather than
in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from trispin import adiabatic, conformance, hubbard, perturb
from trispin.fock import Statistics
from trispin.hubbard import HubbardParams, make_triangle, make_zigzag
from trispin.perturb import PauliDecomposition

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKER = PERFBENCH / "worker.py"
# package modules the worker imports by name and reads attributes of
WORKER_MODULES = ("adiabatic", "chainlab", "cli", "closedform",
                  "conformance", "hubbard", "perturb")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    missing = [f"{module}.{name}" for module, name in _load_tracing().TARGETS
               if not callable(getattr(
                   importlib.import_module(f"trispin.{module}"), name, None))]
    assert missing == []


def test_worker_attributes_resolve():
    tree = ast.parse(WORKER.read_text())
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in WORKER_MODULES}
    assert {module for module, _ in read} == set(WORKER_MODULES)
    missing = sorted(f"{module}.{name}" for module, name in read
                     if not hasattr(importlib.import_module(
                         f"trispin.{module}"), name))
    assert missing == []


def test_worker_calls_bind_to_signatures():
    """Each ``module.func(...)`` call of the worker on a package module
    still fits the function's signature: same positional count, same
    keyword names."""
    tree = ast.parse(WORKER.read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id in WORKER_MODULES]
    assert calls
    unbound = []
    for call in calls:
        module, name = call.func.value.id, call.func.attr
        where = f"worker.py:{call.lineno} {module}.{name}"
        assert not any(isinstance(a, ast.Starred) for a in call.args), where
        assert all(k.arg is not None for k in call.keywords), where
        fn = getattr(importlib.import_module(f"trispin.{module}"), name)
        try:
            inspect.signature(fn).bind(*[None] * len(call.args),
                                       **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
    assert unbound == []


def test_engine_decomposition_returns_pauli_terms():
    params = HubbardParams.uniform(Statistics.FERMION, 3, 0.04, 0.03)
    dec = conformance.engine_decomposition(make_triangle(), params)[3]
    assert isinstance(dec, PauliDecomposition)


def test_traced_facts_read_real_results():
    """Every count hook of the tracer evaluates, on a real call of its
    function (fermionic zig-zag, n = 4), to a non-negative int."""
    graph = make_zigzag(4)
    params = HubbardParams.uniform(Statistics.FERMION, graph.n_links, 0.04,
                                   0.03)
    basis = hubbard.hilbert_basis(graph, params)
    h0 = hubbard.build_h0(basis, params)
    v = hubbard.build_v(basis, graph, params)
    m = hubbard.projector_single_occupancy(basis)
    calls = {
        "hubbard.build_h0": (hubbard.build_h0, (basis, params)),
        "hubbard.build_v": (hubbard.build_v, (basis, graph, params)),
        "adiabatic.adiabatic_eliminate": (adiabatic.adiabatic_eliminate,
                                          (h0, v, m)),
        "perturb.h_eff_second": (perturb.h_eff_second, (h0, v, m)),
        "perturb.h_eff_third": (perturb.h_eff_third, (h0, v, m)),
    }
    facts = _load_tracing().FACTS
    assert set(facts) == set(calls)
    for name, (count, hook) in facts.items():
        fn, args = calls[name]
        value = hook(args, fn(*args))
        assert isinstance(value, int) and value >= 0, (name, count, value)
