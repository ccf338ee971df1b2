"""The names the benchmark's tracer binds must exist in the package.

``perfbench/tracing.py`` is loaded by path and left unchanged, so a
deleted or renamed traced function fails here rather than in a
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from trispin import conformance
from trispin.fock import Statistics
from trispin.hubbard import HubbardParams, make_triangle
from trispin.perturb import PauliDecomposition

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def test_engine_decomposition_returns_pauli_terms():
    params = HubbardParams.uniform(Statistics.FERMION, 3, 0.04, 0.03)
    dec = conformance.engine_decomposition(make_triangle(), params)[3]
    assert isinstance(dec, PauliDecomposition)
