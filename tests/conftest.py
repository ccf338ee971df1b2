"""Make ``src`` importable in the ``python -m trispin.cli`` subprocesses
that some tests start, as ``pythonpath`` in pyproject.toml does for the
test process itself."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
