"""Run the suite from a plain checkout: put src/ on sys.path for the tests,
and on PYTHONPATH for the interpreters that the CLI tests start."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in _paths if p])
