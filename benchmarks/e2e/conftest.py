"""Lets ``python -m pytest benchmarks/e2e -q`` run from the repository
root without ``PYTHONPATH``: the harness tests import ``benchmarks.e2e``
and, for the input generators, ``repro``."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(_ROOT), str(_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
