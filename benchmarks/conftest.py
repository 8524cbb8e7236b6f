"""Shared fixtures of the paper's tables.

Every ``bench_*.py`` test computes one table or figure of the paper,
writes it next to the paper's values into ``results/`` and asserts its
shape findings.  The tables hold deterministic values only, so a rerun
that changes one is a change of the program (CI diffs ``results/``
after the run); the paper's timing claims are ``benchmarks/gates.py``.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
RESULTS_DIR = os.path.join(ROOT, "results")
# plain ``pytest``, unlike ``python -m pytest``, does not put the
# repository root on ``sys.path``; the Fig. 5 test imports ``benchmarks.gates``
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def table_writer(results_dir):
    """Write a Markdown table into results/ and echo it to stdout."""

    def write(name: str, header: list[str], rows: list[list]) -> str:
        path = os.path.join(results_dir, name)
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join("---" for _ in header) + "|"]
        lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
        text = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\n--- {name} ---")
        print(text)
        return path

    return write
