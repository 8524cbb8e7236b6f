"""Documentation stays true: doctests run, examples execute.

A reproduction repository lives or dies by its README/quickstart being
copy-pasteable; these tests execute every docstring example and every
script in ``examples/`` in a fresh interpreter.
"""

import doctest
import os
import subprocess
import sys

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


class TestDoctests:
    def test_package_quickstart_doctest(self):
        import repro

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0

    def test_hashing_doctest(self):
        import repro._util.hashing as hashing

        results = doctest.testmod(hashing, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0


class TestMetricTable:
    def test_architecture_table_lists_every_metric_family(self):
        """docs/architecture.md §8's table names exactly the families
        ``METRIC_HELP`` registers."""
        from repro.obs.observer import METRIC_HELP

        path = os.path.join(os.path.dirname(__file__), "..", "docs", "architecture.md")
        with open(path, encoding="utf-8") as fh:
            rows = [line for line in fh if line.startswith("| `rtg_")]
        names = [row.split("`")[1] for row in rows]
        assert len(names) == len(set(names))
        assert set(names) == set(METRIC_HELP)


def _run_example(name: str, *args: str, timeout: int = 300):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamplesRun:
    """Each example is executed end to end; its own assertions are part
    of the check (several examples assert their expected outcomes)."""

    def test_quickstart(self):
        proc = _run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "%srcip%" in proc.stdout

    def test_export_formats(self):
        proc = _run_example("export_formats.py")
        assert proc.returncode == 0, proc.stderr
        for marker in ("<patterndb", "patterndb:", "grok {"):
            assert marker in proc.stdout

    def test_streaming_service(self):
        proc = _run_example("streaming_service.py")
        assert proc.returncode == 0, proc.stderr
        assert "after restart:" in proc.stdout

    def test_loghub_accuracy(self):
        proc = _run_example("loghub_accuracy.py", "Apache")
        assert proc.returncode == 0, proc.stderr
        assert "Sequence-RTG, raw logs" in proc.stdout

    def test_alerting_actions(self):
        proc = _run_example("alerting_actions.py")
        assert proc.returncode == 0, proc.stderr
        assert "worker restarts triggered: 2" in proc.stdout

    def test_anomaly_detection(self):
        proc = _run_example("anomaly_detection.py")
        assert proc.returncode == 0, proc.stderr
        assert "0 false alarms" in proc.stdout

    def test_production_simulation_short(self):
        # two days run bootstrap, routing and batch mining; the review
        # dynamics are pinned by tests/workflow/test_simulation.py
        proc = _run_example("production_simulation.py", "2")
        assert proc.returncode == 0, proc.stderr
        assert "unmatched fraction:" in proc.stdout
