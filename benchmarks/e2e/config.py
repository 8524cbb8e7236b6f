"""Production configuration, workload sizes and the metric catalogue.

Sizes are the *scale 1.0* counts; ``--seconds S`` runs at scale
``S / 10`` (so ``run_seconds: 10`` in ``BENCHMARK.json`` is scale 1.0)
and ``--quick`` at 1/20.  Counts, not durations, are fixed so that two
commits mine exactly the same records.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: ``--seconds`` that corresponds to scale 1.0
SECONDS_AT_SCALE_1 = 10.0
QUICK_SCALE = 1 / 20

WORKLOADS = ("steady_file", "cold_mine", "stream_drift", "serve_tcp", "steady_pool")
#: workloads that must leave the identical pattern DB (``steady_file`` is
#: the reference computation)
STEADY_TRIO = ("steady_file", "serve_tcp", "steady_pool")

BATCH_SIZE = 5_000
STEADY = {"n_services": 40, "duplicate_fraction": 0.5, "prefix": 50_000, "measured": 200_000}
COLD = {"n_services": 241, "rounds": 30, "per_round": 5_000}
DRIFT = {
    "days": 16,
    "loghub_lines": 2_400,  # per LogHub service, spread over the days
    "prod_per_day": 800,
    "prod_services": 24,
    "churn_per_day": 4,
    "duplicate_fraction": 0.3,
    "accuracy_lines": 2_000,
    "micro_batch_size": 256,
    "flush_pending": 64,
    "pattern_ttl_days": 4,
    "split_min_matches": 64,
}
POOL_WORKERS = 2
ISOLATED_SLICE = 20_000
SEND_CHUNK = 65_536

#: the two end-to-end metrics the driver contract cannot list (always 0 /
#: one workload only); the full run and ``--compare`` still report them.
#: Their bound is an absolute difference, not a share of the median
#: (``BENCHMARK.json`` can only carry relative bounds)
EXTRA_END_TO_END = {
    "failed_frac": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "grouping_accuracy": {"unit": "ratio", "better": "higher", "bound": 0.005},
}


def scaled(count: int, scale: float, multiple: int = 1, minimum: int = 1) -> int:
    """*count* × *scale*, rounded to a whole number of *multiple*."""
    units = max(minimum, round(count * scale / multiple))
    return units * multiple


def sizes(scale: float) -> dict:
    """Every record count of every workload at *scale*."""
    return {
        "scale": scale,
        "batch_size": BATCH_SIZE,
        "steady_prefix": scaled(STEADY["prefix"], scale, BATCH_SIZE),
        "steady_measured": scaled(STEADY["measured"], scale, BATCH_SIZE, minimum=2),
        "cold_rounds": scaled(COLD["rounds"], scale, minimum=2),
        "cold_per_round": COLD["per_round"],
        "drift_loghub_lines": scaled(DRIFT["loghub_lines"], scale, DRIFT["days"]),
        "drift_prod_per_day": scaled(DRIFT["prod_per_day"], scale),
        "isolated_slice": scaled(ISOLATED_SLICE, min(1.0, scale)),
    }


def supported(cls, **wanted) -> dict:
    """The subset of *wanted* that dataclass *cls* still has fields for.

    ROADMAP item 2 deletes configuration knobs; the benchmark cannot be
    edited by the PR that does, so it asks only for what exists.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in wanted.items() if k in names}


def select_compiled(part) -> None:
    """Pick the compiled backend if *part* still has a ``backend`` knob."""
    if any(f.name == "backend" for f in dataclasses.fields(part)):
        part.backend = "compiled"


def production_config(**overrides):
    """The configuration every workload runs on: fast lane on, metrics
    on, compiled scanner/parser/analyzer."""
    from repro.core.config import RTGConfig

    config = RTGConfig(
        **supported(
            RTGConfig,
            batch_size=BATCH_SIZE,
            enable_fastpath=True,
            enable_metrics=True,
            **overrides,
        )
    )
    for part in (config.scanner, config.parser, config.analyzer):
        select_compiled(part)
    return config


def drift_config():
    """Production configuration in stream mode, sized for ``stream_drift``."""
    from repro.core.config import StreamingConfig

    return production_config(
        mode="stream",
        streaming=StreamingConfig(
            micro_batch_size=DRIFT["micro_batch_size"],
            flush_pending=DRIFT["flush_pending"],
            # wall-clock triggers off: flushes depend on the input only
            flush_interval_s=3600.0,
            pattern_ttl_days=DRIFT["pattern_ttl_days"],
            split_min_matches=DRIFT["split_min_matches"],
        ),
    )


def load_benchmark_json(path: Path = BENCHMARK_JSON) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
