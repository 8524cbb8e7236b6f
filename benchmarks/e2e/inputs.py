"""Seeded input generation (runs in the parent, never in the system
under test): the same seed and scale give byte-identical inputs.

The LogHub generator draws its bounded value pools from ``hash()`` of a
string, so byte-identical needs ``PYTHONHASHSEED`` pinned; ``run.py``
re-executes itself with it set to 0.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from benchmarks.e2e.config import COLD, DRIFT, STEADY


#: seed of the template population every run shares
POPULATION_SEED = 2021
#: a seed starts its replay this many records into the stream, at most
MAX_OFFSET = 20_000


def _jsonl(service: str, message: str) -> str:
    return json.dumps({"service": service, "message": message})


def _production_stream(seed: int, **shape):
    """A ``ProductionStream`` whose *seed* selects the stretch replayed,
    not the template population.

    Popularity is Zipf over services and over templates, so a handful of
    templates carries most of the traffic and a fresh population per
    seed moves throughput by ±20 % — more than any bound the benchmark
    could then enforce.  The population is therefore fixed and the seed
    decides where in the endless stream the replay starts (offsets are
    not multiples of the batch size, so batch windows differ too).
    """
    from repro.workflow.stream import ProductionStream, StreamConfig

    stream = ProductionStream(StreamConfig(seed=POPULATION_SEED, **shape))
    for _ in stream.records(seed * 7919 % MAX_OFFSET):
        pass
    return stream


def steady(seed: int, n_prefix: int, n_measured: int) -> tuple[list[str], list[str]]:
    """The ``steady`` stream shared by ``steady_file``, ``serve_tcp`` and
    ``steady_pool``: a learning prefix, then the measured lines."""
    stream = _production_stream(
        seed,
        n_services=STEADY["n_services"],
        duplicate_fraction=STEADY["duplicate_fraction"],
    )
    lines = list(stream.jsonl(n_prefix + n_measured))
    return lines[:n_prefix], lines[n_prefix:]


def cold(seed: int, rounds: int, per_round: int) -> list[str]:
    """``cold_mine``: all-fresh records over the paper's 241 services."""
    stream = _production_stream(seed, n_services=COLD["n_services"], duplicate_fraction=0.0)
    return list(stream.jsonl(rounds * per_round))


def drift(seed: int, loghub_lines: int, prod_per_day: int) -> tuple[list[list[str]], list[str]]:
    """``stream_drift``: per-day JSON lines and the labelled accuracy sample.

    Each day interleaves its share of the 16 LogHub corpora (labelled
    services with constant typed tokens, which is what lets drift splits
    fire) with one day of a churning ``ProductionStream``.
    """
    from repro.loghub import DATASET_NAMES, load_dataset

    rng = random.Random(seed)
    n_days = DRIFT["days"]
    per_day = loghub_lines // n_days
    labelled: list[str] = []
    shuffled: dict[str, list[str]] = {}
    for index, name in enumerate(DATASET_NAMES):
        dataset = load_dataset(name, n=loghub_lines, seed=seed * 1000 + index)
        for line in dataset.lines[: DRIFT["accuracy_lines"]]:
            labelled.append(
                json.dumps(
                    {"service": name, "message": line.raw, "event": line.event_id}
                )
            )
        lines = [_jsonl(name, line.raw) for line in dataset.lines]
        rng.shuffle(lines)
        shuffled[name] = lines
    production = _production_stream(
        seed,
        n_services=DRIFT["prod_services"],
        duplicate_fraction=DRIFT["duplicate_fraction"],
    ).days(n_days, prod_per_day, churn_per_day=DRIFT["churn_per_day"])
    days: list[list[str]] = []
    for day in range(n_days):
        lines = [_jsonl(r.service, r.message) for r in production[day]]
        for name in DATASET_NAMES:
            lines.extend(shuffled[name][day * per_day : (day + 1) * per_day])
        rng.shuffle(lines)
        days.append(lines)
    return days, labelled


def write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
