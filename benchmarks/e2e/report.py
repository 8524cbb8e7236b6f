"""Printing results and comparing two sets of them (``--compare``)."""

from __future__ import annotations

import json
import statistics

from benchmarks.e2e import config


def end_to_end_spec(benchmark: dict) -> dict[str, dict]:
    """name -> {unit, better, bound, absolute} of every end-to-end metric
    the full run reports: the ones ``BENCHMARK.json`` lists plus the two
    it cannot (:data:`config.EXTRA_END_TO_END`)."""
    spec = {
        m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"], "absolute": False}
        for m in benchmark["end_to_end"]
    }
    for name, extra in config.EXTRA_END_TO_END.items():
        spec[name] = {**extra, "absolute": True}
    return spec


def print_workload(name: str, record: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    print(f"\n== {name} ==")
    for metric, entry in record["end_to_end"].items():
        note = ""
        if "percentile" in entry:
            note = f"  (p{entry['percentile']:.1f})"
        if "n_samples" in entry:
            note += f"  n_samples={entry['n_samples']}"
        print(f"  {metric:<28}{entry['value']:>14.4f} {entry['unit']}{note}")
    for metric, entry in record.get("per_layer", {}).items():
        value = "null" if entry["value"] is None else f"{entry['value']:.4f}"
        print(f"    {metric:<40}{value:>14} {entry['unit']}")
    for failure in record["failures"]:
        print(f"  CHECK FAILED: {failure}")


def load_results(paths: list[str]) -> list[dict]:
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if not result["header"]["comparable"]:
            raise SystemExit(f"{path}: a --quick result is not comparable")
        results.append(result)
    return results


def median_values(results: list[dict]) -> dict[tuple[str, str], float]:
    """(workload, metric) -> median over *results* of the end-to-end value."""
    samples: dict[tuple[str, str], list[float]] = {}
    for result in results:
        for workload, record in result["workloads"].items():
            for metric, entry in record["end_to_end"].items():
                samples.setdefault((workload, metric), []).append(entry["value"])
    return {key: statistics.median(values) for key, values in samples.items()}


def compare(side_a: list[dict], side_b: list[dict], spec: dict[str, dict]) -> tuple[list[dict], bool]:
    """Per workload × end-to-end metric: both medians, their difference
    and the bound; ``agree`` is False when any pair differs by more than
    its bound, in either direction."""
    a, b = median_values(side_a), median_values(side_b)
    rows = []
    agree = True
    for key in sorted(a.keys() & b.keys()):
        workload, metric = key
        bound = spec[metric]
        if bound["absolute"] or a[key] == 0:
            diff = b[key] - a[key]
        else:
            diff = (b[key] - a[key]) / a[key]
        within = abs(diff) <= bound["bound"]
        worse = (diff > 0) == (bound["better"] == "lower")
        rows.append(
            {
                "workload": workload,
                "metric": metric,
                "unit": bound["unit"],
                "a": a[key],
                "b": b[key],
                "diff": diff,
                "absolute": bound["absolute"],
                "bound": bound["bound"],
                "verdict": "ok" if within else ("worse" if worse else "better"),
            }
        )
        agree = agree and within
    return rows, agree


def print_comparison(rows: list[dict]) -> None:
    print(f"{'workload':<14}{'metric':<24}{'A':>14}{'B':>14}{'diff':>10}{'bound':>9}  verdict")
    for row in rows:
        diff = f"{row['diff']:+.4f}" if row["absolute"] else f"{row['diff']:+.2%}"
        bound = f"{row['bound']:.4f}" if row["absolute"] else f"{row['bound']:.0%}"
        print(
            f"{row['workload']:<14}{row['metric']:<24}{row['a']:>14.4f}{row['b']:>14.4f}"
            f"{diff:>10}{bound:>9}  {row['verdict']} [{row['unit']}]"
        )
