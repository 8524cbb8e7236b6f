"""Output checks computed in the child from the final pattern DB.

Only invariants and cross-workload equalities — no golden hashes or
counts, because later PRs cannot edit this directory.  The scanner and
parser used here are the reference implementations, so the check is
independent of the compiled path the workloads run on.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


def fingerprint(rows) -> str:
    """sha256 over the sorted ``(id, service, pattern_text, match_count,
    examples)`` of every row of ``db.rows()``; dates excluded."""
    content = sorted(
        (row.id, row.service, row.pattern_text, row.match_count, list(row.examples))
        for row in rows
    )
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()


def total_matches(rows) -> int:
    """Σ match_count — equals the records mined when nothing is lost."""
    return sum(row.match_count for row in rows)


def example_failures(rows) -> tuple[int, int]:
    """``(checked, failed)``: every stored example must re-match its own
    pattern through ``Parser.match``."""
    from repro.parser import Parser
    from repro.scanner import Scanner

    scanner = Scanner()
    checked = failed = 0
    for row in rows:
        probe = Parser([row.to_pattern()])
        for example in row.examples:
            checked += 1
            if probe.match(scanner.scan(example, service=row.service)) is None:
                failed += 1
    return checked, failed


def db_checks(db) -> dict:
    rows = db.rows()
    checked, failed = example_failures(rows)
    return {
        "fingerprint": fingerprint(rows),
        "total_matches": total_matches(rows),
        "rows": len(rows),
        "examples_checked": checked,
        "examples_failed": failed,
    }


def grouping_accuracy(db, labelled: list[dict]) -> float:
    """Mean over services of the LogHub grouping accuracy of the labelled
    sample, each line's cluster being the pattern it parses to in *db*."""
    from repro.loghub import grouping_accuracy as accuracy
    from repro.parser import Parser
    from repro.scanner import Scanner

    scanner = Scanner()
    by_service: dict[str, list[dict]] = {}
    for item in labelled:
        by_service.setdefault(item["service"], []).append(item)
    scores = []
    for service, items in by_service.items():
        parser = Parser([row.to_pattern() for row in db.rows(service=service)])
        predicted = []
        for index, item in enumerate(items):
            hit = parser.match(scanner.scan(item["message"], service=service))
            predicted.append(hit.pattern.id if hit else f"<unmatched-{index}>")
        scores.append(accuracy([item["event"] for item in items], predicted))
    return sum(scores) / len(scores)


def peak_rss_mb() -> float:
    """Σ ``VmHWM`` over this process and its live children, in MiB
    (fallback: ``ru_maxrss`` of self + reaped children)."""
    import multiprocessing

    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    total_kb = 0
    try:
        for pid in pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    except (OSError, ValueError, IndexError):
        import resource

        total_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return total_kb / 1024.0
