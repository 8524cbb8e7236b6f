#!/usr/bin/env python3
"""Quickstart: mine patterns from a handful of log messages.

Demonstrates the three core stages of Sequence-RTG on a mixed stream:
scan + analyse (pattern discovery), persistence with reproducible SHA1
pattern ids, and parsing new messages against the discovered patterns
with field extraction.

Run:  python examples/quickstart.py
"""

from repro import LogRecord, SequenceRTG

MESSAGES = [
    # an sshd-like service — enough distinct users for the analyser to
    # recognise the position as a variable (a column needs more distinct
    # values than the merge threshold, 4; see repro.analyzer.analyzer.MERGE_THRESHOLD)
    ("sshd", "Accepted password for alice from 192.168.1.5 port 50321 ssh2"),
    ("sshd", "Accepted password for bob from 10.0.7.13 port 42100 ssh2"),
    ("sshd", "Accepted password for carol from 172.16.0.9 port 39980 ssh2"),
    ("sshd", "Accepted password for dave from 172.16.3.1 port 44210 ssh2"),
    ("sshd", "Accepted password for erin from 10.8.0.40 port 51011 ssh2"),
    ("sshd", "Accepted password for frank from 192.168.77.2 port 47017 ssh2"),
    ("sshd", "Failed password for invalid user guest from 52.80.34.196 port 59404 ssh2"),
    ("sshd", "Failed password for invalid user admin from 52.80.34.197 port 59405 ssh2"),
    # an HDFS-like service (note: same batch, different service)
    ("hdfs", "PacketResponder 1 for block blk_38865049064139660 terminating"),
    ("hdfs", "PacketResponder 0 for block blk_-6952295868487656571 terminating"),
    ("hdfs", "PacketResponder 2 for block blk_8229193803249955061 terminating"),
]


def main() -> None:
    rtg = SequenceRTG()  # in-memory pattern database

    # --- discovery: the AnalyzeByService workflow (paper Fig. 2) -------
    result = rtg.analyze_by_service(
        [LogRecord(service, message) for service, message in MESSAGES]
    )
    print(f"batch: {result.n_records} records from {result.n_services} services")
    print(f"discovered {result.n_new_patterns} patterns:\n")
    for pattern in result.new_patterns:
        print(f"  [{pattern.service}] {pattern.text}")
        print(f"      id={pattern.id}  complexity={pattern.complexity:.2f}"
              f"  support={pattern.support}")

    # --- parsing: match a new message against the known patterns -------
    print("\nparsing a new message:")
    new_message = "Accepted password for mallory from 203.0.113.77 port 61001 ssh2"
    scanned = rtg.scanner.scan(new_message, service="sshd")
    hit = rtg.parser_for("sshd").match(scanned)
    assert hit is not None
    print(f"  message : {new_message}")
    print(f"  pattern : {hit.pattern.text}")
    print(f"  fields  : {hit.fields}")

    # --- persistence: the same pattern keeps the same id forever -------
    print("\npattern database contents:")
    for row in rtg.db.rows():
        print(f"  {row.id[:12]}…  [{row.service}] count={row.match_count}"
              f"  examples={len(row.examples)}")


if __name__ == "__main__":
    main()
