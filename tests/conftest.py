"""Shared fixtures for the Sequence-RTG test suite."""

from __future__ import annotations

import functools
import random
import socketserver

import pytest

from repro.analyzer import evolving
from repro.analyzer.analyzer import Analyzer
from repro.core import pipeline
from repro.core.fastpath import FastPath
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.parser.parser import Parser
from repro.scanner.scanner import Scanner, ScannerConfig
from repro.workflow.stream import ProductionStream, StreamConfig


class MessageGenerator:
    """Seeded pseudo-random log message generator (stdlib only).

    Drives the property-based tests: :meth:`message` produces arbitrary
    single-line messages mixing every scan-time token shape (words,
    integers, floats, IPv4/IPv6 addresses, hex ids, times, key=value
    pairs, paths, bracketed fields), and :meth:`records` produces
    template-derived traffic — fixed literal skeletons with variable
    slots — so mining over it reliably generalises patterns.

    Messages are emitted with single-space separation and no leading or
    trailing whitespace, the subset of inputs the scanner's
    ``is_space_before`` reconstruction guarantee covers byte-for-byte
    (runs of whitespace collapse by design).
    """

    WORDS = (
        "connection", "accepted", "failed", "session", "opened", "closed",
        "user", "root", "daemon", "timeout", "retry", "error", "warning",
        "disk", "memory", "packet", "request", "reply", "started",
        "stopped", "for", "from", "on", "via", "at",
    )

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    # -- arbitrary token soup (scanner round-trip) ----------------------
    def _word(self) -> str:
        return self.rng.choice(self.WORDS)

    def _token(self) -> str:
        rng = self.rng
        kind = rng.randrange(10)
        if kind == 0:
            return str(rng.randrange(0, 10**6))
        if kind == 1:
            return f"{rng.uniform(0, 1000):.{rng.randrange(1, 5)}f}"
        if kind == 2:
            return ".".join(str(rng.randrange(256)) for _ in range(4))
        if kind == 3:
            return f"{rng.randrange(16**8):08x}"
        if kind == 4:
            return (
                f"{rng.randrange(24):02d}:{rng.randrange(60):02d}"
                f":{rng.randrange(60):02d}"
            )
        if kind == 5:
            return f"{self._word()}={rng.randrange(10**4)}"
        if kind == 6:
            return "/" + "/".join(self._word() for _ in range(rng.randrange(1, 4)))
        if kind == 7:
            return f"[{self._word()}]"
        if kind == 8:
            return self._word() + rng.choice((":", ",", ";", "."))
        return self._word()

    def message(self, n_tokens: int | None = None) -> str:
        n = n_tokens or self.rng.randrange(1, 12)
        return " ".join(self._token() for _ in range(n))

    def messages(self, n: int) -> list[str]:
        return [self.message() for _ in range(n)]

    # -- template-derived traffic (mining properties) -------------------
    def _template(self) -> list[str]:
        """A literal skeleton with ``{int}``/``{ipv4}``/``{word}`` slots."""
        rng = self.rng
        parts: list[str] = []
        for _ in range(rng.randrange(4, 9)):
            parts.append(
                rng.choice((self._word(), "{int}", "{ipv4}", "{word}"))
            )
        return parts

    def _instantiate(self, template: list[str]) -> str:
        rng = self.rng
        out: list[str] = []
        for part in template:
            if part == "{int}":
                out.append(str(rng.randrange(10**5)))
            elif part == "{ipv4}":
                out.append(".".join(str(rng.randrange(256)) for _ in range(4)))
            elif part == "{word}":
                out.append(self._word() + str(rng.randrange(100)))
            else:
                out.append(part)
        return " ".join(out)

    def records(
        self, n: int, n_services: int = 3, templates_per_service: int = 3
    ) -> list[LogRecord]:
        """*n* records of repeating templated events across services."""
        catalogue = {
            f"svc{s}": [self._template() for _ in range(templates_per_service)]
            for s in range(n_services)
        }
        out: list[LogRecord] = []
        for _ in range(n):
            service = f"svc{self.rng.randrange(n_services)}"
            template = self.rng.choice(catalogue[service])
            out.append(LogRecord(service, self._instantiate(template)))
        return out


@pytest.fixture()
def message_generator() -> MessageGenerator:
    """Deterministic generator for property-based tests."""
    return MessageGenerator(seed=0)


@pytest.fixture()
def scanner() -> Scanner:
    """Default-configured scanner (published behaviour)."""
    return Scanner(ScannerConfig())


@pytest.fixture()
def analyzer() -> Analyzer:
    return Analyzer()


@pytest.fixture()
def rtg() -> SequenceRTG:
    """Pipeline over a fresh in-memory database."""
    return SequenceRTG(db=PatternDB())


@pytest.fixture(scope="session", autouse=True)
def prompt_http_shutdown():
    """``MetricsServer.close`` waits for ``serve_forever`` to notice the
    shutdown request, by default up to its 0.5 s poll interval; a short
    interval keeps the many start/scrape/close tests quick."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            socketserver.BaseServer,
            "serve_forever",
            functools.partialmethod(
                socketserver.BaseServer.serve_forever, poll_interval=0.02
            ),
        )
        yield


@pytest.fixture(scope="session")
def steady_corpus() -> dict[str, tuple[list, list[str]]]:
    """The e2e steady workloads' 40-service shape at a lower duplicate
    fraction, mined once per session: each service's stored pattern set
    and its messages in stream order.  The compiled parser and analyser
    differential suites share it read-only."""
    records = list(
        ProductionStream(
            StreamConfig(n_services=40, seed=41, duplicate_fraction=0.25)
        ).records(6000)
    )
    rtg = SequenceRTG(db=PatternDB())
    rtg.analyze_by_service(records)
    by_service: dict[str, list[str]] = {}
    for record in records:
        by_service.setdefault(record.service, []).append(record.message)
    return {
        service: (rtg.db.load_service(service), messages)
        for service, messages in by_service.items()
    }


@pytest.fixture()
def reference_stages(monkeypatch) -> None:
    """Every ``SequenceRTG`` built in this process while the test runs
    mines with the reference oracles: the three ``build_*`` names are
    patched, in the modules that call them, to construct ``Scanner``,
    ``Parser`` and ``Analyzer``.  (Spawned pool workers are untouched.)"""
    monkeypatch.setattr(pipeline, "build_scanner", Scanner)
    monkeypatch.setattr(
        pipeline, "build_parser", lambda patterns, config: Parser(patterns)
    )
    monkeypatch.setattr(evolving, "build_analyzer", Analyzer)


@pytest.fixture()
def per_occurrence_lane(monkeypatch) -> None:
    """The fast lane's oracle: while the test runs, every ``SequenceRTG``
    in this process scans record by record — every count 1, no cache
    consulted.  (Spawned pool workers are untouched.)"""

    def scan_group(self, scanner, service, group):
        scanned = scanner.scan_many([r.message for r in group], service=service)
        return scanned, [1] * len(scanned), [False] * len(scanned)

    monkeypatch.setattr(FastPath, "scan_group", scan_group)


@pytest.fixture()
def ssh_records() -> list[LogRecord]:
    """Enough distinct users/hosts for the variable positions to merge."""
    return [
        LogRecord(
            "sshd",
            f"Accepted password for user{i} from 10.0.{i}.{i + 1} port {40000 + i} ssh2",
        )
        for i in range(8)
    ]


@pytest.fixture()
def hdfs_records() -> list[LogRecord]:
    return [
        LogRecord(
            "hdfs",
            f"PacketResponder {i % 3} for block blk_{7000000 + i} terminating",
        )
        for i in range(6)
    ]
