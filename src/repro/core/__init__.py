"""Sequence-RTG core — the paper's primary contribution.

Ties the scanner, analyser and parser substrates into the
production-ready tool described in §III of the paper:

* :class:`~repro.core.ingest.StreamIngester` — JSON-lines stream input
  with configurable batch size;
* :class:`~repro.core.patterndb.PatternDB` — persistent SQL pattern
  store with reproducible SHA1 ids, per-pattern statistics and up to
  three example messages;
* :class:`~repro.core.engine.MiningEngine` — the ``AnalyzeByService``
  workflow (partition by service → scan → parse known → partition by
  token count → analyse → persist) as explicit stage objects with
  pluggable :class:`~repro.core.engine.StageObserver` instrumentation;
* :class:`~repro.core.pipeline.SequenceRTG` — the serial front end over
  the engine, plus the seminal ``Analyze`` mode for comparison;
* :class:`~repro.core.parallel.PersistentParallelSequenceRTG` — the
  scale-out front end: one serial miner per shard file of the database;
* :mod:`repro.core.export` — syslog-ng patterndb XML, YAML and Logstash
  Grok exporters.
"""

from repro.core.config import RTGConfig
from repro.core.engine import (
    BatchResult,
    MiningEngine,
    PersistStage,
    ServiceBatchContext,
    StageObserver,
)
from repro.core.ingest import StreamIngester, parse_record
from repro.core.parallel import PersistentParallelSequenceRTG
from repro.core.patterndb import PatternDB, PatternRow, route_service
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord

__all__ = [
    "RTGConfig",
    "StreamIngester",
    "parse_record",
    "PatternDB",
    "PatternRow",
    "BatchResult",
    "MiningEngine",
    "PersistStage",
    "ServiceBatchContext",
    "StageObserver",
    "SequenceRTG",
    "PersistentParallelSequenceRTG",
    "route_service",
    "LogRecord",
]
