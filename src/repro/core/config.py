"""Sequence-RTG configuration.

Batch size is the knob the paper discusses at length: it must balance
"having enough data to perform the comparison steps of the analysis and
preventing a memory overload caused by too many messages" (§III), and
the evaluation settles on 100,000 messages for production at CC-IN2P3
(§IV, Fig. 5 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.analyzer.analyzer import AnalyzerConfig
from repro.parser.parser import ParserConfig
from repro.scanner.scanner import ScannerConfig

__all__ = ["RTGConfig", "StreamingConfig"]


@dataclass(slots=True)
class StreamingConfig:
    """Knobs of the stream driver (:mod:`repro.core.streaming`).

    The driver trades the paper's batch barrier for bounded per-message
    latency: records are analysed in micro-batches against the known
    pattern set immediately, while unmatched messages accumulate in the
    engine's evolving analysis state and are mined on *flush*.  The
    flush policy below decides how much evidence the miner waits for —
    a batch call is the degenerate case "flush after every call".
    """

    #: records per micro-batch (1 = strictly per-message processing);
    #: the micro-batch is the unit of scan/parse work and of the
    #: per-message latency histogram
    micro_batch_size: int = 256
    #: seconds a partial micro-batch may wait for more records before
    #: :meth:`~repro.core.streaming.StreamDriver.poll` processes it
    micro_batch_timeout_s: float = 0.5
    #: mine the pending partitions once this many distinct unmatched
    #: messages have accumulated across all services — the memory bound
    #: of the evolving analysis state
    flush_pending: int = 2048
    #: mine at least this often (wall-clock seconds between flushes)
    flush_interval_s: float = 30.0
    #: evict patterns whose ``last_matched`` date is older than this many
    #: days at flush time (0 = no TTL eviction)
    pattern_ttl_days: float = 0.0
    #: drift maintenance: retire stored patterns subsumed by a newly
    #: discovered, more general pattern (their counts/examples fold into
    #: the general one)
    drift_merge: bool = True
    #: drift maintenance: fold a pattern variable observed with exactly
    #: one distinct value over many matches back to a constant
    drift_split: bool = True
    #: matches a variable must accumulate (with a single distinct value)
    #: before a drift split folds it
    split_min_matches: int = 128

    def __post_init__(self) -> None:
        if self.micro_batch_size < 1:
            raise ValueError(
                f"micro_batch_size must be >= 1, got {self.micro_batch_size}"
            )
        if self.micro_batch_timeout_s <= 0:
            raise ValueError(
                "micro_batch_timeout_s must be positive, got "
                f"{self.micro_batch_timeout_s}"
            )
        if self.flush_pending < 1:
            raise ValueError(
                f"flush_pending must be >= 1, got {self.flush_pending}"
            )
        if self.flush_interval_s <= 0:
            raise ValueError(
                f"flush_interval_s must be positive, got {self.flush_interval_s}"
            )
        if self.pattern_ttl_days < 0:
            raise ValueError(
                f"pattern_ttl_days must be >= 0, got {self.pattern_ttl_days}"
            )
        if self.split_min_matches < 1:
            raise ValueError(
                f"split_min_matches must be >= 1, got {self.split_min_matches}"
            )


@dataclass(slots=True)
class RTGConfig:
    """All Sequence-RTG knobs in one place.

    Settings of the pattern database (example cap, durability) belong
    to :class:`~repro.core.patterndb.PatternDB`, the worker count to the
    pool, the ingest prefetch depth to the ingester.
    """

    #: Not a setting: the scan stage's batch dedup
    #: (:class:`~repro.core.engine.ScanStage`) runs in every configuration.
    enable_fastpath: ClassVar[bool] = True
    #: Not a setting: every miner runs the one evolving engine.  The call
    #: is the mode — ``analyze_by_service``/``process_stream`` flush after
    #: every batch, ``stream_driver()`` flushes per :class:`StreamingConfig`.
    mode: ClassVar[str] = "stream"
    #: Not a setting: runtime metrics (:mod:`repro.obs`) — per-stage
    #: latency histograms, match/dedup counters and pattern-DB gauges
    #: — are published through the miner's
    #: :class:`~repro.obs.metrics.MetricsRegistry` on every execution path.
    enable_metrics: ClassVar[bool] = True

    #: messages accumulated before an analysis run is triggered
    batch_size: int = 100_000
    #: patterns supported by fewer messages than this are considered
    #: useless and not saved (§IV "Limitations", save threshold)
    save_threshold: int = 1
    streaming: StreamingConfig = field(default_factory=StreamingConfig)
    scanner: ScannerConfig = field(default_factory=ScannerConfig)
    parser: ParserConfig = field(default_factory=ParserConfig)
    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.save_threshold < 1:
            raise ValueError(
                f"save_threshold must be >= 1, got {self.save_threshold}"
            )
