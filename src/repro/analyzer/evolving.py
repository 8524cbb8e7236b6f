"""Incremental mining core: the evolving analysis state of stream mode.

Batch mode builds one analysis trie per (service, token-count)
partition, mines it and throws it away — the "partition → build trie →
merge → emit" lifecycle of ``AnalyzeStage``.  Stream mode cannot afford
that barrier: messages arrive one micro-batch at a time, and the miner
has to accumulate evidence *across* micro-batches before it is worth
emitting a pattern (USTEP's evolving search tree, arXiv:2304.12331).

:class:`EvolvingAnalyzer` is that accumulation state, split out of the
stage.  It holds one *pending partition* per (service, token count):
the distinct unmatched messages in first-occurrence order with their
accumulated multiplicities — exactly the weighted form the analysis
trie's insertion contract is defined over ("inserting a message once
with ``n=k`` produces the same trie as inserting it ``k`` times",
:meth:`repro.analyzer.trie.AnalysisTrie.insert`).  ``absorb`` is the
per-message incremental step: an O(1) dedup-and-count update.  ``flush``
replays a partition through the analyser
(:func:`repro.analyzer.build_analyzer`), so the evolving state mines
byte-identically to a batch that had seen the same messages.

Because absorption is associative (the pending partition after any
sequence of ``absorb`` calls equals the partition one big batch would
have produced), batch mode is literally the special case "absorb then
flush immediately": ``AnalyzeStage`` runs exactly that, which is what
keeps the pre-existing serial/cold/warm dump-equivalence suites
bit-identical across the refactor.

The state is bounded: ``max_partition_pending`` caps one partition's
distinct messages, and :attr:`pending_messages` lets the stream driver
apply a global bound — the evolving trie never grows past what the
flush policy allows.
"""

from __future__ import annotations

from repro.analyzer import build_analyzer
from repro.analyzer.analyzer import AnalyzerConfig
from repro.analyzer.pattern import Pattern
from repro.scanner.scanner import ScannedMessage

__all__ = ["EvolvingAnalyzer"]


class _PendingPartition:
    """Distinct messages of one (service, token count), with counts."""

    __slots__ = ("index", "messages", "counts")

    def __init__(self) -> None:
        #: message original -> position in ``messages``
        self.index: dict[str, int] = {}
        #: distinct scanned messages in first-occurrence order
        self.messages: list[ScannedMessage] = []
        #: accumulated multiplicities, parallel to ``messages``
        self.counts: list[int] = []


class EvolvingAnalyzer:
    """Per-message weighted absorption with deferred, bounded mining."""

    def __init__(
        self,
        config: AnalyzerConfig | None = None,
        max_partition_pending: int = 0,
    ) -> None:
        self.config = config or AnalyzerConfig()
        #: one analyser instance serves every flush, exactly like the
        #: batch stage: its node arena is reset and reused across
        #: partitions
        self._analyzer = build_analyzer(self.config)
        self._pending: dict[str, dict[int, _PendingPartition]] = {}
        self._n_pending = 0
        self._max_partition = 0
        #: distinct-message cap per partition (0 = unbounded); the
        #: driver flushes when :attr:`over_partition_bound` reports it
        self.max_partition_pending = max_partition_pending

    # -- telemetry -------------------------------------------------------
    @property
    def pending_messages(self) -> int:
        """Distinct messages pending across all partitions."""
        return self._n_pending

    @property
    def max_partition(self) -> int:
        """Largest single partition's distinct-message count."""
        return self._max_partition

    @property
    def over_partition_bound(self) -> bool:
        """True when some partition reached ``max_partition_pending``."""
        return (
            self.max_partition_pending > 0
            and self._max_partition >= self.max_partition_pending
        )

    def services(self) -> list[str]:
        """Services with pending partitions, in first-absorption order."""
        return list(self._pending)

    def pending_for(self, service: str) -> int:
        """Distinct messages pending for one service."""
        partitions = self._pending.get(service)
        if not partitions:
            return 0
        return sum(len(p.messages) for p in partitions.values())

    # -- absorption ------------------------------------------------------
    def absorb(
        self,
        service: str,
        length: int,
        messages: list[ScannedMessage],
        counts: list[int] | None = None,
    ) -> None:
        """Fold *messages* into the (service, *length*) pending partition.

        *counts* carries dedup multiplicities parallel to *messages*
        (``None`` means each occurrence counts once).  Duplicates of an
        already-pending message only bump its count — the per-message
        incremental insert the weighted trie contract makes exact.
        """
        partition = self._pending.setdefault(service, {}).setdefault(
            length, _PendingPartition()
        )
        index = partition.index
        for i, msg in enumerate(messages):
            n = 1 if counts is None else counts[i]
            at = index.get(msg.original)
            if at is not None:
                partition.counts[at] += n
                continue
            index[msg.original] = len(partition.messages)
            partition.messages.append(msg)
            partition.counts.append(n)
            self._n_pending += 1
        if len(partition.messages) > self._max_partition:
            self._max_partition = len(partition.messages)

    # -- mining ----------------------------------------------------------
    def flush_partition(
        self, service: str, length: int
    ) -> tuple[list[Pattern], int]:
        """Mine and clear one pending partition.

        Returns the mined patterns and the partition's analysis-trie
        node count (the peak-footprint telemetry batch mode reports per
        partition).  The patterns do not carry a service — the caller
        stamps them, exactly as the batch stage does.
        """
        partitions = self._pending.get(service)
        if not partitions or length not in partitions:
            return [], 0
        partition = partitions.pop(length)
        if not partitions:
            del self._pending[service]
        self._n_pending -= len(partition.messages)
        self._recompute_max()
        patterns = self._analyzer.analyze(
            partition.messages, counts=partition.counts
        )
        return patterns, self._analyzer.last_trie_nodes

    def flush_service(self, service: str):
        """Mine every pending partition of *service* in token-count order.

        Yields ``(patterns, trie_nodes)`` per partition — the same
        sorted-by-length order the batch stage walks, so flush output
        (and its telemetry) is ordered identically to a batch that had
        accumulated the same messages.
        """
        partitions = self._pending.get(service)
        if not partitions:
            return
        for length in sorted(partitions):
            yield self.flush_partition(service, length)

    def _recompute_max(self) -> None:
        self._max_partition = max(
            (
                len(p.messages)
                for partitions in self._pending.values()
                for p in partitions.values()
            ),
            default=0,
        )
