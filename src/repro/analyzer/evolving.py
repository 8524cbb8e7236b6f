"""Incremental mining core: the evolving analysis state of stream mode.

Batch mode builds one analysis trie per (service, token-count)
partition, mines it and throws it away — the "partition → build trie →
merge → emit" lifecycle of ``AnalyzeStage``.  Stream mode cannot afford
that barrier: messages arrive one micro-batch at a time, and the miner
has to accumulate evidence *across* micro-batches before it is worth
emitting a pattern (USTEP's evolving search tree, arXiv:2304.12331).

:class:`EvolvingAnalyzer` is that accumulation, split out of the stage.
The evidence itself lives in each service's
:class:`~repro.core.state.ServiceState`: one *pending partition* per
token count, the distinct unmatched messages in first-occurrence order
with their accumulated multiplicities — exactly the weighted form the
analysis trie's insertion contract is defined over ("inserting a
message once with ``n=k`` produces the same trie as inserting it ``k``
times", :meth:`repro.analyzer.trie.AnalysisTrie.insert`).  ``absorb`` is
the per-message incremental step: an O(1) dedup-and-count update.
``flush`` replays a state's partitions through the analyser
(:func:`repro.analyzer.build_analyzer`), so the evolving state mines
byte-identically to a batch that had seen the same messages.

Because absorption is associative (the pending partition after any
sequence of ``absorb`` calls equals the partition one big batch would
have produced), batch mode is literally the special case "absorb then
flush immediately": ``AnalyzeStage`` runs exactly that, which is what
keeps the serial/pool dump-equivalence suites bit-identical.

The state is bounded: :attr:`pending_messages` lets the stream driver
apply a global bound — the evolving trie never grows past what the
flush policy allows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analyzer import build_analyzer
from repro.analyzer.analyzer import AnalyzerConfig
from repro.analyzer.pattern import Pattern
from repro.scanner.scanner import ScannedMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.state import ServiceState

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

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config or AnalyzerConfig()
        #: one analyser instance serves every flush, exactly like the
        #: batch stage: its node arena is reset and reused across
        #: partitions
        self._analyzer = build_analyzer(self.config)
        self._n_pending = 0

    # -- telemetry -------------------------------------------------------
    @property
    def pending_messages(self) -> int:
        """Distinct messages pending across all partitions."""
        return self._n_pending

    # -- absorption ------------------------------------------------------
    def absorb(
        self,
        state: "ServiceState",
        length: int,
        messages: list[ScannedMessage],
        counts: list[int] | None = None,
    ) -> None:
        """Fold *messages* into *state*'s pending partition of *length*.

        *counts* carries dedup multiplicities parallel to *messages*
        (``None`` means each occurrence counts once).  Duplicates of an
        already-pending message only bump its count — the per-message
        incremental insert the weighted trie contract makes exact.
        """
        partition = state.pending.get(length)
        if partition is None:
            partition = state.pending[length] = _PendingPartition()
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

    # -- rollback --------------------------------------------------------
    def checkpoint(self, state: "ServiceState") -> list[tuple]:
        """What :meth:`restore` needs to put *state*'s pending partitions
        back as they are now.  Partitions only grow until a flush pops
        them, so their sizes and a copy of their counts suffice."""
        return [
            (length, partition, len(partition.messages), list(partition.counts))
            for length, partition in state.pending.items()
        ]

    def restore(self, state: "ServiceState", checkpoint: list[tuple]) -> None:
        """Undo every absorb and flush on *state* since *checkpoint*."""
        pending = state.pending
        for partition in pending.values():
            self._n_pending -= len(partition.messages)
        pending.clear()
        for length, partition, size, counts in checkpoint:
            for msg in partition.messages[size:]:
                del partition.index[msg.original]
            del partition.messages[size:]
            partition.counts = counts
            pending[length] = partition
            self._n_pending += size

    # -- mining ----------------------------------------------------------
    def flush(self, state: "ServiceState"):
        """Mine and clear *state*'s pending partitions in token-count order.

        Yields ``(patterns, trie_nodes)`` per partition — the order the
        batch stage walks, so flush output (and its telemetry) is ordered
        identically to a batch that had accumulated the same messages.
        The patterns do not carry a service; the caller stamps them.
        """
        pending = state.pending
        for length in sorted(pending):
            partition = pending.pop(length)
            self._n_pending -= len(partition.messages)
            patterns: list[Pattern] = self._analyzer.analyze(
                partition.messages, counts=partition.counts
            )
            yield patterns, self._analyzer.last_trie_nodes
