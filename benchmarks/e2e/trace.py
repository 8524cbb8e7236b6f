"""In-memory span tracing from outside the program.

The traced pass swaps pass-through proxies around public calls into
each layer (``Tracer.wrap``) and records one span per call: name,
start, end, the span that caused it and the batch it belongs to.  Spans
live in per-thread lists (the ingest reader, the serve event loop and
the dispatcher each get their own) and are written out once, when the
child ends.  A layer's *self time* is its span's duration minus the
part its child spans cover.

A proxy whose target no longer exists is recorded in ``Tracer.missing``
and its metrics read ``None``; it never fails the run, and no
end-to-end metric depends on any proxy.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

#: engine stage name -> layer (module) name
STAGE_LAYERS = {
    "scan": "scanner",
    "parse": "parser",
    "partition_length": "partition",
    "analyze": "analyzer",
    "persist": "patterndb",
}
#: root span of the measured section
ROOT = "run"


class _ThreadSpans:
    __slots__ = ("name", "records", "stack")

    def __init__(self, name: str) -> None:
        self.name = name
        #: (name, start, end, parent index in this list or -1, batch id);
        #: None while the span is still open
        self.records: list[tuple | None] = []
        self.stack: list[int] = []


class _Span:
    """One open span; a class, not a generator: a span costs under 2 µs.

    Its slot in the thread's list is reserved on opening (children need
    the index as their parent) and filled on closing with a tuple of
    plain values, which the garbage collector stops tracking — a hundred
    thousand tracked records would tax every full collection of the
    program under test.
    """

    __slots__ = ("mine", "index", "name", "parent", "batch", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        mine = self.mine = tracer._mine()
        stack = mine.stack
        self.parent = stack[-1] if stack else -1
        self.index = len(mine.records)
        self.name = name
        self.batch = tracer.batch
        mine.records.append(None)
        stack.append(self.index)

    def __enter__(self) -> None:
        self.start = perf_counter()

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        mine = self.mine
        mine.records[self.index] = (self.name, self.start, end, self.parent, self.batch)
        mine.stack.pop()


class Tracer:
    """Span recorder plus the proxies that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        #: batch id stamped on every span opened from now on
        self.batch = 0
        #: span names whose proxy was installed / could not be
        self.installed: set[str] = set()
        self.missing: set[str] = set()
        #: name -> seconds of the proxies that only keep a running total
        self.totals: dict[str, float] = {}

    # -- recording ---------------------------------------------------------
    def _mine(self) -> _ThreadSpans:
        mine = getattr(self._local, "spans", None)
        if mine is None:
            mine = _ThreadSpans(threading.current_thread().name)
            self._local.spans = mine
            with self._lock:
                self._threads.append(mine)
        return mine

    def span(self, name: str) -> "_Span":
        """Context manager recording one span on the calling thread."""
        return _Span(self, name)

    def traced(self, name: str, call):
        """*call* wrapped so every invocation records a span."""

        def proxy(*args, **kwargs):
            with _Span(self, name):
                return call(*args, **kwargs)

        return proxy

    def totalled(self, name: str, call):
        """*call* wrapped to add its duration to ``totals[name]`` — for a
        call made once per record from a single thread and outside any
        span (``router.offer``), where a span each would cost more than
        the call."""
        totals = self.totals
        totals[name] = 0.0

        def proxy(*args, **kwargs):
            began = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                totals[name] += perf_counter() - began

        return proxy

    def wrap(
        self, owner, attr: str, name: str, context: bool = False, total_only: bool = False
    ) -> bool:
        """Replace ``owner.attr`` by a traced pass-through on the instance.

        *context* wraps a method that returns a context manager (the
        span covers the whole ``with`` block); *total_only* keeps a
        running total instead of spans (see :meth:`totalled`).  Returns
        False, and notes *name* as missing, when the target does not
        exist or the instance refuses the attribute.
        """
        target = getattr(owner, attr, None)
        if not callable(target):
            self.missing.add(name)
            return False
        if context:

            @contextmanager
            def proxy(*args, **kwargs):
                with self.span(name), target(*args, **kwargs) as value:
                    yield value

        elif total_only:
            proxy = self.totalled(name, target)
        else:
            proxy = self.traced(name, target)
        try:
            setattr(owner, attr, proxy)
        except AttributeError:
            self.missing.add(name)
            return False
        self.installed.add(name)
        return True

    def wrap_stages(self, engine) -> None:
        """Swap :class:`TracedStage` proxies around every engine stage,
        including the two the deferred (stream) flush calls directly."""
        stages = getattr(engine, "stages", None)
        if not isinstance(stages, list):
            self.missing.update(STAGE_LAYERS.values())
            return
        proxies = {id(stage): TracedStage(stage, self) for stage in stages}
        engine.stages = [proxies[id(stage)] for stage in stages]
        for attr in ("analyze_stage", "persist_stage"):
            proxy = proxies.get(id(getattr(engine, attr, None)))
            if proxy is not None:
                setattr(engine, attr, proxy)
        present = {proxy.layer for proxy in proxies.values()}
        self.installed.update(present)
        self.missing.update(set(STAGE_LAYERS.values()) - present)

    # -- reading -----------------------------------------------------------
    def spans(self) -> list[dict]:
        """Every recorded span with run-wide ids (``parent`` None = root)."""
        out: list[dict] = []
        with self._lock:
            threads = list(self._threads)
        base = 0
        for thread in threads:
            for index, record in enumerate(thread.records):
                if record is None:  # never closed: its children become roots
                    continue
                name, start, end, parent, batch = record
                out.append(
                    {
                        "id": base + index,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": base + parent if parent >= 0 else None,
                        "batch": batch,
                        "thread": thread.name,
                    }
                )
            base += len(thread.records)
        return out

    def seconds(self, name: str, by_name: dict[str, float]):
        """Σ self time of spans called *name* (or its running total);
        None if never installed."""
        if name not in self.installed:
            return None
        return by_name.get(name, 0.0) + self.totals.get(name, 0.0)


class TracedStage:
    """Pass-through around one engine stage's public ``run(ctx)`` (and the
    analyze stage's ``flush_into``); everything else delegates."""

    def __init__(self, stage, tracer: Tracer) -> None:
        self._stage = stage
        self.name = stage.name
        self.layer = STAGE_LAYERS.get(stage.name, stage.name)
        self.run = tracer.traced(self.layer, stage.run)
        if hasattr(stage, "flush_into"):
            self.flush_into = tracer.traced(self.layer, stage.flush_into)

    def __getattr__(self, attr):
        return getattr(self._stage, attr)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once; a span whose parent is not in *spans* is
    a root.
    """
    by_id = {span["id"]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def self_seconds_by_name(spans: list[dict], own: dict[int, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for span in spans:
        out[span["name"]] = out.get(span["name"], 0.0) + own[span["id"]]
    return out


def unattributed_frac(spans: list[dict], own: dict[int, float], wall_s: float):
    """1 − Σ layer self time ÷ wall, on the thread that runs the mining
    calls (the steps that block the result); the root span's own time is
    what no layer accounts for.  *own* is ``self_times(spans)``."""
    thread = next((s["thread"] for s in spans if s["name"] == "engine"), None)
    if thread is None or wall_s <= 0:
        return None
    attributed = sum(
        own[s["id"]] for s in spans if s["thread"] == thread and s["name"] != ROOT
    )
    return 1.0 - attributed / wall_s
