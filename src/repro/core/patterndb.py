"""Persistent pattern store.

"Analysing system logs in a continuous way requires to be able to
preserve patterns between the processing of different message batches.
To this end, Sequence-RTG stores the patterns in a SQL database in a
one-to-many relationship with their related services.  We also include
up to three unique examples for each pattern ...  We label each pattern
with a unique ID ... a SHA1 hash of the concatenated text of the pattern
and the service.  Moreover, we attach a set of statistics ... the number
of times that the pattern has been matched since first discovered
(count), how recently it was last matched (last matched date) and a
calculated complexity score." (paper §III)

Implemented over sqlite3 so the store works in-memory for tests and on
disk in production, with the exact schema shape the paper describes.
"""

from __future__ import annotations

import heapq
import json
import os
import sqlite3
import tempfile
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from operator import attrgetter

from repro.analyzer.pattern import Pattern

__all__ = ["PatternDB", "PatternRow", "route_service"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS services (
    id   INTEGER PRIMARY KEY AUTOINCREMENT,
    name TEXT UNIQUE NOT NULL
);
CREATE TABLE IF NOT EXISTS patterns (
    id           TEXT PRIMARY KEY,
    service_id   INTEGER NOT NULL REFERENCES services(id),
    pattern_text TEXT NOT NULL,
    tokens_json  TEXT NOT NULL,
    complexity   REAL NOT NULL,
    match_count  INTEGER NOT NULL DEFAULT 0,
    first_seen   TEXT NOT NULL,
    last_matched TEXT
);
CREATE INDEX IF NOT EXISTS idx_patterns_service ON patterns(service_id);
CREATE TABLE IF NOT EXISTS examples (
    pattern_id TEXT NOT NULL REFERENCES patterns(id) ON DELETE CASCADE,
    seq        INTEGER NOT NULL,
    message    TEXT NOT NULL,
    PRIMARY KEY (pattern_id, seq)
);
CREATE TABLE IF NOT EXISTS shard_manifest (
    id       INTEGER PRIMARY KEY CHECK (id = 0),
    n_shards INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS last_call (
    id    INTEGER PRIMARY KEY CHECK (id = 0),
    token TEXT NOT NULL,
    reply BLOB NOT NULL
);
"""

#: the column list :meth:`PatternDB._row` unpacks
_SELECT_ROW = (
    "SELECT p.id, s.name, p.pattern_text, p.tokens_json, p.complexity,"
    " p.match_count, p.first_seen, p.last_matched"
    " FROM patterns p JOIN services s ON s.id = p.service_id"
)


def _utcnow() -> datetime:
    return datetime.now(timezone.utc)


def route_service(service: str, n_shards: int) -> int:
    """Sticky shard index of *service* in an *n_shards*-way layout.

    crc32 rather than hash(): stable across interpreter runs and worker
    respawns, so a service is owned by the same shard file (and the same
    pool worker) for the lifetime of a deployment.
    """
    return zlib.crc32(service.encode()) % n_shards


@dataclass(slots=True)
class PatternRow:
    """One stored pattern with its statistics."""

    id: str
    service: str
    pattern_text: str
    complexity: float
    match_count: int
    first_seen: str
    last_matched: str | None
    examples: list[str]
    tokens_json: str

    def to_pattern(self) -> Pattern:
        pattern = Pattern.from_dict(json.loads(self.tokens_json))
        pattern.service = self.service
        pattern.support = self.match_count
        pattern.examples = list(self.examples)
        return pattern


class PatternDB:
    """SQLite-backed pattern persistence.

    A database is one file, or — once a worker pool has mined into it —
    a main file holding a one-row manifest plus ``n`` *shard files*
    (``<path>.<i>``; a temporary directory owned by this object when the
    main database is ``:memory:``), each owning the services
    :func:`route_service` maps to it.  Pattern ids are content-derived
    and the shards service-disjoint, so the union of the shard files
    *is* the database a serial miner would have written: every read
    method of a sharded handle serves that union, ``prune`` and
    ``merge_from`` act on every shard, and the per-pattern write methods
    raise — each shard has exactly one writer, the pool worker that
    owns it.
    """

    def __init__(
        self,
        path: str = ":memory:",
        max_examples: int = 3,
        durable: bool = False,
    ) -> None:
        self.path = path
        self.durable = durable
        # the serving tier mines on a dispatcher thread while the CLI
        # thread created this object; access is handed off, never
        # concurrent, and SQLite's serialized mode (threadsafety == 3)
        # locks at the C level anyway — keep the Python-side thread
        # check only when the library cannot protect itself
        self._conn = sqlite3.connect(
            path, check_same_thread=sqlite3.threadsafety != 3
        )
        self._conn.execute("PRAGMA foreign_keys = ON")
        if not durable:
            # WAL keeps readers unblocked and turns the per-commit cost
            # into a sequential log append; NORMAL syncs only at WAL
            # checkpoints.  A crash can lose the last commits but never
            # corrupts the DB — acceptable for mined patterns, which the
            # next batches re-discover.  (In-memory DBs report "memory"
            # and keep their journal mode; the pragmas are harmless.)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self.max_examples = max_examples
        self._tx_depth = 0
        #: home of the shard files of an in-memory main database
        self._shard_dir: tempfile.TemporaryDirectory | None = None
        #: one plain handle per shard file, in shard order (empty = this
        #: file holds the rows itself)
        self._shards: list[PatternDB] = []
        manifest = self._conn.execute(
            "SELECT n_shards FROM shard_manifest"
        ).fetchone()
        if manifest is not None:
            for shard_path in map(self._shard_path, range(manifest[0])):
                if not os.path.exists(shard_path):
                    raise FileNotFoundError(
                        f"pattern database {path!r} is sharded over "
                        f"{manifest[0]} files and {shard_path!r} is missing"
                    )
                self._shards.append(PatternDB(shard_path, max_examples, durable))

    def close(self) -> None:
        for shard in self._shards:
            shard.close()
        self._conn.close()
        if self._shard_dir is not None:
            self._shard_dir.cleanup()

    # ------------------------------------------------------------------
    # Shard layout
    # ------------------------------------------------------------------
    def _shard_path(self, index: int) -> str:
        if self.path != ":memory:":
            return f"{self.path}.{index}"
        if self._shard_dir is None:
            self._shard_dir = tempfile.TemporaryDirectory(
                prefix="sequence-rtg-shards-"
            )
        return os.path.join(self._shard_dir.name, f"shard.{index}")

    def _owner(self, service: str) -> "PatternDB":
        """The handle whose file holds *service*'s rows."""
        if not self._shards:
            return self
        return self._shards[route_service(service, len(self._shards))]

    def _check_writable(self) -> None:
        if self._shards:
            raise RuntimeError(
                f"pattern database {self.path!r} is sharded over "
                f"{len(self._shards)} files, each written only by the pool "
                "worker that owns it; mine through "
                "PersistentParallelSequenceRTG (or merge the shards into "
                "one file with merge_from) instead of writing here"
            )

    def shard(self, n_shards: int) -> list[str]:
        """Lay the rows out over *n_shards* files; returns their paths.

        Afterwards every service's rows live in the file of
        ``route_service(service, n_shards)`` and the manifest in the
        main file says so.  Rows found elsewhere — in the main file (a
        database mined serially so far) or in shard files written under
        a different shard count — are moved to their owner once: copied
        with their statistics, dates and examples in one transaction per
        destination file, then deleted in one transaction per source
        file, the main file's carrying the manifest update.  Copies
        replace by id, so a move interrupted between the two steps is
        simply redone by the next call.
        """
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        listed = {shard.path: shard for shard in self._shards}
        members: list[PatternDB] = []
        for shard_path in map(self._shard_path, range(n_shards)):
            member = listed.pop(shard_path, None)
            if member is None:
                member = PatternDB(shard_path, self.max_examples, self.durable)
                # a file the manifest does not list holds nothing this
                # database owns (the leavings of an interrupted move)
                member._drop_services(member._service_names())
            members.append(member)
        retired = list(listed.values())  # shards beyond the new count

        arrivals: list[list[tuple[str, list[PatternRow]]]] = [
            [] for _ in members
        ]
        departures: list[tuple[PatternDB, list[str]]] = []
        for source in (self, *members, *retired):
            leaving = []
            for name in source._service_names():
                owner = route_service(name, n_shards)
                if members[owner] is not source:
                    arrivals[owner].append((name, source._service_rows(name)))
                    leaving.append(name)
            departures.append((source, leaving))
        for member, arriving in zip(members, arrivals):
            if arriving:
                with member._transaction():
                    for name, rows in arriving:
                        member._adopt_service(name, rows)
        for source, leaving in departures:
            if not leaving and source is not self:
                continue
            with source._transaction():
                source._drop_services(leaving)
                if source is self:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO shard_manifest(id, n_shards)"
                        " VALUES (0, ?)",
                        (n_shards,),
                    )
        for shard in retired:
            shard.close()
            for suffix in ("", "-wal", "-shm"):
                if os.path.exists(shard.path + suffix):
                    os.remove(shard.path + suffix)
        self._shards = members
        return [member.path for member in members]

    def _service_names(self) -> list[str]:
        """Services of this file alone, in creation order."""
        return [
            name
            for (name,) in self._conn.execute(
                "SELECT name FROM services ORDER BY id"
            )
        ]

    def _service_rows(self, service: str) -> list[PatternRow]:
        """One service's rows in this file alone, in insertion order —
        the order a move must keep, because a parser loaded from equal
        match counts ranks patterns by it."""
        return [
            self._row(*values)
            for values in self._conn.execute(
                _SELECT_ROW + " WHERE s.name = ? ORDER BY p.rowid", (service,)
            )
        ]

    def _adopt_service(self, service: str, rows: list[PatternRow]) -> None:
        """Store *rows* exactly as another file held them."""
        service_id = self._service_id(service)
        for row in rows:
            self._conn.execute(
                "DELETE FROM examples WHERE pattern_id = ?", (row.id,)
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO patterns(id, service_id, pattern_text, tokens_json,"
                " complexity, match_count, first_seen, last_matched)"
                " VALUES (?,?,?,?,?,?,?,?)",
                (
                    row.id,
                    service_id,
                    row.pattern_text,
                    row.tokens_json,
                    row.complexity,
                    row.match_count,
                    row.first_seen,
                    row.last_matched,
                ),
            )
            self._conn.executemany(
                "INSERT INTO examples(pattern_id, seq, message) VALUES (?,?,?)",
                [(row.id, seq, m) for seq, m in enumerate(row.examples)],
            )

    def _drop_services(self, services: list[str]) -> None:
        """Forget *services* — rows, examples and name — in this file."""
        for service in services:
            self._conn.execute(
                "DELETE FROM examples WHERE pattern_id IN (SELECT p.id"
                " FROM patterns p JOIN services s ON s.id = p.service_id"
                " WHERE s.name = ?)",
                (service,),
            )
            self._conn.execute(
                "DELETE FROM patterns WHERE service_id IN"
                " (SELECT id FROM services WHERE name = ?)",
                (service,),
            )
            self._conn.execute("DELETE FROM services WHERE name = ?", (service,))
        self._commit()

    # ------------------------------------------------------------------
    # Exactly-once calls
    # ------------------------------------------------------------------
    def stored_reply(self, token: str) -> bytes | None:
        """The reply :meth:`store_reply` kept for *token*, if it was the
        last call this file committed."""
        row = self._conn.execute(
            "SELECT reply FROM last_call WHERE token = ?", (token,)
        ).fetchone()
        return None if row is None else row[0]

    def store_reply(self, token: str, reply: bytes) -> None:
        """Record *token* as the last call applied, with its *reply*.

        Called inside the transaction that applies the call, the record
        commits or rolls back with the call's writes — which is what
        lets a pool worker that died after its commit but before its
        reply answer the re-sent call from here instead of applying it
        twice.
        """
        self._conn.execute(
            "INSERT OR REPLACE INTO last_call(id, token, reply) VALUES (0, ?, ?)",
            (token, reply),
        )
        self._commit()

    # ------------------------------------------------------------------
    def transaction(self):
        """Batch many writes into one commit.

        Inside the block every write method (:meth:`upsert`,
        :meth:`add_example`, :meth:`record_match`, ...) defers its
        commit; the block commits once on success and rolls everything
        back on error.  Nesting is allowed — the outermost block owns
        the commit.  ``MiningEngine`` wraps every mining call in one
        transaction (``PersistStage``'s per-service block nests inside
        it), so a batch costs one commit however many services it
        touched.
        """
        self._check_writable()
        return self._transaction()

    @contextmanager
    def _transaction(self):
        if self._tx_depth:
            self._tx_depth += 1
            try:
                yield self
            finally:
                self._tx_depth -= 1
            return
        self._tx_depth = 1
        try:
            yield self
        except BaseException:
            self._conn.rollback()
            raise
        else:
            self._conn.commit()
        finally:
            self._tx_depth = 0

    def _commit(self) -> None:
        """Commit now, unless an enclosing :meth:`transaction` owns it."""
        if not self._tx_depth:
            self._conn.commit()

    def __enter__(self) -> "PatternDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _service_id(self, name: str) -> int:
        cur = self._conn.execute(
            "INSERT INTO services(name) VALUES (?) ON CONFLICT(name) DO NOTHING",
            (name,),
        )
        if cur.lastrowid:
            row = self._conn.execute(
                "SELECT id FROM services WHERE name = ?", (name,)
            ).fetchone()
            return int(row[0])
        row = self._conn.execute(
            "SELECT id FROM services WHERE name = ?", (name,)
        ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    def upsert(self, pattern: Pattern, now: datetime | None = None) -> str:
        """Insert *pattern* or fold its support/examples into the stored row.

        Returns the pattern id.  The id is content-derived (SHA1 of text +
        service), so re-discovering a pattern in a later batch updates
        the existing row instead of duplicating it.
        """
        self._check_writable()
        if not pattern.service:
            raise ValueError("pattern must carry a service before persisting")
        now = now or _utcnow()
        stamp = now.isoformat()
        pid = pattern.id
        service_id = self._service_id(pattern.service)
        existing = self._conn.execute(
            "SELECT match_count FROM patterns WHERE id = ?", (pid,)
        ).fetchone()
        if existing is None:
            self._conn.execute(
                "INSERT INTO patterns(id, service_id, pattern_text, tokens_json,"
                " complexity, match_count, first_seen, last_matched)"
                " VALUES (?,?,?,?,?,?,?,?)",
                (
                    pid,
                    service_id,
                    pattern.text,
                    json.dumps(pattern.to_dict()),
                    pattern.complexity,
                    pattern.support,
                    stamp,
                    stamp,
                ),
            )
        else:
            self._conn.execute(
                "UPDATE patterns SET match_count = match_count + ?,"
                " last_matched = ? WHERE id = ?",
                (pattern.support, stamp, pid),
            )
        for example in pattern.examples:
            self._add_example(pid, example)
        self._commit()
        return pid

    def add_example(self, pattern_id: str, message: str) -> None:
        """Store *message* as an example of the pattern if new and under cap."""
        self._check_writable()
        self._add_example(pattern_id, message)
        self._commit()

    def _add_example(self, pattern_id: str, message: str) -> None:
        rows = self._conn.execute(
            "SELECT seq, message FROM examples WHERE pattern_id = ? ORDER BY seq",
            (pattern_id,),
        ).fetchall()
        if len(rows) >= self.max_examples:
            return
        if any(message == m for _, m in rows):
            return
        next_seq = (rows[-1][0] + 1) if rows else 0
        self._conn.execute(
            "INSERT INTO examples(pattern_id, seq, message) VALUES (?,?,?)",
            (pattern_id, next_seq, message),
        )

    # ------------------------------------------------------------------
    def record_match(
        self, pattern_id: str, n: int = 1, now: datetime | None = None
    ) -> None:
        """Bump the match count and last-matched date of a stored pattern."""
        self._check_writable()
        now = now or _utcnow()
        self._conn.execute(
            "UPDATE patterns SET match_count = match_count + ?, last_matched = ?"
            " WHERE id = ?",
            (n, now.isoformat(), pattern_id),
        )
        self._commit()

    def record_matches(
        self, counts: dict[str, int], now: datetime | None = None
    ) -> None:
        """Bump many patterns' match statistics in one ``executemany``.

        *counts* maps pattern id to the number of new matches; all rows
        share one last-matched stamp.  Equivalent to calling
        :meth:`record_match` per id, minus the per-row statement and
        commit overhead.
        """
        self._check_writable()
        if not counts:
            return
        stamp = (now or _utcnow()).isoformat()
        self._conn.executemany(
            "UPDATE patterns SET match_count = match_count + ?, last_matched = ?"
            " WHERE id = ?",
            [(n, stamp, pid) for pid, n in counts.items()],
        )
        self._commit()

    # ------------------------------------------------------------------
    def services(self) -> list[str]:
        if self._shards:
            return sorted(n for shard in self._shards for n in shard.services())
        rows = self._conn.execute(
            "SELECT name FROM services ORDER BY name"
        ).fetchall()
        return [r[0] for r in rows]

    def load_service(self, service: str) -> list[Pattern]:
        """Load all patterns of one service as live Pattern objects."""
        return [row.to_pattern() for row in self.rows(service=service)]

    def rows(
        self,
        service: str | None = None,
        min_count: int = 0,
        max_complexity: float = 1.0,
    ) -> list[PatternRow]:
        """Fetch stored rows, optionally filtered for export selection."""
        if self._shards and service is not None:
            return self._owner(service).rows(service, min_count, max_complexity)
        if self._shards:
            # every shard sorts by service first and no service spans two
            # shards, so merging on the service name alone keeps each
            # shard's own order within a service
            return list(
                heapq.merge(
                    *(s.rows(None, min_count, max_complexity) for s in self._shards),
                    key=attrgetter("service"),
                )
            )
        query = _SELECT_ROW + " WHERE p.match_count >= ? AND p.complexity <= ?"
        params: list = [min_count, max_complexity]
        if service is not None:
            query += " AND s.name = ?"
            params.append(service)
        query += " ORDER BY s.name, p.match_count DESC"
        return [self._row(*values) for values in self._conn.execute(query, params)]

    def row(self, pattern_id: str) -> PatternRow | None:
        """The stored row of one pattern (with its examples), or None.

        The point lookup for callers that hold an id — fetching
        ``rows(service=...)`` to find one row costs an example query
        per pattern of the service.
        """
        if self._shards:
            found = (shard.row(pattern_id) for shard in self._shards)
            return next((row for row in found if row is not None), None)
        values = self._conn.execute(
            _SELECT_ROW + " WHERE p.id = ?", (pattern_id,)
        ).fetchone()
        return None if values is None else self._row(*values)

    def _row(
        self, pid, service, text, tokens_json, complexity, count, first, last
    ) -> PatternRow:
        """One ``patterns`` result row plus its examples, in seq order."""
        examples = [
            m
            for (m,) in self._conn.execute(
                "SELECT message FROM examples WHERE pattern_id = ? ORDER BY seq",
                (pid,),
            )
        ]
        return PatternRow(
            id=pid,
            service=service,
            pattern_text=text,
            complexity=complexity,
            match_count=count,
            first_seen=first,
            last_matched=last,
            examples=examples,
            tokens_json=tokens_json,
        )

    # ------------------------------------------------------------------
    def prune(self, save_threshold: int) -> int:
        """Drop patterns matched fewer than *save_threshold* times.

        Implements the paper's monitoring guidance for the rare-message
        limitation: "Any pattern whose count of matches is less than the
        threshold is considered useless and thus not saved."
        """
        if self._shards:
            return sum(shard.prune(save_threshold) for shard in self._shards)
        cur = self._conn.execute(
            "DELETE FROM patterns WHERE match_count < ?", (save_threshold,)
        )
        self._conn.execute(
            "DELETE FROM examples WHERE pattern_id NOT IN (SELECT id FROM patterns)"
        )
        self._commit()
        return cur.rowcount

    # ------------------------------------------------------------------
    def delete_patterns(self, ids) -> int:
        """Delete patterns (and their examples) by id; returns how many.

        The removal half of stream-mode pattern churn: drift
        maintenance retires subsumed or split patterns, TTL eviction
        retires stale ones.  Callers holding cached parsers for the
        affected services must retire them too
        (:meth:`repro.core.pipeline.SequenceRTG.retire_patterns` does
        both sides).
        """
        ids = list(ids)
        if not ids:
            return 0
        with self.transaction():
            self._conn.executemany(
                "DELETE FROM examples WHERE pattern_id = ?",
                [(pid,) for pid in ids],
            )
            cur = self._conn.executemany(
                "DELETE FROM patterns WHERE id = ?", [(pid,) for pid in ids]
            )
            removed = cur.rowcount
        return removed

    def stale_patterns(
        self, ttl_days: float, now: datetime | None = None
    ) -> list[tuple[str, str]]:
        """``(service, pattern id)`` of rows last matched too long ago.

        A pattern is stale when its ``last_matched`` date — which every
        match and rediscovery refreshes — is older than *ttl_days*
        before *now*.  Stamps are ISO-8601 strings from a single writer,
        so the comparison is lexicographic (SQLite has no datetime
        type); rows with no ``last_matched`` are never stale.
        """
        if self._shards:
            return sorted(
                stale
                for shard in self._shards
                for stale in shard.stale_patterns(ttl_days, now=now)
            )
        cutoff = ((now or _utcnow()) - timedelta(days=ttl_days)).isoformat()
        return [
            (svc, pid)
            for svc, pid in self._conn.execute(
                "SELECT s.name, p.id FROM patterns p"
                " JOIN services s ON s.id = p.service_id"
                " WHERE p.last_matched IS NOT NULL AND p.last_matched < ?"
                " ORDER BY s.name, p.id",
                (cutoff,),
            )
        ]

    def evict_stale(self, ttl_days: float, now: datetime | None = None) -> int:
        """Delete every stale pattern (see :meth:`stale_patterns`)."""
        stale = self.stale_patterns(ttl_days, now=now)
        return self.delete_patterns(pid for _, pid in stale)

    # ------------------------------------------------------------------
    def merge_from(self, other: "PatternDB") -> int:
        """Fold every pattern of *other* into this database.

        Supports the paper's scale-out deployment (§IV): each
        Sequence-RTG instance owns the services it was sent and "each
        instance could have its own database as there is no crossover
        with patterns between different services" — a central database
        is then the union of the instance databases.  Content-derived
        ids make the merge idempotent; match counts accumulate.

        Returns the number of patterns folded in.  Into a sharded
        database every pattern goes to the shard that owns its service,
        one transaction per shard file.
        """
        n = 0
        with ExitStack() as stack:
            for holder in self._shards or [self]:
                stack.enter_context(holder.transaction())
            for row in other.rows():
                self._owner(row.service).upsert(row.to_pattern())
                n += 1
        return n

    def dump(self) -> list[dict]:
        """Serialise the whole database to JSON-compatible dictionaries."""
        out = []
        for row in self.rows():
            out.append(
                {
                    "id": row.id,
                    "service": row.service,
                    "pattern": row.pattern_text,
                    "tokens": json.loads(row.tokens_json),
                    "complexity": row.complexity,
                    "match_count": row.match_count,
                    "first_seen": row.first_seen,
                    "last_matched": row.last_matched,
                    "examples": row.examples,
                }
            )
        return out

    @classmethod
    def from_dump(cls, dump: list[dict], path: str = ":memory:") -> "PatternDB":
        """Rebuild a database from :meth:`dump` output."""
        db = cls(path)
        with db.transaction():
            for entry in dump:
                pattern = Pattern.from_dict(entry["tokens"])
                pattern.service = entry["service"]
                pattern.support = entry["match_count"]
                pattern.examples = list(entry["examples"])
                db.upsert(pattern)
        return db

    def counts(self) -> dict[str, int]:
        """Row counts per table (monitoring/telemetry)."""
        if self._shards:
            totals = [shard.counts() for shard in self._shards]
            return {table: sum(t[table] for t in totals) for table in totals[0]}
        out = {}
        for table in ("services", "patterns", "examples"):
            (n,) = self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
            out[table] = n
        return out

    def counts_by_service(self) -> dict[str, int]:
        """Stored patterns per service, for the DB growth gauges
        (:func:`repro.obs.observer.observe_patterndb`)."""
        if self._shards:
            merged: dict[str, int] = {}
            for shard in self._shards:
                merged.update(shard.counts_by_service())
            return dict(sorted(merged.items()))
        return dict(
            self._conn.execute(
                "SELECT s.name, COUNT(p.id) FROM services s"
                " LEFT JOIN patterns p ON p.service_id = s.id"
                " GROUP BY s.name ORDER BY s.name"
            ).fetchall()
        )
