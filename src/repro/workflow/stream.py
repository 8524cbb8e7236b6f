"""Multi-service production stream generator.

Synthesises the composite CC-IN2P3 stream: ~241 services (operating
systems, databases, containers, network tools, ... — paper Fig. 1), each
with its own template vocabulary, Zipf-distributed popularity both
across services and across templates within a service, and optional
daily *churn* — newly appearing templates that model software updates
("with each new software update or installation of new software and
hardware, new events can appear", paper §I).
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from collections.abc import Iterator

from repro._util.sampling import ZipfSampler
from repro.core.records import LogRecord
from repro.loghub.generator import FILLERS

__all__ = ["StreamConfig", "ProductionStream"]

_SERVICE_KINDS = (
    "sshd", "httpd", "nginx", "postgres", "mysql", "slurmd", "dcache",
    "xrootd", "kubelet", "containerd", "named", "ntpd", "smartd", "cups",
    "rsyslogd", "cron", "postfix", "dovecot", "openldap", "squid",
    "haproxy", "keepalived", "zabbix", "grafana", "rabbitmq", "redis",
)

_VERBS = (
    "accepted", "rejected", "started", "stopped", "completed", "failed",
    "opened", "closed", "received", "sent", "queued", "dropped",
    "registered", "expired", "refreshed", "allocated", "released",
    "mounted", "unmounted", "scheduled", "throttled", "resumed",
)

_NOUNS = (
    "connection", "session", "request", "transfer", "job", "task",
    "packet", "buffer", "lease", "certificate", "token", "volume",
    "snapshot", "replica", "shard", "queue", "worker", "channel",
    "descriptor", "transaction", "heartbeat", "checkpoint",
)

_SLOTS = ("{int}", "{ip}", "{port}", "{float}", "{id}", "{path}", "{user}", "{hex8}")


@dataclass(slots=True)
class StreamConfig:
    """Shape of the synthetic production stream."""

    n_services: int = 241  # the paper's data sets averaged 241 services
    min_templates: int = 3
    max_templates: int = 24
    service_zipf: float = 1.1
    template_zipf: float = 1.3
    #: fraction of daily volume drawn from templates first seen that day
    churn_fraction: float = 0.0
    #: probability that a drawn record is an exact repeat of a recently
    #: emitted one — models the heavy short-range redundancy of real log
    #: streams (retry storms, heartbeats, chatty components) that the
    #: scan stage's batch dedup exploits.  0 keeps every record freshly
    #: filled (the historical behaviour, bit-for-bit).
    duplicate_fraction: float = 0.0
    #: how far back exact repeats may be drawn from
    duplicate_window: int = 256
    seed: int = 42

    def __post_init__(self) -> None:
        if not (0.0 <= self.duplicate_fraction < 1.0):
            raise ValueError(
                "duplicate_fraction must be within [0, 1), got "
                f"{self.duplicate_fraction}"
            )
        if self.duplicate_window <= 0:
            raise ValueError(
                f"duplicate_window must be positive, got {self.duplicate_window}"
            )


class _ServiceSpec:
    __slots__ = ("name", "templates", "sampler")

    def __init__(self, name: str, templates: list[str], zipf_s: float, seed: int):
        self.name = name
        self.templates = templates
        self.sampler = ZipfSampler(len(templates), s=zipf_s, seed=seed)


class ProductionStream:
    """Deterministic generator of a mixed-service log stream."""

    def __init__(self, config: StreamConfig | None = None) -> None:
        self.config = config or StreamConfig()
        self._rng = random.Random(self.config.seed)
        self._recent: deque[LogRecord] = deque(maxlen=self.config.duplicate_window)
        self._services: list[_ServiceSpec] = []
        for i in range(self.config.n_services):
            kind = _SERVICE_KINDS[i % len(_SERVICE_KINDS)]
            name = f"{kind}-{i // len(_SERVICE_KINDS):02d}"
            n_templates = self._rng.randint(
                self.config.min_templates, self.config.max_templates
            )
            templates = [self._make_template() for _ in range(n_templates)]
            self._services.append(
                _ServiceSpec(
                    name,
                    templates,
                    self.config.template_zipf,
                    seed=self._rng.randrange(2**31),
                )
            )
        self._service_sampler = ZipfSampler(
            len(self._services),
            s=self.config.service_zipf,
            seed=self._rng.randrange(2**31),
        )

    # ------------------------------------------------------------------
    def _make_template(self) -> str:
        """One synthetic event template: static words mixed with slots."""
        rng = self._rng
        n_parts = rng.randint(4, 12)
        parts: list[str] = []
        for _ in range(n_parts):
            roll = rng.random()
            if roll < 0.30:
                parts.append(rng.choice(_SLOTS))
            elif roll < 0.65:
                parts.append(rng.choice(_NOUNS))
            else:
                parts.append(rng.choice(_VERBS))
        return " ".join(parts)

    def add_churn_templates(self, n: int) -> None:
        """Introduce *n* new templates into random services.

        Models software updates shipping new log events ("existing
        events potentially change and existing patterns must be
        frequently reviewed", paper §I).  A new template is inserted at
        a random popularity rank — an updated service may well emit its
        new event frequently — which is what keeps the unmatched
        fraction from decaying to zero in the Fig. 7 reproduction.
        """
        for _ in range(n):
            spec = self._rng.choice(self._services)
            rank = self._rng.randrange(len(spec.templates) + 1)
            spec.templates.insert(rank, self._make_template())
            spec.sampler = ZipfSampler(
                len(spec.templates),
                s=self.config.template_zipf,
                seed=self._rng.randrange(2**31),
            )

    # ------------------------------------------------------------------
    def _fill(self, template: str) -> str:
        out: list[str] = []
        for part in template.split(" "):
            filler = FILLERS.get(part[1:-1]) if part.startswith("{") else None
            out.append(filler(self._rng) if filler else part)
        return " ".join(out)

    def record(self) -> LogRecord:
        """Draw one record.

        With ``duplicate_fraction`` set, the draw first rolls for an
        exact repeat of a recent record; default behaviour (fraction 0)
        touches neither the RNG stream nor the replay buffer, so
        existing seeded streams reproduce unchanged.
        """
        duplicate_fraction = self.config.duplicate_fraction
        if (
            duplicate_fraction > 0.0
            and self._recent
            and self._rng.random() < duplicate_fraction
        ):
            replayed = self._recent[self._rng.randrange(len(self._recent))]
            return LogRecord(service=replayed.service, message=replayed.message)
        spec = self._services[self._service_sampler.sample()]
        template = spec.templates[spec.sampler.sample()]
        record = LogRecord(service=spec.name, message=self._fill(template))
        if duplicate_fraction > 0.0:
            self._recent.append(record)
        return record

    def records(self, n: int) -> Iterator[LogRecord]:
        """Draw *n* records."""
        for _ in range(n):
            yield self.record()

    def days(
        self, n_days: int, per_day: int, churn_per_day: int = 0
    ) -> list[list[LogRecord]]:
        """Materialise a day-by-day production replay.

        Draws *per_day* records for each of *n_days* days, introducing
        *churn_per_day* new templates before each day after the first —
        the 60-day production simulation shape (paper Fig. 7).  Returned
        as a list of per-day record lists so the same replay can feed a
        batch miner and a stream driver identically (the convergence
        comparison needs both sides to see the exact same records).
        """
        out: list[list[LogRecord]] = []
        for day in range(n_days):
            if day and churn_per_day:
                self.add_churn_templates(churn_per_day)
            out.append(list(self.records(per_day)))
        return out

    def jsonl(self, n: int) -> Iterator[str]:
        """Draw *n* records as the stream's JSON-lines wire format.

        The exact shape syslog-ng pipes into ``sequence-rtg serve`` —
        feed it to :meth:`repro.core.ingest.StreamIngester.batches_pipelined`
        to exercise the full ingest path (JSON decode included) instead
        of pre-parsed records.
        """
        for record in self.records(n):
            yield json.dumps(record.to_json_dict())

    @property
    def n_templates(self) -> int:
        return sum(len(s.templates) for s in self._services)

    @property
    def service_names(self) -> list[str]:
        return [s.name for s in self._services]
