"""Shard router: sticky consistent hashing, bounded queues, policies.

Satellite of the serving-tier PR: the routing tests pin the property
the whole tier's bit-identity rests on — the network router shards by
the *same* hash as the persistent pool, so moving ingest from a file to
a socket never moves a service to a different worker.
"""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parallel import route_service, shard_records
from repro.core.records import LogRecord
from repro.obs.metrics import MetricsRegistry
from repro.serve.router import OVERLOAD_POLICIES, ShardRouter
from repro.workflow.stream import ProductionStream, StreamConfig


def records_for_test(n=400, n_services=24, seed=11):
    stream = ProductionStream(StreamConfig(n_services=n_services, seed=seed))
    return list(stream.records(n))


class TestStickyRouting:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 8])
    def test_matches_pool_hash_for_production_services(self, n_shards):
        """Same crc32 route as the worker pool, service by service: each
        offered record lands in the queue ``route_service`` names."""
        stream = ProductionStream(StreamConfig(n_services=40, seed=7))
        router = ShardRouter(n_shards=n_shards, high_water=1000)
        for service in stream.service_names:
            shard = route_service(service, n_shards)
            before = router.depth(shard)
            assert router.offer(LogRecord(service, "m")) == "accepted"
            assert router.depth(shard) == before + 1
            assert router.total_queued == sum(
                router.depth(i) for i in range(n_shards)
            )

    def test_routing_is_stable_across_instances(self):
        a = ShardRouter(n_shards=4, high_water=10)
        b = ShardRouter(n_shards=4, high_water=99, policy="shed")
        for service in ("sshd", "nginx", "postgres", "kernel"):
            a.offer(LogRecord(service, "m"))
            b.offer(LogRecord(service, "m"))
        assert [a.depth(i) for i in range(4)] == [b.depth(i) for i in range(4)]

    def test_skew_bound_over_production_services(self):
        """crc32 spreads the synthetic fleet acceptably: no empty shard
        and no shard hoarding more than half the services."""
        stream = ProductionStream(StreamConfig(n_services=64, seed=3))
        n_shards = 4
        per_shard = [0] * n_shards
        for service in stream.service_names:
            per_shard[route_service(service, n_shards)] += 1
        assert all(count > 0 for count in per_shard)
        assert max(per_shard) <= len(stream.service_names) // 2

    def test_offer_lands_on_sticky_shard(self):
        router = ShardRouter(n_shards=4, high_water=100)
        records = records_for_test(n=50)
        for record in records:
            assert router.offer(record) == "accepted"
        for index in range(4):
            expected = sum(
                1 for r in records if route_service(r.service, 4) == index
            )
            assert router.depth(index) == expected


class TestTakeBatch:
    def test_reproduces_file_fed_shard_splits(self):
        """Consecutive take_batch(B) windows must equal the file path's
        shard_records(records[k*B:(k+1)*B]) — the bit-identity seam."""
        records = records_for_test(n=300)
        n_shards, batch = 3, 100
        router = ShardRouter(n_shards=n_shards, high_water=1000)
        for record in records:
            router.offer(record)
        for k in range(3):
            shards, taken = router.take_batch(batch)
            assert taken == batch
            window = records[k * batch:(k + 1) * batch]
            assert shards == shard_records(window, n_shards)
        assert router.total_queued == 0

    def test_partial_batch_takes_oldest_first(self):
        records = records_for_test(n=30)
        router = ShardRouter(n_shards=2, high_water=100)
        for record in records:
            router.offer(record)
        shards, taken = router.take_batch(10)
        assert taken == 10
        assert shards == shard_records(records[:10], 2)
        assert router.total_queued == 20

    def test_empty_router(self):
        router = ShardRouter(n_shards=2, high_water=10)
        shards, taken = router.take_batch(5)
        assert taken == 0
        assert shards == [[], []]


class TestOverloadPolicies:
    def full_router(self, policy, n=1, high_water=3):
        router = ShardRouter(n_shards=n, high_water=high_water, policy=policy)
        for i in range(high_water):
            assert router.offer(LogRecord("svc", f"old {i}")) == "accepted"
        return router

    def test_block_refuses_without_enqueuing(self):
        router = self.full_router("block")
        assert router.offer(LogRecord("svc", "new")) == "blocked"
        assert router.depth(0) == 3
        assert router.shed_total == 0
        # space frees -> the retry succeeds (what the handler loop does)
        router.take_batch(1)
        assert router.offer(LogRecord("svc", "new")) == "accepted"

    def test_shed_refuses_newest(self):
        router = self.full_router("shed")
        assert router.offer(LogRecord("svc", "new")) == "shed"
        assert router.shed_total == 1
        shards, _ = router.take_batch(10)
        assert [r.message for r in shards[0]] == ["old 0", "old 1", "old 2"]

    def test_drop_oldest_evicts_front(self):
        router = self.full_router("drop_oldest")
        assert router.offer(LogRecord("svc", "new")) == "accepted"
        assert router.shed_total == 1
        assert router.depth(0) == 3
        shards, _ = router.take_batch(10)
        assert [r.message for r in shards[0]] == ["old 1", "old 2", "new"]

    def test_high_water_is_per_shard(self):
        router = ShardRouter(n_shards=4, high_water=2, policy="shed")
        # find two services on different shards
        names = [f"svc{i}" for i in range(64)]
        a = next(s for s in names if route_service(s, 4) == 0)
        b = next(s for s in names if route_service(s, 4) == 1)
        for _ in range(2):
            assert router.offer(LogRecord(a, "m")) == "accepted"
        assert router.offer(LogRecord(a, "m")) == "shed"
        assert router.offer(LogRecord(b, "m")) == "accepted"

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ShardRouter(n_shards=0, high_water=10)
        with pytest.raises(ValueError):
            ShardRouter(n_shards=1, high_water=0)
        with pytest.raises(ValueError):
            ShardRouter(n_shards=1, high_water=10, policy="panic")
        assert OVERLOAD_POLICIES == ("block", "shed", "drop_oldest")


class TestWaiting:
    def test_wait_for_returns_when_count_reached(self):
        router = ShardRouter(n_shards=1, high_water=100)

        def feed():
            time.sleep(0.05)
            for i in range(5):
                router.offer(LogRecord("svc", f"m{i}"))

        thread = threading.Thread(target=feed)
        thread.start()
        total = router.wait_for(5, timeout=5.0)
        thread.join()
        assert total == 5

    def test_wait_for_times_out(self):
        router = ShardRouter(n_shards=1, high_water=100)
        router.offer(LogRecord("svc", "m"))
        start = time.monotonic()
        total = router.wait_for(10, timeout=0.1)
        assert time.monotonic() - start < 2.0
        assert total == 1

    def test_notify_interrupts_waiter(self):
        """The drain signal must not let the dispatcher sleep out its
        deadline — notify() returns the wait immediately."""
        router = ShardRouter(n_shards=1, high_water=100)
        woke = threading.Event()

        def wait():
            router.wait_for(10, timeout=30.0)
            woke.set()

        thread = threading.Thread(target=wait, daemon=True)
        thread.start()
        time.sleep(0.05)
        router.notify()
        assert woke.wait(timeout=5.0)
        thread.join(timeout=5.0)


class TestMetrics:
    def test_counters_and_gauge_published(self):
        registry = MetricsRegistry()
        router = ShardRouter(
            n_shards=1, high_water=2, policy="shed", metrics=registry
        )
        router.offer(LogRecord("svc", "a"))
        router.offer(LogRecord("svc", "b"))
        router.offer(LogRecord("svc", "c"))  # shed
        accepted = registry.counter("rtg_serve_accepted_total")
        shed = registry.counter("rtg_serve_shed_total")
        depth = registry.gauge("rtg_serve_queue_depth")
        assert accepted.value(shard="0") == 2
        assert shed.value(shard="0", policy="shed") == 1
        assert depth.value(shard="0") == 2
        router.take_batch(10)
        assert depth.value(shard="0") == 0


def _offer_one(router, record):
    """The per-record ``offer`` this router had before admission went
    per slice: the oracle of :class:`TestOfferManyEqualsSequentialOffers`."""
    shard = route_service(record.service, router.n_shards)
    with router._ready:
        queue = router._shards[shard]
        if len(queue) >= router.high_water:
            if router.policy == "block":
                return "blocked"
            if router.policy == "shed":
                router.shed_total += 1
                router._shed_counter.inc(shard=str(shard), policy="shed")
                return "shed"
            queue.popleft()
            router._total -= 1
            router.shed_total += 1
            router._shed_counter.inc(shard=str(shard), policy="drop_oldest")
        queue.append((router._seq, record))
        router._seq += 1
        router._total += 1
        router.accepted_total += 1
        router._accepted_counter.inc(shard=str(shard))
        router._depth_gauge.set(len(queue), shard=str(shard))
        router._ready.notify()
    return "accepted"


def _sequential(router, records) -> tuple[int, int]:
    """``(taken, refused)`` of per-record offers, stopping where the old
    server's submit loop would have waited."""
    refused = 0
    for index, record in enumerate(records):
        outcome = _offer_one(router, record)
        if outcome == "blocked":
            return index, refused
        refused += outcome == "shed"
    return len(records), refused


def _state(router, registry):
    serve = {
        name: entry["samples"]
        for name, entry in registry.snapshot().items()
        if name.startswith("rtg_serve_")
    }
    return (
        [list(queue) for queue in router._shards],
        router._seq,
        router._total,
        router.total_queued,
        router.accepted_total,
        router.shed_total,
        serve,
    )


_slices = st.lists(
    st.lists(st.integers(0, 7), max_size=12),  # service index per record
    min_size=1,
    max_size=8,
)


class TestOfferManyEqualsSequentialOffers:
    """``offer_many(slice)`` ≡ one ``offer`` per record, in order."""

    @given(
        n_shards=st.integers(1, 4),
        high_water=st.integers(1, 6),
        policy=st.sampled_from(OVERLOAD_POLICIES),
        slices=_slices,
        takes=st.lists(st.integers(0, 5), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_queues_counters_and_stop_index(
        self, n_shards, high_water, policy, slices, takes
    ):
        reference_registry, registry = MetricsRegistry(), MetricsRegistry()
        reference = ShardRouter(n_shards, high_water, policy, reference_registry)
        router = ShardRouter(n_shards, high_water, policy, registry)
        serial = 0
        for step, services in enumerate(slices):
            records = []
            for service in services:
                records.append(LogRecord(f"svc{service}", f"m{serial}"))
                serial += 1
            expected = _sequential(reference, records)
            assert router.offer_many(records) == expected
            if policy != "block":
                assert expected[0] == len(records)
            assert _state(router, registry) == _state(reference, reference_registry)
            if step < len(takes):  # the dispatcher frees some space
                assert router.take_batch(takes[step]) == reference.take_batch(takes[step])
                assert _state(router, registry) == _state(reference, reference_registry)

    @pytest.mark.parametrize("policy", OVERLOAD_POLICIES)
    def test_offer_is_a_one_record_slice(self, policy):
        reference_registry, registry = MetricsRegistry(), MetricsRegistry()
        reference = ShardRouter(2, 3, policy, reference_registry)
        router = ShardRouter(2, 3, policy, registry)
        for record in records_for_test(n=40, n_services=3):
            assert router.offer(record) == _offer_one(reference, record)
        assert _state(router, registry) == _state(reference, reference_registry)

    def test_refuse_counts_shed_under_the_policy_label(self):
        registry = MetricsRegistry()
        router = ShardRouter(n_shards=2, high_water=4, metrics=registry)
        records = records_for_test(n=9, n_services=5)
        assert router.refuse(records) == 9
        assert router.shed_total == 9 and router.total_queued == 0
        shed = registry.counter("rtg_serve_shed_total")
        assert sum(
            shed.value(shard=str(i), policy="block") for i in range(2)
        ) == 9
