"""Serving tier end-to-end: listeners → shard router → warm miners.

The heart of this file is the differential test: records fed through a
socket must leave the pattern database byte-identical to the same
records fed through the file path — pattern ids, texts, supports and
stored examples, serial and pooled.
"""

import json
import socket
import time

import pytest

from repro.core.config import RTGConfig
from repro.core.parallel import PersistentParallelSequenceRTG
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.serve import (
    ListenSpec,
    ServeConfig,
    ServeServer,
    parse_listen_specs,
)
from repro.workflow.stream import ProductionStream, StreamConfig


def records_for_test(n=200, n_services=8, seed=21):
    stream = ProductionStream(StreamConfig(n_services=n_services, seed=seed))
    return list(stream.records(n))


def db_fingerprint(db):
    return sorted(
        (row.id, row.service, row.pattern_text, row.match_count,
         tuple(row.examples))
        for row in db.rows()
    )


def jsonl(records) -> bytes:
    return b"".join(
        json.dumps({"service": r.service, "message": r.message}).encode() + b"\n"
        for r in records
    )


def send_tcp(addr: str, payload: bytes) -> None:
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(payload)


def http_request(addr: str, raw: bytes) -> tuple[int, dict]:
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(raw)
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        status = int(head.split(None, 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                break
            body += chunk
        return status, json.loads(body)


def http_post(addr: str, body: bytes, keep_alive=False) -> tuple[int, dict]:
    connection = b"keep-alive" if keep_alive else b"close"
    return http_request(
        addr,
        b"POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Length: "
        + str(len(body)).encode()
        + b"\r\nConnection: " + connection + b"\r\n\r\n" + body,
    )


def serve_config(**overrides) -> ServeConfig:
    defaults = dict(
        listen=(ListenSpec(scheme="tcp", host="127.0.0.1", port=0),),
        batch_size=100,
        dispatch_timeout_s=0.2,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestListenSpecs:
    def test_parse_all_schemes(self):
        specs = parse_listen_specs(
            "tcp://127.0.0.1:7514,unix:///run/rtg.sock,http://0.0.0.0:8080"
        )
        assert [s.scheme for s in specs] == ["tcp", "unix", "http"]
        assert specs[0].port == 7514
        assert specs[1].path == "/run/rtg.sock"
        assert str(specs[2]) == "http://0.0.0.0:8080"

    @pytest.mark.parametrize(
        "text",
        ["", "ftp://x:1", "tcp://nohost", "unix://", "tcp://h:notaport"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_listen_specs(text)


class TestServeConfigValidation:
    def test_rejects_bad_values(self):
        spec = (ListenSpec(scheme="tcp", host="127.0.0.1", port=0),)
        with pytest.raises(ValueError):
            ServeConfig(listen=())
        with pytest.raises(ValueError):
            ServeConfig(listen=spec, batch_size=0)
        with pytest.raises(ValueError):
            ServeConfig(listen=spec, high_water=-1)
        with pytest.raises(ValueError):
            ServeConfig(listen=spec, overload="panic")
        with pytest.raises(ValueError):
            ServeConfig(listen=spec, dispatch_timeout_s=0)


class TestEndToEndSerial:
    def test_tcp_newline_feed_mines_everything(self):
        records = records_for_test(n=150)
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(rtg, serve_config())
        endpoints = server.start_in_background()
        send_tcp(dict(endpoints)["tcp"], jsonl(records))
        assert wait_until(lambda: server.stats.accepted == len(records))
        stats = server.shutdown()
        assert stats.drained
        assert stats.accepted == len(records)
        assert stats.records_mined == len(records)
        assert stats.shed == 0 and stats.malformed == 0
        assert len(db_fingerprint(rtg.db)) > 0

    def test_tcp_octet_counted_feed(self):
        records = records_for_test(n=40)
        payload = b"".join(
            (lambda m: str(len(m)).encode() + b" " + m)(
                json.dumps(
                    {"service": r.service, "message": r.message}
                ).encode()
            )
            for r in records
        )
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(rtg, serve_config())
        endpoints = server.start_in_background()
        send_tcp(dict(endpoints)["tcp"], payload)
        assert wait_until(lambda: server.stats.accepted == len(records))
        stats = server.shutdown()
        assert stats.records_mined == len(records)

    def test_unix_socket_feed(self, tmp_path):
        records = records_for_test(n=30)
        rtg = SequenceRTG(db=PatternDB())
        sock_path = str(tmp_path / "rtg.sock")
        server = ServeServer(
            rtg,
            serve_config(listen=(ListenSpec(scheme="unix", path=sock_path),)),
        )
        endpoints = server.start_in_background()
        assert endpoints == [("unix", sock_path)]
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(sock_path)
            sock.sendall(jsonl(records))
        assert wait_until(lambda: server.stats.accepted == len(records))
        stats = server.shutdown()
        assert stats.records_mined == len(records)
        import os
        assert not os.path.exists(sock_path)  # cleaned up on drain

    def test_unterminated_tail_frame_is_submitted_at_eof(self):
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(rtg, serve_config())
        endpoints = server.start_in_background()
        body = jsonl(records_for_test(n=3))
        send_tcp(dict(endpoints)["tcp"], body[:-1])  # strip final newline
        assert wait_until(lambda: server.stats.accepted == 3)
        server.shutdown()
        assert server.stats.records_mined == 3

    def test_malformed_frames_counted_not_mined(self):
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(rtg, serve_config())
        endpoints = server.start_in_background()
        good = records_for_test(n=10)
        payload = b"not json\n" + jsonl(good) + b'{"service": "s"}\n'
        send_tcp(dict(endpoints)["tcp"], payload)
        assert wait_until(lambda: server.stats.frames == 12)
        stats = server.shutdown()
        assert stats.accepted == 10
        assert stats.malformed == 2
        assert stats.records_mined == 10


class TestHTTPFrontDoor:
    def test_post_ingest_and_healthz(self):
        records = records_for_test(n=25)
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(
            rtg,
            serve_config(listen=(ListenSpec(scheme="http", host="127.0.0.1", port=0),)),
        )
        endpoints = server.start_in_background()
        addr = dict(endpoints)["http"]
        status, body = http_post(addr, jsonl(records))
        assert status == 200
        assert body == {"accepted": 25, "shed": 0, "malformed": 0}
        status, body = http_request(
            addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        assert (status, body) == (200, {"status": "ok"})
        stats = server.shutdown()
        assert stats.records_mined == 25

    def test_post_body_without_trailing_newline(self):
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(
            rtg,
            serve_config(listen=(ListenSpec(scheme="http", host="127.0.0.1", port=0),)),
        )
        addr = dict(server.start_in_background())["http"]
        status, body = http_post(addr, jsonl(records_for_test(n=5))[:-1])
        assert status == 200 and body["accepted"] == 5
        server.shutdown()

    def test_unknown_path_404(self):
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(
            rtg,
            serve_config(listen=(ListenSpec(scheme="http", host="127.0.0.1", port=0),)),
        )
        addr = dict(server.start_in_background())["http"]
        status, _ = http_request(
            addr, b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert status == 404
        server.shutdown()

    def test_missing_content_length_411(self):
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(
            rtg,
            serve_config(listen=(ListenSpec(scheme="http", host="127.0.0.1", port=0),)),
        )
        addr = dict(server.start_in_background())["http"]
        status, _ = http_request(
            addr, b"POST /ingest HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert status == 411
        server.shutdown()

    def test_shed_surfaces_as_429(self):
        """Above the high-water mark with the shed policy, the HTTP
        response is 429 and reports exactly what was refused."""
        records = records_for_test(n=50, n_services=1)
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(
            rtg,
            serve_config(
                listen=(ListenSpec(scheme="http", host="127.0.0.1", port=0),),
                batch_size=1000,
                high_water=10,
                overload="shed",
                dispatch_timeout_s=30,  # dispatcher sits; queue stays full
            ),
        )
        addr = dict(server.start_in_background())["http"]
        status, body = http_post(addr, jsonl(records))
        assert status == 429
        assert body["accepted"] == 10
        assert body["shed"] == 40
        stats = server.shutdown()
        # drain exactness: everything accepted was mined, shed is exact
        assert stats.records_mined == stats.accepted == 10
        assert stats.shed == 40

    def test_drop_oldest_evictions_count_as_shed(self):
        """Under drop_oldest every offer is admitted and each eviction is
        shed: the stats and the summary report the router's one count."""
        records = records_for_test(n=50, n_services=1)
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(
            rtg,
            serve_config(
                listen=(ListenSpec(scheme="http", host="127.0.0.1", port=0),),
                batch_size=1000,
                high_water=10,
                overload="drop_oldest",
                dispatch_timeout_s=30,  # dispatcher sits; queue stays full
            ),
        )
        addr = dict(server.start_in_background())["http"]
        status, _ = http_post(addr, jsonl(records))
        assert status == 200
        stats = server.shutdown()
        assert stats.records_mined == 10
        assert stats.frames - stats.malformed == stats.records_mined + stats.shed
        assert stats.shed == server.summary()["shed"] == 40


class TestDrainExactness:
    def test_all_accepted_and_queued_records_are_mined(self):
        """SIGTERM-equivalent drain under load: no accepted record is
        lost, shed counts are exact, the server reports drained."""
        records = records_for_test(n=120)
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(
            rtg,
            serve_config(batch_size=1000, dispatch_timeout_s=30),
        )
        endpoints = server.start_in_background()
        send_tcp(dict(endpoints)["tcp"], jsonl(records))
        assert wait_until(lambda: server.stats.accepted == len(records))
        # nothing mined yet: the dispatcher is still waiting for a full
        # batch — drain must flush the queues, not abandon them
        stats = server.shutdown()
        assert stats.drained
        assert stats.records_mined == len(records)
        assert stats.shed == 0
        assert server.router.total_queued == 0

    def test_server_is_single_use(self):
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(rtg, serve_config())
        server.start_in_background()
        server.shutdown()
        import asyncio
        with pytest.raises(RuntimeError, match="single-use"):
            asyncio.run(server.run())


class TestBitIdentity:
    """Network-fed mining must be byte-identical to file-fed mining."""

    def test_serial_network_equals_file(self):
        records = records_for_test(n=300, n_services=10, seed=33)
        batch = 100
        config = RTGConfig(batch_size=batch)

        reference = SequenceRTG(db=PatternDB(), config=config)
        for k in range(0, len(records), batch):
            reference.analyze_by_service(records[k:k + batch])

        rtg = SequenceRTG(db=PatternDB(), config=config)
        server = ServeServer(
            rtg, serve_config(batch_size=batch, dispatch_timeout_s=30)
        )
        endpoints = server.start_in_background()
        send_tcp(dict(endpoints)["tcp"], jsonl(records))
        assert wait_until(lambda: server.stats.accepted == len(records))
        server.shutdown()

        assert db_fingerprint(rtg.db) == db_fingerprint(reference.db)

    def test_pool_network_equals_file(self):
        """The tentpole invariant: socket → shard queues → warm pool
        mines identically to file → shard_records → warm pool."""
        records = records_for_test(n=300, n_services=12, seed=44)
        batch = 100
        config = RTGConfig(batch_size=batch)

        with PatternDB() as reference_db:
            with PersistentParallelSequenceRTG(
                db=reference_db, config=config, n_workers=2
            ) as reference_pool:
                for k in range(0, len(records), batch):
                    reference_pool.analyze_by_service(records[k:k + batch])
            expected = db_fingerprint(reference_db)

        with PatternDB() as db, PersistentParallelSequenceRTG(
            db=db, config=config, n_workers=2
        ) as pool:
            server = ServeServer(
                pool, serve_config(batch_size=batch, dispatch_timeout_s=30)
            )
            endpoints = server.start_in_background()
            send_tcp(dict(endpoints)["tcp"], jsonl(records))
            assert wait_until(lambda: server.stats.accepted == len(records))
            stats = server.shutdown()
            assert server.n_shards == 2
            assert stats.records_mined == len(records)
            fingerprint = db_fingerprint(db)

        assert fingerprint == expected


class TestStreamMode:
    def test_stream_driver_mines_over_the_network(self):
        records = records_for_test(n=80, n_services=4, seed=9)
        rtg = SequenceRTG(db=PatternDB())
        driver = rtg.stream_driver()
        server = ServeServer(driver, serve_config())
        endpoints = server.start_in_background()
        send_tcp(dict(endpoints)["tcp"], jsonl(records))
        assert wait_until(lambda: server.stats.accepted == len(records))
        stats = server.shutdown()
        assert server.n_shards == 1
        assert stats.records_mined == len(records)
        assert driver.stats.n_messages == len(records)
        # the drain closed the driver: its final flush mined patterns
        assert len(db_fingerprint(rtg.db)) > 0


class TestPerChunkAdmission:
    """Admission per slice keeps every per-record outcome and count."""

    def test_deep_json_frame_is_malformed_not_fatal(self):
        """A frame nested past the recursion limit is one malformed
        frame; the connection goes on and the frames after it mine."""
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(rtg, serve_config())
        endpoints = server.start_in_background()
        good = records_for_test(n=6)
        payload = jsonl(good[:3]) + b"[" * 100_000 + b"\n" + jsonl(good[3:])
        send_tcp(dict(endpoints)["tcp"], payload)
        assert wait_until(lambda: server.stats.frames == 7)
        stats = server.shutdown()
        assert (stats.frames, stats.accepted, stats.malformed) == (7, 6, 1)
        assert stats.records_mined == 6

    def test_dead_dispatcher_refusals_are_shed(self):
        """Once the miner has raised, a blocked slice is refused: its
        records count as shed, so frames = accepted + shed + malformed."""

        class Exploding(SequenceRTG):
            def analyze_by_service(self, records, now=None):
                raise RuntimeError("miner died")

        rtg = Exploding(db=PatternDB())
        server = ServeServer(
            rtg,
            serve_config(batch_size=2, high_water=2, dispatch_timeout_s=0.05),
        )
        endpoints = server.start_in_background()
        records = records_for_test(n=50, n_services=1)
        send_tcp(dict(endpoints)["tcp"], b"garbage\n" + jsonl(records))
        assert wait_until(lambda: server.stats.frames == 51)
        with pytest.raises(RuntimeError, match="miner died"):
            server.shutdown()
        stats = server.stats
        assert stats.frames == 51 and stats.malformed == 1
        assert stats.shed > 0
        assert stats.frames == stats.accepted + stats.shed + stats.malformed
        shed = rtg.metrics.counter("rtg_serve_shed_total")
        assert shed.value(shard="0", policy="block") == stats.shed

    def test_drain_cancelled_refusals_are_shed(self):
        """Drain cancels a connection still blocked after the grace
        window: the records it read but could not queue are shed, and
        everything queued is mined."""
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(
            rtg,
            serve_config(
                batch_size=1000,
                high_water=5,
                dispatch_timeout_s=30,  # the dispatcher waits; the reader blocks
                drain_grace_s=0.1,
            ),
        )
        endpoints = server.start_in_background()
        send_tcp(dict(endpoints)["tcp"], jsonl(records_for_test(n=50, n_services=1)))
        assert wait_until(lambda: server.stats.frames == 50)
        stats = server.shutdown()
        assert (stats.accepted, stats.shed, stats.records_mined) == (5, 45, 5)
        assert stats.frames == stats.accepted + stats.shed + stats.malformed

    def test_tiny_high_water_mines_the_file_fed_db(self):
        """Block-policy pushback on every few records (queue bound =
        batch size) re-offers the rest of each slice: the DB equals the
        file-fed one."""
        records = records_for_test(n=240, n_services=6, seed=5)
        batch = 4
        config = RTGConfig(batch_size=batch)
        reference = SequenceRTG(db=PatternDB(), config=config)
        for k in range(0, len(records), batch):
            reference.analyze_by_service(records[k:k + batch])

        rtg = SequenceRTG(db=PatternDB(), config=config)
        server = ServeServer(
            rtg,
            serve_config(batch_size=batch, high_water=batch, dispatch_timeout_s=30),
        )
        endpoints = server.start_in_background()
        send_tcp(dict(endpoints)["tcp"], jsonl(records))
        assert wait_until(lambda: server.stats.accepted == len(records), timeout=60)
        stats = server.shutdown()
        assert stats.records_mined == len(records) and stats.shed == 0
        assert db_fingerprint(rtg.db) == db_fingerprint(reference.db)

    def test_http_counts_sum_over_slices(self):
        """A body of more than one 512-frame slice reports per-request
        counts summed over its slices, and the metrics agree."""
        records = records_for_test(n=1100, n_services=1)
        rtg = SequenceRTG(db=PatternDB())
        server = ServeServer(
            rtg,
            serve_config(
                listen=(ListenSpec(scheme="http", host="127.0.0.1", port=0),),
                batch_size=5000,
                high_water=700,
                overload="shed",
                dispatch_timeout_s=30,  # dispatcher sits; queue stays full
            ),
        )
        addr = dict(server.start_in_background())["http"]
        body = jsonl(records[:600]) + b"nope\n" + jsonl(records[600:])
        status, counts = http_post(addr, body)
        assert status == 429
        assert counts == {"accepted": 700, "shed": 400, "malformed": 1}
        stats = server.shutdown()
        assert (stats.frames, stats.accepted, stats.shed) == (1101, 700, 400)
        registry = rtg.metrics
        assert registry.counter("rtg_ingest_lines_total").value(source="http") == 1101
        assert registry.counter("rtg_ingest_malformed_total").value(source="http") == 1
        latency = registry.histogram("rtg_serve_ingest_latency_seconds")
        assert latency.count() == 700
