"""The stdlib ``/metrics`` scrape endpoint."""

import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.server import MetricsServer


def scrape(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=5) as response:
        return (
            response.status,
            response.headers["Content-Type"],
            response.read().decode("utf-8"),
        )


class TestMetricsServer:
    def test_serves_registry_rendering(self):
        registry = MetricsRegistry()
        registry.counter("rtg_events_total", "help").inc(3)
        with MetricsServer(registry, port=0) as server:
            status, content_type, body = scrape(server.url)
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "rtg_events_total 3\n" in body

    def test_scrape_sees_live_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("rtg_events_total")
        with MetricsServer(registry, port=0) as server:
            counter.inc()
            assert "rtg_events_total 1" in scrape(server.url)[2]
            counter.inc(4)
            assert "rtg_events_total 5" in scrape(server.url)[2]

    def test_other_paths_are_404(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            root = server.url.rsplit("/metrics", 1)[0] + "/other"
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(root, timeout=5)
            with exc_info.value as error:  # closes the response's socket
                assert error.code == 404

    def test_port_zero_binds_a_real_port(self):
        server = MetricsServer(MetricsRegistry(), port=0)
        try:
            port = server.start()
            assert port > 0
            assert server.port == port
            assert f":{port}/metrics" in server.url
        finally:
            server.close()

    def test_close_is_idempotent(self):
        server = MetricsServer(MetricsRegistry(), port=0)
        server.start()
        server.close()
        server.close()
        with pytest.raises(RuntimeError, match="not running"):
            server.port

    def test_start_is_idempotent(self):
        server = MetricsServer(MetricsRegistry(), port=0)
        try:
            assert server.start() == server.start()
        finally:
            server.close()
