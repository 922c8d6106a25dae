"""Service observability over a real socket: /metrics, stats, logging.

The contract under test: ``/metrics`` and ``/stats`` read the *same*
underlying integers (callback instruments), so the two endpoints can
never disagree — plus the exposition formats, the prefix filter, the
opt-in access log, ``ServiceClient.metrics()`` and the ``repro stats``
CLI.
"""

import io
import json
import urllib.request

import pytest

from repro.cli import main
from repro.errors import ServiceError
from repro.service import ScenarioServer, ServiceClient

SCALE = 0.02


@pytest.fixture()
def server(tmp_path):
    with ScenarioServer(str(tmp_path / "svc.sqlite"), port=0) as srv:
        srv.start()
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=120.0)


def scrape_text(server, query=""):
    url = f"{server.url}/metrics{query}"
    with urllib.request.urlopen(url) as response:
        return response.headers.get("Content-Type"), response.read().decode()


class TestPrometheusExposition:
    def test_content_type_and_format(self, server, client):
        client.post_scenario({"workload": "fft", "scale": SCALE})
        content_type, text = scrape_text(server)
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        lines = text.splitlines()
        assert "# TYPE repro_service_request_seconds histogram" in lines
        assert "# TYPE repro_service_requests_total counter" in lines
        assert any(
            line.startswith('repro_service_request_seconds_bucket{le="+Inf"}')
            for line in lines
        )
        assert any(
            line.startswith("repro_service_request_seconds_count")
            for line in lines
        )

    def test_covers_every_layer_before_any_work(self, server):
        """One scrape of a fresh server already exposes the service,
        queue, worker, store and engine-phase families."""
        _, text = scrape_text(server)
        for name in (
            "repro_service_request_seconds",
            "repro_service_inflight_requests",
            "repro_worker_batch_size",
            "repro_queue_depth",
            "repro_queue_wait_seconds",
            "repro_worker_compute_seconds",
            "repro_store_get_seconds",
            "repro_store_records",
            "repro_engine_simulate_seconds",
            "repro_engine_trace_gen_seconds",
            "repro_engine_persist_seconds",
        ):
            assert f"# TYPE {name} " in text, name

    def test_prefix_filter(self, server):
        _, text = scrape_text(server, "?prefix=repro_queue")
        families = {
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE")
        }
        assert families  # non-empty
        assert all(name.startswith("repro_queue") for name in families)

    def test_unknown_format_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/metrics?format=xml")
        assert excinfo.value.code == 400


class TestStatsMetricsAgreement:
    def test_same_integers_on_both_endpoints(self, server, client):
        spec = {"workload": "fft", "scale": SCALE}
        client.post_scenario(spec)  # miss
        client.post_scenario(spec)  # hit
        stats = client.stats()
        metrics = client.metrics()
        assert metrics["repro_service_hits_total"]["value"] == stats["hits"]
        assert (
            metrics["repro_service_misses_total"]["value"] == stats["misses"]
        )
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert (
            metrics["repro_store_records"]["value"]
            == stats["store"]["records"] == 1
        )
        assert (
            metrics["repro_queue_completed_total"]["value"]
            == stats["queue"]["completed"]
        )

    def test_request_latency_histogram_populates(self, server, client):
        client.healthz()
        latency = client.metrics()["repro_service_request_seconds"]
        assert latency["type"] == "histogram"
        assert latency["count"] >= 1
        assert latency["sum"] > 0.0
        assert latency["p99"] >= latency["p50"] >= 0.0
        assert latency["buckets"]["+Inf"] == latency["count"]

    def test_inflight_gauge_settles_to_zero(self, server, client):
        client.healthz()
        client.stats()
        # The scrape itself is in flight while observed: <= 1.
        value = client.metrics()["repro_service_inflight_requests"]["value"]
        assert 0 <= value <= 1


class TestClientMetricsHelper:
    def test_mirrors_json_endpoint(self, server, client):
        direct = json.load(
            urllib.request.urlopen(f"{server.url}/metrics?format=json")
        )
        helper = client.metrics()
        assert set(direct) == set(helper)

    def test_prefix_filter(self, server, client):
        filtered = client.metrics(prefix="repro_store")
        assert filtered
        assert all(name.startswith("repro_store") for name in filtered)


class TestAccessLog:
    def test_disabled_by_default(self, tmp_path):
        with ScenarioServer(str(tmp_path / "a.sqlite"), port=0) as srv:
            srv.start()
            assert srv.access_logger.enabled is False
            stream = io.StringIO()
            srv.access_logger.stream = stream
            ServiceClient(srv.url).healthz()
            assert stream.getvalue() == ""

    def test_json_lines_per_request(self, tmp_path):
        with ScenarioServer(
            str(tmp_path / "b.sqlite"), port=0,
            access_log=True, log_json=True,
        ) as srv:
            srv.start()
            stream = io.StringIO()
            srv.access_logger.stream = stream
            client = ServiceClient(srv.url)
            client.healthz()
            client.stats()
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        assert [r["path"] for r in records] == ["/healthz", "/stats"]
        for record in records:
            assert record["component"] == "service.access"
            assert record["event"] == "request"
            assert record["method"] == "GET"
            assert record["status"] == 200
            assert record["duration_ms"] >= 0.0
            assert record["worker"]

    def test_error_statuses_logged(self, tmp_path):
        with ScenarioServer(
            str(tmp_path / "c.sqlite"), port=0, access_log=True,
            log_json=True,
        ) as srv:
            srv.start()
            stream = io.StringIO()
            srv.access_logger.stream = stream
            with pytest.raises(ServiceError):
                ServiceClient(srv.url).post_scenario({"workload": "nope"})
        (record,) = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        assert record["status"] == 400
        assert record["method"] == "POST"


class TestStatsCli:
    def test_render_once(self, server, client, capsys):
        client.post_scenario({"workload": "fft", "scale": SCALE})
        client.post_scenario({"workload": "fft", "scale": SCALE})
        assert main(["stats", "--server", server.url]) == 0
        out = capsys.readouterr().out
        assert "hits 1" in out and "misses 1" in out
        assert "latency" in out and "p99" in out

    def test_json_output(self, server, client, capsys):
        client.healthz()
        assert main(["stats", "--server", server.url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["requests"] >= 1
        assert "repro_service_request_seconds" in payload["metrics"]

    def test_unreachable_server_exits_nonzero(self, capsys):
        assert main(
            ["stats", "--server", "http://127.0.0.1:1"]
        ) == 1
        assert "error" in capsys.readouterr().err


class TestServeCliFlags:
    def test_access_log_flags_thread_through(self, tmp_path):
        srv = ScenarioServer(
            str(tmp_path / "d.sqlite"), port=0,
            access_log=True, log_json=False,
        )
        try:
            assert srv.access_logger.enabled is True
            assert srv.access_logger.json_lines is False
        finally:
            srv.close()
