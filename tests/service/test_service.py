"""End-to-end tests of the scenario service over a real socket.

The servers run on ephemeral loopback ports inside this process, so
monkeypatching the engine (to count or forbid simulations) reaches the
handler threads — the acceptance assertions lean on that: a warm
request never touches the engine, and concurrent cold requests for one
scenario simulate it exactly once.
"""

import json
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.sim.session as session
from repro.errors import ServiceError
from repro.scenario import Scenario, scenario_fingerprint
from repro.service import ScenarioServer, ServiceClient
from repro.sim.session import run_scenario
from repro.store import SqliteStore

SCALE = 0.02


@pytest.fixture()
def server(tmp_path):
    """A running service over a fresh SQLite store (the default
    production pairing — handler threads exercise the store's
    thread-safety)."""
    with ScenarioServer(str(tmp_path / "service.sqlite"), port=0) as srv:
        srv.start()
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=120.0)


class TestHitMissFlow:
    def test_cold_then_warm(self, server, client, monkeypatch):
        """Miss simulates and persists; the identical second request is
        answered from the store without invoking the engine."""
        spec = {"workload": "volrend", "state": "PC4-MB8", "scale": SCALE}
        cold = client.post_scenario(spec)
        assert cold["cached"] is False
        assert (server.hits, server.misses) == (0, 1)

        def boom(self, *args, **kwargs):
            raise AssertionError("simulated despite a warm store")

        monkeypatch.setattr(Scenario, "build_cluster", boom)
        warm = client.post_scenario(spec)
        assert warm["cached"] is True
        assert warm["fingerprint"] == cold["fingerprint"]
        assert warm["result"] == cold["result"]
        assert (server.hits, server.misses) == (1, 1)

    def test_result_matches_local_execution(self, client):
        """The service computes exactly what the local executor does."""
        scenario = Scenario(workload="fft", scale=SCALE, seed=7)
        assert client.run(scenario) == run_scenario(scenario)

    def test_shorthand_and_full_spec_share_a_fingerprint(self, client):
        scenario = Scenario(workload="fft", scale=SCALE)
        shorthand = client.post_scenario(
            {"workload": "fft", "scale": SCALE}
        )
        full = client.post_scenario({"scenario": scenario.to_dict()})
        assert shorthand["fingerprint"] == full["fingerprint"]
        assert full["cached"] is True
        assert shorthand["fingerprint"] == scenario_fingerprint(scenario)

    def test_persists_across_server_restarts(self, tmp_path):
        """The store is the durable layer: a new server over the same
        path serves the old results as hits."""
        path = str(tmp_path / "service.sqlite")
        spec = {"workload": "volrend", "scale": SCALE}
        with ScenarioServer(path, port=0) as first:
            first.start()
            cold = ServiceClient(first.url).post_scenario(spec)
        with ScenarioServer(path, port=0) as second:
            second.start()
            warm = ServiceClient(second.url).post_scenario(spec)
        assert cold["cached"] is False and warm["cached"] is True
        assert warm["result"] == cold["result"]


class TestConcurrency:
    def test_concurrent_cold_requests_simulate_once(
        self, server, client, monkeypatch
    ):
        """N simultaneous POSTs of one cold scenario: one simulation,
        identical payloads for every caller."""
        simulated = []
        original = session.run_scenario

        def slow_counting_run(scenario, *args, **kwargs):
            simulated.append(scenario)
            time.sleep(0.2)  # hold the batch open so every POST overlaps
            return original(scenario, *args, **kwargs)

        monkeypatch.setattr(session, "run_scenario", slow_counting_run)
        spec = {"workload": "fft", "scale": SCALE}
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(
                lambda _: client.post_scenario(spec), range(8)
            ))

        assert len(simulated) == 1
        assert len({r["fingerprint"] for r in responses}) == 1
        payloads = [json.dumps(r["result"], sort_keys=True) for r in responses]
        assert len(set(payloads)) == 1
        stats = client.stats()
        assert stats["store"]["records"] == 1
        assert stats["hits"] + stats["misses"] == 8

    def test_distinct_concurrent_scenarios_all_computed(self, server, client):
        """A burst of different cold cells lands as (at most a few)
        batches and every caller gets its own result."""
        specs = [
            {"workload": "fft", "scale": SCALE, "seed": seed}
            for seed in range(4)
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(pool.map(client.post_scenario, specs))
        assert len({r["fingerprint"] for r in responses}) == 4
        assert all(r["cached"] is False for r in responses)
        assert client.stats()["store"]["records"] == 4

    def test_client_run_sweep_concurrent(self, client):
        """client.run_sweep(jobs=N) matches the local sweep, order
        preserved, duplicates served from one computation."""
        scenarios = [
            Scenario(workload="volrend", scale=SCALE),
            Scenario(workload="volrend", scale=SCALE, seed=7),
            Scenario(workload="volrend", scale=SCALE),  # duplicate
        ]
        remote = client.run_sweep(scenarios, jobs=3)
        local = [run_scenario(s) for s in scenarios]
        assert remote == local
        assert client.stats()["store"]["records"] == 2


class TestReadEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok" and health["records"] == 0

    def test_results_listing_and_filters(self, server, client):
        client.post_scenario({"workload": "fft", "scale": SCALE})
        client.post_scenario({"workload": "volrend", "scale": SCALE})
        assert {r["workload"] for r in client.query()} == {"fft", "volrend"}
        only_fft = client.query(workload="fft")
        assert [r["workload"] for r in only_fft] == ["fft"]
        assert client.query(workload="fft", scale=SCALE) == only_fft
        assert client.query(seed=999) == []

    def test_results_unknown_filter_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.query(flavor="spicy")
        assert excinfo.value.status == 400

    def test_single_result_by_prefix(self, server, client):
        envelope = client.post_scenario({"workload": "fft", "scale": SCALE})
        payload = client.result(envelope["fingerprint"][:10])
        assert payload == envelope["result"]

    def test_unknown_prefix_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.result("ffffffffffff")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url)._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_stats_counters(self, server, client):
        spec = {"workload": "volrend", "scale": SCALE}
        client.post_scenario(spec)
        client.post_scenario(spec)
        stats = client.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["pending"] == 0 and stats["batches"] >= 1
        assert stats["store"]["records"] == 1
        assert stats["store"]["path"].endswith("service.sqlite")
        assert stats["requests"] >= 3


class TestMalformedRequests:
    @pytest.mark.parametrize("body", [
        b"not json at all",
        b"[1, 2, 3]",
        b'{"workload": "linpack"}',
        b'{"workload": "fft", "bogus": 1}',
        b'{"workload": "fft", "scale": -1}',
        b'{"scenario": {"schema": "repro-scenario/999"}}',
        b"{}",
    ])
    def test_bad_specs_are_400(self, server, body):
        request = urllib.request.Request(
            server.url + "/scenario", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read().decode())
        assert "error" in error

    def test_bad_spec_does_not_poison_the_service(self, server, client):
        with pytest.raises(ServiceError):
            client.post_scenario({"workload": "linpack"})
        good = client.post_scenario({"workload": "fft", "scale": SCALE})
        assert good["cached"] is False

    def test_wrong_typed_full_spec_is_400(self, server):
        """Wrong-typed fields in a full spec raise plain TypeError
        inside Scenario — the server must still answer 400, not drop
        the connection."""
        body = json.dumps(
            {"scenario": {"workload": "fft", "max_cycles": "lots"}}
        ).encode()
        request = urllib.request.Request(
            server.url + "/scenario", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_chunked_body_is_411(self, server):
        """No Content-Length to drain by: chunked POSTs are refused
        (and the connection closed) instead of desynchronizing the
        keep-alive stream."""
        import http.client

        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            try:
                conn.request(
                    "POST", "/scenario",
                    body=iter([json.dumps({"workload": "fft"}).encode()]),
                    headers={"Content-Type": "application/json"},
                    encode_chunked=True,
                )
            except (BrokenPipeError, ConnectionResetError):
                # The server wins the race: it answers 411 and closes
                # before we finish streaming chunks, so our send fails
                # instead.  endheaders() already moved the connection
                # to request-sent, so the response (if its bytes
                # survived the close) is still readable below.
                pass
            try:
                response = conn.getresponse()
            except (http.client.HTTPException, ConnectionError):
                pass  # an RST discarded the buffered 411: still a refusal
            else:
                assert response.status == 411
        finally:
            conn.close()

    def test_oversized_body_is_413_before_buffering(self, server):
        """A huge declared Content-Length is refused up front — the
        server must not buffer gigabytes before routing."""
        import http.client

        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            conn.putrequest("POST", "/scenario")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(8_000_000_000))
            conn.endheaders()
            # no body sent: the 413 must arrive without reading it
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()

    def test_engine_failure_is_500(self, server, client, monkeypatch):
        def boom(self, *args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(Scenario, "build_cluster", boom)
        with pytest.raises(ServiceError) as excinfo:
            client.post_scenario({"workload": "fft", "scale": SCALE})
        assert excinfo.value.status == 500
        assert "engine exploded" in str(excinfo.value)
        # and the failure is not cached
        assert client.stats()["store"]["records"] == 0


@pytest.fixture(params=["local", "remote"])
def consumer(request):
    """``(queue, make_worker)``: a SweepWorker over an in-process
    WorkQueue, or over HTTP to a server with no local compute.  One
    attempt per cell, so a failing cell fails at once."""
    from repro.service import SweepWorker, WorkQueue
    from repro.store import MemoryStore

    if request.param == "local":
        queue = WorkQueue(MemoryStore(), max_attempts=1)
        yield queue, lambda **kwargs: SweepWorker(queue, **kwargs)
        queue.shutdown()
        return
    with ScenarioServer(
        MemoryStore(), port=0, local_compute=False, max_attempts=1
    ) as srv:
        srv.start()
        yield srv.queue, lambda **kwargs: SweepWorker(srv.url, **kwargs)


class TestBatchIsolation:
    def test_failing_cell_does_not_poison_co_batched_requests(
        self, consumer, monkeypatch
    ):
        """A cell whose simulation raises fails alone; its co-batched
        cells still compute and persist."""
        queue, make_worker = consumer
        original = session.run_scenario

        def flaky_run(scenario, *args, **kwargs):
            if scenario.seed == 666:
                raise RuntimeError("engine exploded")
            return original(scenario, *args, **kwargs)

        monkeypatch.setattr(session, "run_scenario", flaky_run)
        good = Scenario(workload="fft", scale=SCALE)
        bad = Scenario(workload="fft", scale=SCALE, seed=666)
        first = Scenario(workload="volrend", scale=SCALE)
        futures = [queue.submit_scenario(s) for s in (first, good, bad)]
        with make_worker(lease_n=3) as worker:
            assert worker.step() == 3  # one batch: its run_sweep raises
        assert futures[0].result(timeout=120) == original(first)
        assert futures[1].result(timeout=120) == original(good)
        with pytest.raises(RuntimeError, match="engine exploded"):
            futures[2].result(timeout=120)
        assert (worker.batches, worker.completed, worker.failed) == (1, 2, 1)
        assert queue.store.load(good) is not None  # the survivor persisted
        assert queue.store.load(bad) is None       # the failure was not cached

    def test_negative_jobs_resolve_to_cpu_count(self):
        import os

        from repro.service import SweepWorker, WorkQueue
        from repro.store import MemoryStore

        with SweepWorker(WorkQueue(MemoryStore()), jobs=-1) as worker:
            assert worker.jobs == (os.cpu_count() or 1)

    def test_broken_worker_pool_is_rebuilt(self, consumer, monkeypatch):
        """A crashed pool process poisons the whole ProcessPoolExecutor;
        the worker must rebuild it instead of silently degrading every
        later batch to the fallback, and the batch's cells still land."""
        from concurrent.futures.process import BrokenProcessPool

        queue, make_worker = consumer
        real_run_sweep = session.run_sweep
        calls = []

        def flaky_run_sweep(scenarios, jobs=None, store=None, pool=None):
            calls.append(pool)
            if len(calls) == 1:
                raise BrokenProcessPool("a worker died")
            return real_run_sweep(scenarios, store=store)

        monkeypatch.setattr(session, "run_sweep", flaky_run_sweep)
        scenarios = [
            Scenario(workload="volrend", scale=SCALE, seed=seed)
            for seed in (1, 2)
        ]
        futures = [queue.submit_scenario(s) for s in scenarios]
        with make_worker(jobs=2, lease_n=2) as worker:
            broken_pool = worker._pool
            assert broken_pool is not None and calls == []
            assert worker.step() == 2
            assert worker._pool is not None
            assert worker._pool is not broken_pool
        for scenario, future in zip(scenarios, futures):
            assert future.result(timeout=120) == run_scenario(scenario)
        assert (worker.completed, worker.failed) == (2, 0)


class TestKeepAlive:
    def test_unknown_post_route_keeps_the_connection_usable(self, server):
        """A 404'd POST must still drain its body, or the unread bytes
        corrupt the next request on the keep-alive connection."""
        import http.client

        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/scenari0",
                body=json.dumps({"workload": "fft"}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            conn.request("GET", "/healthz")  # same socket
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()

    def test_client_timeout_is_a_service_error(
        self, server, client, monkeypatch
    ):
        """A response that outlives the client timeout must surface as
        ServiceError (status None), not a bare socket TimeoutError."""
        def slow_run(scenario, *args, **kwargs):
            time.sleep(2.0)
            raise AssertionError("unreachable in this test")

        monkeypatch.setattr(session, "run_scenario", slow_run)
        impatient = ServiceClient(server.url, timeout=0.3)
        with pytest.raises(ServiceError) as excinfo:
            impatient.post_scenario({"workload": "fft", "scale": SCALE})
        assert excinfo.value.status is None


class TestServerLifecycle:
    def test_context_manager_releases_port(self, tmp_path):
        with ScenarioServer(str(tmp_path / "s.sqlite"), port=0) as srv:
            srv.start()
            port = srv.port
        # the socket is closed; a new server can bind the same port
        with ScenarioServer(
            str(tmp_path / "s.sqlite"), port=port
        ) as again:
            again.start()
            assert ServiceClient(again.url).healthz()["status"] == "ok"

    def test_close_without_start_does_not_deadlock(self, tmp_path):
        """Regression: BaseServer.shutdown() waits on an event only
        serve_forever() sets — closing a never-started server used to
        hang forever."""
        def open_and_close():
            with ScenarioServer(str(tmp_path / "never.sqlite"), port=0):
                pass  # never started

        worker = threading.Thread(target=open_and_close, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "close() deadlocked without start()"

    def test_import_repro_does_not_load_the_service_stack(self):
        """The service exports are lazy: spawned sweep workers and
        non-serve CLI paths re-import repro and must not pay for
        http.server/urllib; `from repro import ServiceClient` still
        works on demand."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        code = (
            "import repro, sys;"
            "assert 'repro.service' not in sys.modules, 'eagerly imported';"
            "from repro import ScenarioServer, ServiceClient;"
            "assert 'repro.service' in sys.modules;"
            "print('lazy ok')"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "lazy ok"

    def test_bind_failure_releases_executor_and_store(self, tmp_path):
        """A failed port bind must not leak the already-started batch
        thread (callers retrying ports would pile them up)."""
        def executor_threads() -> int:
            return sum(
                t.name == "repro-service-executor"
                for t in threading.enumerate()
            )

        with ScenarioServer(str(tmp_path / "a.sqlite"), port=0) as srv:
            srv.start()
            before = executor_threads()
            with pytest.raises(OSError):
                ScenarioServer(str(tmp_path / "b.sqlite"), port=srv.port)
            deadline = time.time() + 5
            while executor_threads() > before and time.time() < deadline:
                time.sleep(0.05)
            assert executor_threads() == before

    def test_jobs_pool_matches_serial_execution(self, tmp_path):
        """jobs=N routes misses through the executor's long-lived
        worker pool; results stay bit-identical to local runs."""
        with ScenarioServer(
            str(tmp_path / "jobs.sqlite"), port=0, jobs=2
        ) as srv:
            srv.start()
            client = ServiceClient(srv.url, timeout=300.0)
            seeds = (1, 2)
            responses = [
                client.post_scenario(
                    {"workload": "fft", "scale": SCALE, "seed": seed}
                )
                for seed in seeds
            ]
            for seed, response in zip(seeds, responses):
                local = run_scenario(
                    Scenario(workload="fft", scale=SCALE, seed=seed)
                )
                assert response["result"] == local.to_dict()

    def test_single_writer_discipline(self, server, client, monkeypatch):
        """Every store write happens on the executor's batch thread —
        handler threads are pure readers."""
        writer_threads = set()
        original_put = server.store._put

        def tracking_put(*args, **kwargs):
            writer_threads.add(threading.current_thread().name)
            return original_put(*args, **kwargs)

        monkeypatch.setattr(server.store, "_put", tracking_put)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(
                client.post_scenario,
                [{"workload": "fft", "scale": SCALE, "seed": s}
                 for s in range(4)],
            ))
        assert writer_threads == {"repro-service-executor"}
