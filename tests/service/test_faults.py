"""Fault-injection harness + client retry-policy tests.

Three layers:

* :class:`FaultPlan`/:class:`FaultRule` unit tests pin the harness
  itself — budgeted rules fire exactly N times (even under threads),
  ``after``/``when`` aim faults, seeded probability is reproducible;
* :class:`RetryPolicy` tests pin the backoff shape (exponential,
  capped, full-jitter bounds);
* client transport tests drive a real server through injected 500s,
  dropped requests and dropped responses, asserting retries recover,
  budgets terminate, 4xx never retries, and the non-idempotent
  ``complete`` re-resolves instead of re-sending.
"""

import random
import threading

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.faults import (
    CLIENT_REQUEST,
    STORE_WRITE,
    WORKER_COMPUTE,
    FaultClock,
    FaultPlan,
    FaultRule,
)
from repro.scenario import Scenario
from repro.service import RetryPolicy, ScenarioServer, ServiceClient
from repro.sim.session import run_scenario, run_sweep

SCALE = 0.02


def _scenario(seed: int = 2016, **kwargs) -> Scenario:
    return Scenario(workload="fft", scale=SCALE, seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# The harness itself
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_budgeted_rule_fires_exactly_n_times(self):
        plan = FaultPlan([FaultRule(CLIENT_REQUEST, "http-500", times=3)])
        firings = [plan.fire(CLIENT_REQUEST) for _ in range(10)]
        assert sum(1 for rule in firings if rule is not None) == 3
        assert firings[3:] == [None] * 7  # budget spent, in order
        assert plan.fired(CLIENT_REQUEST, "http-500") == 3
        assert plan.exhausted()

    def test_budget_holds_under_concurrent_callers(self):
        """times=N is a hard cap regardless of thread interleaving —
        the property every chaos assertion rests on."""
        plan = FaultPlan([FaultRule(STORE_WRITE, "sqlite-locked", times=5)])
        hits = []

        def hammer():
            for _ in range(50):
                if plan.fire(STORE_WRITE) is not None:
                    hits.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(hits) == 5 and plan.fired() == 5

    def test_after_skips_the_first_events(self):
        plan = FaultPlan(
            [FaultRule(WORKER_COMPUTE, "crash", times=1, after=2)]
        )
        outcomes = [plan.fire(WORKER_COMPUTE) for _ in range(5)]
        assert [rule is not None for rule in outcomes] == \
            [False, False, True, False, False]

    def test_when_predicate_aims_by_context(self):
        plan = FaultPlan([
            FaultRule(
                CLIENT_REQUEST, "drop-response", times=2,
                when=lambda ctx: ctx.get("path") == "/queue/complete",
            ),
        ])
        assert plan.fire(CLIENT_REQUEST, path="/healthz") is None
        assert plan.fire(CLIENT_REQUEST, path="/queue/complete") is not None
        # every firing is logged with its context for post-mortems
        assert plan.log == [
            (CLIENT_REQUEST, "drop-response", {"path": "/queue/complete"}),
        ]

    def test_probability_is_seeded_and_reproducible(self):
        def schedule(seed):
            plan = FaultPlan(
                [FaultRule(CLIENT_REQUEST, "http-500", p=0.5)], seed=seed
            )
            return [plan.fire(CLIENT_REQUEST) is not None
                    for _ in range(64)]

        assert schedule(42) == schedule(42)
        assert 0 < sum(schedule(42)) < 64  # actually probabilistic

    def test_first_matching_rule_wins_then_falls_through(self):
        plan = FaultPlan([
            FaultRule(CLIENT_REQUEST, "drop-request", times=1),
            FaultRule(CLIENT_REQUEST, "http-500", times=1),
        ])
        assert plan.fire(CLIENT_REQUEST).kind == "drop-request"
        assert plan.fire(CLIENT_REQUEST).kind == "http-500"
        assert plan.fire(CLIENT_REQUEST) is None

    def test_unknown_kind_for_site_is_rejected(self):
        with pytest.raises(ConfigurationError, match="no fault kind"):
            FaultRule(CLIENT_REQUEST, "meteor-strike")
        with pytest.raises(ConfigurationError, match="p must be"):
            FaultRule(CLIENT_REQUEST, "http-500", p=1.5)

    @pytest.mark.parametrize("kind", ["torn-write", "io-error"])
    def test_store_write_faults_only_as_sqlite_locked(self, kind):
        """Every durable store is SQLite, so a store write fails only
        the way SQLite does: the JSON-lines kinds are unknown."""
        with pytest.raises(ConfigurationError, match="sqlite-locked"):
            FaultRule(STORE_WRITE, kind)
        assert FaultRule(STORE_WRITE, "sqlite-locked").kind == "sqlite-locked"

    def test_fault_clock_jumps_forward_only(self):
        base = [100.0]
        clock = FaultClock(base=lambda: base[0])
        assert clock() == 100.0
        clock.jump(30.0)
        assert clock() == 130.0
        with pytest.raises(ConfigurationError):
            clock.jump(-1.0)


# ---------------------------------------------------------------------------
# The retry policy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            attempts=6, base_s=0.1, cap_s=1.0, multiplier=2.0, jitter=0.0
        )
        assert [policy.backoff_s(k) for k in range(1, 6)] == \
            pytest.approx([0.1, 0.2, 0.4, 0.8, 1.0])

    def test_full_jitter_stays_within_bounds(self):
        policy = RetryPolicy(
            base_s=0.1, cap_s=2.0, jitter=1.0, rng=random.Random(7)
        )
        for k in range(1, 5):
            ceiling = min(2.0, 0.1 * 2.0 ** (k - 1))
            for _ in range(32):
                assert 0.0 <= policy.backoff_s(k) <= ceiling

    def test_invalid_policies_are_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)


# ---------------------------------------------------------------------------
# Client transport retries, against a real server
# ---------------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    with ScenarioServer(str(tmp_path / "srv.sqlite"), port=0) as srv:
        srv.start()
        yield srv


@pytest.fixture()
def coordinator(tmp_path):
    """No local compute: the queue only moves when a client drives it."""
    with ScenarioServer(
        str(tmp_path / "coord.sqlite"), port=0,
        local_compute=False, lease_seconds=30.0,
    ) as srv:
        srv.start()
        yield srv


def _client(url, faults=None, attempts=4, sleeps=None):
    """A fast deterministic client: recorded (not slept) backoff."""
    recorded = sleeps if sleeps is not None else []
    return ServiceClient(
        url,
        timeout=60.0,
        retry=RetryPolicy(
            attempts=attempts, base_s=0.01,
            sleep=recorded.append, rng=random.Random(0),
        ),
        faults=faults,
    )


class TestClientRetries:
    def test_injected_500s_are_retried_to_success(self, server):
        faults = FaultPlan([FaultRule(CLIENT_REQUEST, "http-500", times=2)])
        sleeps = []
        client = _client(server.url, faults=faults, sleeps=sleeps)
        assert client.healthz()["status"] == "ok"
        assert len(sleeps) == 2  # one backoff pause per failed attempt
        assert faults.fired(CLIENT_REQUEST, "http-500") == 2

    def test_dropped_requests_and_responses_are_retried(self, server):
        faults = FaultPlan([
            FaultRule(CLIENT_REQUEST, "drop-request", times=1),
            FaultRule(CLIENT_REQUEST, "drop-response", times=1),
        ])
        sleeps = []
        client = _client(server.url, faults=faults, sleeps=sleeps)
        assert client.healthz()["status"] == "ok"
        assert len(sleeps) == 2 and faults.exhausted()

    def test_spent_retry_budget_is_a_terminal_error(self, server):
        faults = FaultPlan([FaultRule(CLIENT_REQUEST, "http-500")])
        client = _client(server.url, faults=faults, attempts=2)
        with pytest.raises(
            ServiceError, match="still failing after 2 attempt"
        ) as excinfo:
            client.healthz()
        assert excinfo.value.status == 500

    def test_4xx_is_never_retried(self, server):
        sleeps = []
        client = _client(server.url, sleeps=sleeps)
        with pytest.raises(ServiceError) as excinfo:
            client.result("0" * 64)
        assert excinfo.value.status == 404
        assert sleeps == []  # a wrong request will be wrong again

    def test_delay_fault_slows_but_does_not_fail(self, server):
        faults = FaultPlan([
            FaultRule(CLIENT_REQUEST, "delay", times=1, delay_s=0.01),
        ])
        sleeps = []
        client = _client(server.url, faults=faults, sleeps=sleeps)
        assert client.healthz()["status"] == "ok"
        assert sleeps == [] and faults.fired() == 1

    def test_completion_retry_reresolves_instead_of_resending(
        self, coordinator
    ):
        """The non-idempotent call: the server lands the batch but the
        ack is dropped.  The retry must discover the results landed
        (GET /results) and report already-done — not re-ship payloads,
        not double-count."""
        scenario = _scenario(seed=301)
        submitter = ServiceClient(coordinator.url, timeout=60.0)
        job = submitter.submit_sweep([scenario])

        faults = FaultPlan([
            FaultRule(
                CLIENT_REQUEST, "drop-response", times=1,
                when=lambda ctx: ctx.get("path") == "/queue/complete",
            ),
        ])
        sleeps = []
        worker = _client(coordinator.url, faults=faults, sleeps=sleeps)
        [lease] = worker.lease(n=1, worker="w-fault")
        result = run_scenario(scenario)
        ack = worker.complete([{
            "fingerprint": lease["fingerprint"],
            "lease": lease["lease"],
            "payload": result.to_dict(),
        }])
        assert ack["statuses"] == ["already-done"]
        assert len(sleeps) == 1 and faults.exhausted()
        assert len(coordinator.store) == 1
        stats = coordinator.queue.stats()
        assert stats["completed"] == 1 and stats["rejected"] == 0
        assert submitter.job_status(job["job"])["done"] == 1

    def test_wait_polls_with_jittered_exponential_backoff(self, monkeypatch):
        sleeps = []
        client = ServiceClient(
            "http://127.0.0.1:1",
            retry=RetryPolicy(sleep=sleeps.append, rng=random.Random(3)),
        )
        polls = iter(
            [{"finished": False, "pending": 1, "leased": 0}] * 6
            + [{"finished": True, "failed": 0}]
        )
        monkeypatch.setattr(
            client, "job_status", lambda job_id: next(polls)
        )
        status = client.wait("job-000001", poll_s=0.1, max_poll_s=0.8)
        assert status["finished"]
        assert len(sleeps) == 6
        # jitter draws from [interval/2, interval]; intervals grow 1.6x
        # from poll_s up to the cap and never past it
        assert all(0.05 <= pause <= 0.8 for pause in sleeps)
        assert sleeps[-1] > sleeps[0]

    def test_wait_raises_on_failed_cells(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1")
        monkeypatch.setattr(
            client, "job_status",
            lambda job_id: {
                "finished": True, "failed": 2,
                "errors": ["abc: engine exploded"],
            },
        )
        with pytest.raises(ServiceError, match="2 failed cell"):
            client.wait("job-000001")


class TestLocalFallback:
    def test_unreachable_server_degrades_to_local_compute(self):
        scenarios = [_scenario(seed=311), _scenario(seed=312)]
        client = _client("http://127.0.0.1:9", attempts=2)
        assert client.run_sweep(scenarios, fallback="local") == \
            run_sweep(scenarios)

    def test_without_fallback_the_error_surfaces(self):
        client = _client("http://127.0.0.1:9", attempts=2)
        with pytest.raises(ServiceError, match="still failing"):
            client.run_sweep([_scenario(seed=313)])

    def test_partial_fallback_reinserts_cells_in_order(self, server):
        """One cell's budget dies on injected 500s, its neighbours are
        served remotely; the merged list is still bit-identical."""
        scenarios = [_scenario(seed=321), _scenario(seed=322)]
        faults = FaultPlan([FaultRule(CLIENT_REQUEST, "http-500", times=1)])
        client = _client(server.url, faults=faults, attempts=1)
        results = client.run_sweep(scenarios, fallback="local")
        assert results == run_sweep(scenarios)
        # exactly one cell fell back: the server computed the other
        assert len(server.store) == 1

    def test_unknown_fallback_mode_is_rejected(self):
        client = _client("http://127.0.0.1:9")
        with pytest.raises(ConfigurationError, match="fallback"):
            client.run_sweep([_scenario(seed=314)], fallback="remote")
