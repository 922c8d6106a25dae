"""Pre-fork frontend tests: K worker processes behind one port.

The workers are real spawned processes, so these tests cover the whole
stack — SO_REUSEPORT binding, the startup handshake, cross-worker
forwarding to shard owners, the proc-0 queue proxy, and shutdown.  One
module-scoped group amortizes the spawn cost across the tests.
"""

import socket

import pytest

from repro.errors import ConfigurationError
from repro.scenario import Scenario, canonical_json, scenario_fingerprint
from repro.service import PreforkServer, ScenarioServer, ServiceClient
from repro.sim.session import run_scenario
from repro.store import MemoryStore, open_store, shard_index

SCALE = 0.02

# Seeds 5/6/8/11 route to four distinct shards of a 4-way store (see
# test_sharded_serving.SPECS) — forwarding is guaranteed to happen.
GRID = [Scenario(workload="fft", scale=SCALE, seed=seed)
        for seed in (5, 6, 8, 11)]


@pytest.fixture(scope="module")
def group(tmp_path_factory):
    root = tmp_path_factory.mktemp("prefork") / "store"
    with PreforkServer(str(root), procs=2, shards=4, jobs=2) as grp:
        yield grp


@pytest.fixture(scope="module")
def client(group):
    with ServiceClient(group.url, timeout=120.0) as cli:
        yield cli


class TestValidation:
    def test_rejects_zero_procs(self, tmp_path):
        with pytest.raises(ConfigurationError):
            PreforkServer(str(tmp_path / "s"), procs=0)

    def test_rejects_live_store_objects(self):
        with pytest.raises(ConfigurationError):
            PreforkServer(MemoryStore(), procs=2)


class TestPreforkServing:
    def test_all_workers_come_up(self, group):
        assert group.alive() == 2
        assert len(group.internal_ports) == 2
        assert group.url.startswith("http://127.0.0.1:")

    def test_cold_warm_and_bit_identity(self, group, client):
        cold = client.run_sweep(GRID, jobs=4)
        warm = client.run_sweep(GRID, jobs=4)
        for scenario, first, again in zip(GRID, cold, warm):
            reference = run_scenario(scenario)
            # Whatever worker answered — owner or forwarder — the
            # result is the one deterministic replay of the scenario.
            assert canonical_json(first.to_dict()) \
                == canonical_json(reference.to_dict())
            assert canonical_json(again.to_dict()) \
                == canonical_json(reference.to_dict())

    def test_queue_traffic_reaches_the_coordinator(self, group, client):
        """/queue hits any worker; non-owners proxy to proc 0, so the
        distributed sweep API behaves as if there were one server."""
        job = client.submit_sweep(
            [Scenario(workload="fft", scale=SCALE, seed=99)]
        )
        done = client.wait(job["job"], timeout=120.0)
        assert done["done"] == done["total"] == 1
        (result,) = client.sweep_results(job["fingerprints"])
        assert result.scenario.seed == 99

    def test_stats_report_shards_and_procs(self, group, client):
        stats = client.stats()
        assert stats["procs"] == 2
        assert stats["proc_index"] in (0, 1)
        assert len(stats["store"]["shards"]) == 4
        assert stats["forwarded"] >= 0


def test_group_shuts_down_cleanly(tmp_path):
    group = PreforkServer(str(tmp_path / "store"), procs=2, shards=2,
                          jobs=None)
    try:
        with ServiceClient(group.url, timeout=60.0) as cli:
            assert cli.healthz()["status"] == "ok"
    finally:
        group.close()
    assert group.alive() == 0


def _closed_port_url() -> str:
    """A local URL nothing listens on (bound, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestOwnerFailover:
    def test_unreachable_owner_is_served_and_written_here(self, tmp_path):
        """When the owning peer cannot be reached, the serving worker
        computes the cell and writes the owner's shard itself: the
        answer is the engine's, nothing counts as forwarded, and a
        second open of the directory (the owner's own view) loads the
        record."""
        scenario = next(
            cell for cell in (
                Scenario(workload="fft", scale=SCALE, seed=seed)
                for seed in range(100)
            )
            if shard_index(scenario_fingerprint(cell), 2) == 0
        )
        reference = canonical_json(run_scenario(scenario).to_dict())
        root = tmp_path / "store"
        with ScenarioServer(str(root), shards=2) as server:
            server.set_peers([_closed_port_url(), server.url], proc_index=1)
            assert server.owner_of(scenario_fingerprint(scenario)) == 0
            server.start()
            with ServiceClient(server.url, timeout=120.0) as client:
                answer = client.post_scenario(
                    {"scenario": scenario.to_dict()}
                )
            assert answer["cached"] is False
            assert canonical_json(answer["result"]) == reference
            assert server.forwarded == 0
            with open_store(root) as owner:
                loaded = owner.load(scenario)
            assert loaded is not None
            assert canonical_json(loaded.to_dict()) == reference
