"""ShardedStore tests: routing, manifest, fan-out reads, per-shard caps."""

import pytest

from repro.errors import ConfigurationError
from repro.scenario import Scenario, scenario_fingerprint
from repro.store import (
    EvictionPolicy,
    MemoryStore,
    ShardedStore,
    SqliteStore,
    open_store,
    shard_index,
)

SHARDS = 4


def _fingerprint(i: int, prefix: str = "") -> str:
    body = f"{i:08x}"
    return (prefix + body + "0" * 64)[:64]


@pytest.fixture
def sharded(tmp_path):
    store = ShardedStore.open(tmp_path / "sharded", shards=SHARDS)
    yield store
    store.close()


class TestRouting:
    def test_shard_index_is_stable_and_bounded(self):
        fps = [_fingerprint(i) for i in range(64)]
        routed = [shard_index(fp, SHARDS) for fp in fps]
        assert all(0 <= index < SHARDS for index in routed)
        assert routed == [shard_index(fp, SHARDS) for fp in fps]
        assert len(set(routed)) > 1  # actually spreads

    def test_single_shard_routes_everything_to_zero(self):
        assert shard_index(_fingerprint(7), 1) == 0

    def test_records_land_on_their_routed_shard(self, sharded,
                                                volrend_result):
        payload = volrend_result.to_dict()
        fps = [_fingerprint(i) for i in range(16)]
        for fp in fps:
            sharded.put(fp, payload, scenario=volrend_result.scenario)
        for fp in fps:
            index = sharded.shard_of(fp)
            assert fp in sharded.shards[index]
            for other, backend in enumerate(sharded.shards):
                if other != index:
                    assert fp not in backend
        assert len(sharded) == len(fps)
        assert sorted(sharded.fingerprints()) == sorted(fps)


class TestManifest:
    def test_first_open_requires_shard_count(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedStore.open(tmp_path / "nothing")

    def test_reopen_infers_count_and_rejects_mismatch(self, tmp_path,
                                                      volrend_result):
        root = tmp_path / "sharded"
        store = ShardedStore.open(root, shards=SHARDS)
        fingerprint = store.save(volrend_result)
        store.close()

        reopened = ShardedStore.open(root)  # count comes from shards.json
        assert len(reopened.shards) == SHARDS
        assert fingerprint in reopened
        assert reopened.load(volrend_result.scenario) == volrend_result
        reopened.close()

        with pytest.raises(ConfigurationError):
            ShardedStore.open(root, shards=SHARDS + 1)

    def test_open_store_dispatches_sharded_dirs(self, tmp_path,
                                                volrend_result):
        root = tmp_path / "sharded"
        store = open_store(root, shards=SHARDS)
        assert isinstance(store, ShardedStore)
        fingerprint = store.save(volrend_result)
        store.close()
        # Auto-detected on reopen: no shards= needed once the manifest
        # exists.
        reopened = open_store(root)
        assert isinstance(reopened, ShardedStore)
        assert fingerprint in reopened
        reopened.close()

    def test_needs_at_least_one_shard(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedStore.open(tmp_path / "sharded", shards=0)
        with pytest.raises(ConfigurationError):
            ShardedStore([])


class TestFanOutReads:
    def test_round_trip_and_raw_read(self, sharded, volrend_result):
        fingerprint = sharded.save(volrend_result)
        assert sharded.load(volrend_result.scenario) == volrend_result
        raw = sharded.get_raw(fingerprint)
        assert raw is not None and raw.startswith("{")

    def test_get_many_merges_across_shards(self, sharded, volrend_result):
        payload = volrend_result.to_dict()
        fps = [_fingerprint(i) for i in range(12)]
        assert len({sharded.shard_of(fp) for fp in fps}) > 1
        for fp in fps:
            sharded.put(fp, payload, scenario=volrend_result.scenario)
        got = sharded.get_many(fps + [_fingerprint(999)])
        assert sorted(got) == sorted(fps)

    def test_resolve_prefix_detects_cross_shard_ambiguity(self, sharded,
                                                          volrend_result):
        payload = volrend_result.to_dict()
        # Same 2-char prefix, different shards: ambiguity that a
        # shard-local scan would miss (routing reads the first 8 hex
        # chars, so the fingerprints must diverge inside them).
        first = "aa000000" + "0" * 56
        second = "aa000001" + "0" * 56
        assert sharded.shard_of(first) != sharded.shard_of(second)
        sharded.put(first, payload, scenario=volrend_result.scenario)
        sharded.put(second, payload, scenario=volrend_result.scenario)

        with pytest.raises(ConfigurationError, match="ambiguous"):
            sharded.resolve_prefix("aa")
        # A prefix unique to one of them still resolves.
        assert sharded.resolve_prefix("aa000000") == first
        assert sharded.resolve_prefix("aa000001") == second
        with pytest.raises(ConfigurationError, match="no stored result"):
            sharded.resolve_prefix("bb")

    def test_missing_with_pending_cells_spanning_shards(self, sharded,
                                                        volrend_result):
        payload = volrend_result.to_dict()
        stored = [_fingerprint(i) for i in range(4)]
        pending = [_fingerprint(i) for i in range(4, 8)]
        cold = [_fingerprint(i) for i in range(8, 12)]
        touched = {sharded.shard_of(fp) for fp in stored + pending + cold}
        assert len(touched) > 1
        for fp in stored:
            sharded.put(fp, payload, scenario=volrend_result.scenario)

        asked = cold[:2] + stored + pending + cold[2:] + cold[:1]
        got = sharded.missing(asked, pending=set(pending))
        # Input order, stored and pending filtered, duplicates dropped.
        assert got == cold[:2] + cold[2:]

    def test_query_spans_shards(self, sharded, volrend_result, fft_result):
        sharded.save(volrend_result)
        sharded.save(fft_result)
        rows = sharded.query(workload="volrend")
        assert [row["workload"] for row in rows] == ["volrend"]
        assert len(sharded.query()) == 2


class TestShardedEviction:
    def test_policy_splits_across_shards(self, tmp_path):
        store = ShardedStore.open(
            tmp_path / "sharded", shards=SHARDS,
            policy=EvictionPolicy(max_records=SHARDS * 3),
        )
        try:
            for backend in store.shards:
                assert backend.policy.max_records == 3
        finally:
            store.close()

    def test_counters_and_stats_aggregate(self, tmp_path, volrend_result):
        store = ShardedStore.open(
            tmp_path / "sharded", shards=2,
            policy=EvictionPolicy(max_records=4),
        )
        try:
            payload = volrend_result.to_dict()
            fps = [_fingerprint(i) for i in range(12)]
            for fp in fps:
                store.put(fp, payload, scenario=volrend_result.scenario)
            for fp in fps[-2:]:
                store.get(fp)
            store.get(_fingerprint(500))

            assert len(store) <= 4
            counters = store.counters()
            assert counters["hits"] == 2
            assert counters["misses"] == 1
            assert counters["evictions"] >= 8

            rows = store.shard_stats()
            assert [row["shard"] for row in rows] == [0, 1]
            assert sum(row["records"] for row in rows) == len(store)
            assert sum(row["evictions"] for row in rows) \
                == counters["evictions"]
            assert all(row["bytes"] >= 0 for row in rows)
        finally:
            store.close()

    def test_pins_route_to_owning_shard(self, tmp_path, volrend_result):
        store = ShardedStore.open(
            tmp_path / "sharded", shards=2,
            policy=EvictionPolicy(max_records=2),
        )
        try:
            payload = volrend_result.to_dict()
            keep = _fingerprint(0)
            store.pin(keep)
            assert keep in store.pinned()
            for i in range(10):
                store.put(_fingerprint(i), payload,
                          scenario=volrend_result.scenario)
            assert keep in store
            store.unpin(keep)
            assert keep not in store.pinned()
        finally:
            store.close()


class TestHeterogeneousShards:
    def test_router_accepts_any_backends(self, tmp_path, volrend_result):
        backends = [MemoryStore(), SqliteStore(tmp_path / "shard1.sqlite")]
        store = ShardedStore(backends)
        try:
            fingerprint = store.save(volrend_result)
            assert fingerprint in backends[store.shard_of(fingerprint)]
            assert store.load(volrend_result.scenario) == volrend_result
        finally:
            store.close()

    def test_real_fingerprints_round_trip(self, sharded, volrend_result):
        scenario = Scenario(workload="volrend", scale=0.02)
        fingerprint = scenario_fingerprint(scenario)
        assert sharded.save(volrend_result) == fingerprint
        assert sharded.resolve_prefix(fingerprint[:12]) == fingerprint
