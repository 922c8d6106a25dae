"""Eviction-policy tests: caps, TTL, LRU order, pins, races."""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.scenario import canonical_json
from repro.store import EvictionPolicy, MemoryStore, SqliteStore


class FakeClock:
    """Deterministic time source: TTL tests never sleep."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float = 1.0) -> float:
        self.now += seconds
        return self.now


def _fingerprint(i: int) -> str:
    """Distinct hex fingerprints (payloads are content-addressed by
    the caller; tests may key one payload under many fingerprints)."""
    return f"{i:08x}" + "0" * 56


def _make_store(kind, tmp_path, policy):
    if kind == "memory":
        return MemoryStore(policy=policy)
    return SqliteStore(tmp_path / "store.sqlite", policy=policy)


@pytest.fixture(params=["memory", "sqlite"])
def backend(request):
    return request.param


class TestPolicyValidation:
    def test_needs_at_least_one_cap(self):
        with pytest.raises(ConfigurationError):
            EvictionPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"max_records": 0}, {"max_mb": 0.0}, {"max_mb": -1}, {"ttl_s": 0.0},
    ])
    def test_rejects_non_positive_caps(self, kwargs):
        with pytest.raises(ConfigurationError):
            EvictionPolicy(**kwargs)

    def test_split_divides_size_caps_keeps_ttl(self):
        policy = EvictionPolicy(max_records=100, max_mb=8.0, ttl_s=60.0)
        share = policy.split(4)
        assert share.max_records == 25
        assert share.max_mb == 2.0
        assert share.ttl_s == 60.0
        assert policy.split(1) is policy

    def test_split_never_goes_below_one_record(self):
        assert EvictionPolicy(max_records=2).split(8).max_records == 1

    def test_describe(self):
        text = EvictionPolicy(max_records=5, ttl_s=30.0).describe()
        assert "max_records=5" in text and "ttl_s=30" in text


class TestRecordCap:
    def test_cap_bounds_record_count(self, backend, tmp_path, volrend_result):
        clock = FakeClock()
        store = _make_store(
            backend, tmp_path, EvictionPolicy(max_records=3, clock=clock)
        )
        payload = volrend_result.to_dict()
        for i in range(6):
            clock.tick()
            store.put(_fingerprint(i), payload,
                      scenario=volrend_result.scenario)
        assert len(store) == 3
        assert store.counters()["evictions"] == 3
        # LRU: the three newest survive.
        for i in range(3):
            assert _fingerprint(i) not in store
        for i in range(3, 6):
            assert _fingerprint(i) in store
        store.close()

    def test_access_refreshes_lru_order(self, backend, tmp_path,
                                        volrend_result):
        clock = FakeClock()
        store = _make_store(
            backend, tmp_path, EvictionPolicy(max_records=3, clock=clock)
        )
        payload = volrend_result.to_dict()
        for i in range(3):
            clock.tick()
            store.put(_fingerprint(i), payload,
                      scenario=volrend_result.scenario)
        clock.tick()
        assert store.get(_fingerprint(0)) is not None  # refresh the oldest
        clock.tick()
        store.put(_fingerprint(3), payload, scenario=volrend_result.scenario)
        assert _fingerprint(0) in store      # refreshed: survived
        assert _fingerprint(1) not in store  # became the LRU victim
        store.close()


class TestByteCap:
    def test_cap_bounds_live_bytes(self, backend, tmp_path, volrend_result):
        payload = volrend_result.to_dict()
        record_bytes = len(canonical_json(payload))
        clock = FakeClock()
        policy = EvictionPolicy(
            max_mb=2.5 * record_bytes / (1024 * 1024), clock=clock
        )
        store = _make_store(backend, tmp_path, policy)
        for i in range(6):
            clock.tick()
            store.put(_fingerprint(i), payload,
                      scenario=volrend_result.scenario)
        assert store.bytes_used() is not None
        assert store.bytes_used() <= policy.max_bytes
        assert 1 <= len(store) <= 2
        assert store.counters()["evictions"] >= 4
        store.close()


class TestTTL:
    def test_stale_records_age_out(self, backend, tmp_path, volrend_result):
        clock = FakeClock()
        store = _make_store(
            backend, tmp_path, EvictionPolicy(ttl_s=10.0, clock=clock)
        )
        payload = volrend_result.to_dict()
        store.put(_fingerprint(0), payload, scenario=volrend_result.scenario)
        clock.tick(20.0)  # fingerprint 0 is now past its TTL
        store.put(_fingerprint(1), payload, scenario=volrend_result.scenario)
        assert _fingerprint(0) not in store
        assert _fingerprint(1) in store
        assert store.counters()["evictions"] == 1
        store.close()

    def test_access_resets_ttl(self, backend, tmp_path, volrend_result):
        clock = FakeClock()
        store = _make_store(
            backend, tmp_path, EvictionPolicy(ttl_s=10.0, clock=clock)
        )
        payload = volrend_result.to_dict()
        store.put(_fingerprint(0), payload, scenario=volrend_result.scenario)
        clock.tick(8.0)
        assert store.get(_fingerprint(0)) is not None  # fresh again
        clock.tick(8.0)  # 16s since put, 8s since access
        store.put(_fingerprint(1), payload, scenario=volrend_result.scenario)
        assert _fingerprint(0) in store
        store.close()


class TestPins:
    def test_pinned_records_survive_pressure(self, backend, tmp_path,
                                             volrend_result):
        clock = FakeClock()
        store = _make_store(
            backend, tmp_path, EvictionPolicy(max_records=2, clock=clock)
        )
        payload = volrend_result.to_dict()
        store.pin(_fingerprint(0))
        for i in range(5):
            clock.tick()
            store.put(_fingerprint(i), payload,
                      scenario=volrend_result.scenario)
        assert _fingerprint(0) in store
        assert len(store) == 2
        store.close()

    def test_unpin_restores_evictability(self, backend, tmp_path,
                                         volrend_result):
        clock = FakeClock()
        store = _make_store(
            backend, tmp_path, EvictionPolicy(max_records=1, clock=clock)
        )
        payload = volrend_result.to_dict()
        store.pin(_fingerprint(0))
        store.put(_fingerprint(0), payload, scenario=volrend_result.scenario)
        store.unpin(_fingerprint(0))
        clock.tick()
        store.put(_fingerprint(1), payload, scenario=volrend_result.scenario)
        assert _fingerprint(0) not in store
        assert _fingerprint(1) in store
        store.close()

    def test_pins_are_refcounted(self, backend, tmp_path, volrend_result):
        clock = FakeClock()
        store = _make_store(
            backend, tmp_path, EvictionPolicy(max_records=1, clock=clock)
        )
        payload = volrend_result.to_dict()
        store.pin(_fingerprint(0))
        store.pin(_fingerprint(0))
        store.unpin(_fingerprint(0))  # one reference remains
        store.put(_fingerprint(0), payload, scenario=volrend_result.scenario)
        clock.tick()
        store.put(_fingerprint(1), payload, scenario=volrend_result.scenario)
        assert _fingerprint(0) in store
        store.close()


class TestEvictionRaces:
    def test_refresh_after_cutoff_vetoes_eviction(self, backend, tmp_path,
                                                  volrend_result):
        """The eviction-vs-put race: a record touched after the
        enforcement pass snapshotted its cutoff must not be evicted."""
        clock = FakeClock()
        store = _make_store(
            backend, tmp_path, EvictionPolicy(max_records=8, clock=clock)
        )
        payload = volrend_result.to_dict()
        store.put(_fingerprint(0), payload, scenario=volrend_result.scenario)
        cutoff = clock()
        clock.tick()
        store.get(_fingerprint(0))  # concurrent access lands post-cutoff
        assert store._evict_one(_fingerprint(0), cutoff) is False
        assert _fingerprint(0) in store
        assert store.counters()["evictions"] == 0
        store.close()

    def test_concurrent_puts_respect_cap(self, backend, tmp_path,
                                         volrend_result):
        """Soak: writers racing eviction never corrupt the index or
        leave the store over its cap."""
        store = _make_store(
            backend, tmp_path, EvictionPolicy(max_records=8)
        )
        payload = volrend_result.to_dict()
        errors = []

        def writer(base: int) -> None:
            try:
                for i in range(25):
                    fp = _fingerprint(base * 1000 + i)
                    store.put(fp, payload, scenario=volrend_result.scenario)
                    store.get(fp)
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(store) <= 8
        assert len(store) == len(store.fingerprints())
        assert store.counters()["evictions"] >= 100 - 8
        store.close()


class TestBackendPersistence:
    def test_sqlite_persists_access_stamps(self, tmp_path, volrend_result):
        clock = FakeClock()
        policy = EvictionPolicy(max_records=10, clock=clock)
        store = SqliteStore(tmp_path / "s.sqlite", policy=policy)
        payload = volrend_result.to_dict()
        store.put(_fingerprint(0), payload, scenario=volrend_result.scenario)
        clock.tick(5.0)
        store.put(_fingerprint(1), payload, scenario=volrend_result.scenario)
        clock.tick(5.0)
        store.get(_fingerprint(0))  # now the most recently used
        store.close()

        reopened = SqliteStore(tmp_path / "s.sqlite", policy=policy)
        assert reopened._access[_fingerprint(0)] \
            > reopened._access[_fingerprint(1)]
        reopened.close()

    def test_sqlite_migrates_unpoliced_store(self, tmp_path, volrend_result):
        plain = SqliteStore(tmp_path / "s.sqlite")
        fingerprint = plain.save(volrend_result)
        plain.close()
        store = SqliteStore(
            tmp_path / "s.sqlite", policy=EvictionPolicy(max_records=10)
        )
        assert fingerprint in store
        assert fingerprint in store._access  # seeded, not mass-evicted
        store.close()

    def test_memory_store_tracks_bytes(self, volrend_result):
        store = MemoryStore(policy=EvictionPolicy(max_records=10))
        payload = volrend_result.to_dict()
        store.put(_fingerprint(0), payload, scenario=volrend_result.scenario)
        assert store.bytes_used() == len(canonical_json(payload))
        store.delete(_fingerprint(0))
        assert store.bytes_used() == 0
        store.close()
