"""Unit tests of the metrics layer: instruments, registry, exposition.

The percentile math is hammered from 8 threads (the acceptance bar:
derived quantiles stay correct under concurrent observation), and the
increment cost is measured against the sub-microsecond budget the
module docstring promises — instruments are always on, so their cost
is a correctness property.
"""

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    CallbackInstrument,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)


class TestCounter:
    def test_monotonic(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ConfigurationError):
            counter.inc(-1)
        assert counter.value == 6

    def test_concurrent_increments_all_land(self):
        counter = Counter("c_total")
        threads, per_thread = 8, 10_000

        def spin(_i):
            for _ in range(per_thread):
                counter.inc()

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(spin, range(threads)))
        assert counter.value == threads * per_thread


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 3.0


class TestHistogram:
    def test_rejects_bad_buckets(self):
        for bad in ((), (1.0, 1.0), (2.0, 1.0), (1.0, float("inf"))):
            with pytest.raises(ConfigurationError):
                Histogram("h_seconds", buckets=bad)

    def test_empty_quantile_is_zero(self):
        assert Histogram("h_seconds").quantile(0.99) == 0.0

    def test_quantile_interpolates_within_bucket(self):
        # 100 observations spread uniformly inside (1, 2]: the p50
        # estimate interpolates between the bucket edges.
        hist = Histogram("h_seconds", buckets=(1.0, 2.0, 4.0))
        for i in range(100):
            hist.observe(1.0 + (i + 1) / 100.0)
        assert hist.quantile(0.5) == pytest.approx(1.5, abs=0.02)
        assert hist.quantile(1.0) == pytest.approx(2.0)

    def test_overflow_floors_to_last_bound(self):
        hist = Histogram("h_seconds", buckets=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.quantile(0.99) == 2.0  # +Inf rank reports the floor
        snap = hist.snapshot()
        assert snap["buckets"]["2"] == 0
        assert snap["buckets"]["+Inf"] == 1

    @pytest.mark.parametrize("value, bucket", [
        (-math.inf, 0), (-1.0, 0), (0.0, 0), (1.0, 0),  # bounds inclusive
        (1.5, 1), (2.0, 1), (3.999, 2), (4.0, 2),
        (4.000001, 3), (1e9, 3), (math.inf, 3),  # above the last bound
        (math.nan, 3),  # NaN compares false with every bound: +Inf
    ])
    def test_bucket_of_each_value(self, value, bucket):
        hist = Histogram("h_seconds", buckets=(1.0, 2.0, 4.0))
        hist.observe(value)
        counts, total, _ = hist._snapshot_counts()
        assert counts == [int(i == bucket) for i in range(4)]
        assert total == 1

    def test_quantiles_under_eight_thread_hammer(self):
        """Concurrent observation of a known distribution: count, sum
        and the derived percentiles all stay exact/within bucket
        resolution."""
        bounds = tuple((i + 1) / 10.0 for i in range(10))  # 0.1 .. 1.0
        hist = Histogram("h_seconds", buckets=bounds)
        threads, per_thread = 8, 5_000
        # Every thread observes the same uniform [0, 1) ramp, so the
        # aggregate distribution (and its quantiles) is known exactly.
        values = [(i + 0.5) / per_thread for i in range(per_thread)]

        def spin(_i):
            for value in values:
                hist.observe(value)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(spin, range(threads)))

        total = threads * per_thread
        assert hist.count == total
        assert hist.sum == pytest.approx(sum(values) * threads, rel=1e-9)
        for q in (0.5, 0.9, 0.99):
            assert hist.quantile(q) == pytest.approx(q, abs=0.01)
        snap = hist.snapshot()
        assert snap["buckets"]["+Inf"] == total
        assert snap["buckets"]["0.5"] == total // 2

    def test_increment_overhead_under_a_microsecond(self):
        """The always-on budget: one counter.inc() and one
        histogram.observe() each cost < 1 us (best of 5 trials, bulk
        measured — robust to a noisy CI neighbour)."""
        counter = Counter("bench_total")
        hist = Histogram("bench_seconds")
        n = 20_000

        def best_cost(op) -> float:
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(n):
                    op()
                best = min(best, (time.perf_counter() - t0) / n)
            return best

        assert best_cost(counter.inc) < 1e-6
        assert best_cost(lambda: hist.observe(0.003)) < 1e-6


class TestCallbackInstrument:
    def test_reads_live_value(self):
        box = {"v": 3}
        cb = CallbackInstrument("x_total", lambda: box["v"], "counter")
        assert cb.value == 3
        box["v"] = 9
        assert cb.value == 9

    def test_broken_callback_reads_zero(self):
        def boom():
            raise RuntimeError("component gone")

        assert CallbackInstrument("x", boom, "gauge").value == 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            CallbackInstrument("x_seconds", lambda: 0, "histogram")


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        assert registry.histogram("h_seconds") is registry.histogram(
            "h_seconds"
        )

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("a_total")
        with pytest.raises(ConfigurationError):
            registry.bind("a_total", lambda: 0)  # native name is taken

    def test_bad_name_raises(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("bad-name")

    def test_bind_replaces_callbacks_latest_wins(self):
        registry = MetricsRegistry()
        registry.bind("live", lambda: 1, kind="gauge")
        registry.bind("live", lambda: 2, kind="gauge")
        assert registry.get("live").value == 2
        with pytest.raises(ConfigurationError):
            registry.counter("live")  # callback name blocks native kinds

    def test_snapshot_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("repro_queue_depth_total").inc()
        registry.counter("repro_store_hits_total")
        snap = registry.snapshot(prefix="repro_queue")
        assert list(snap) == ["repro_queue_depth_total"]
        assert snap["repro_queue_depth_total"] == {
            "type": "counter", "value": 1,
        }

    def test_unregister(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        assert registry.unregister("a_total") is True
        assert registry.unregister("a_total") is False
        assert registry.names() == []

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("req_total", help="requests").inc(3)
        registry.gauge("depth").set(2.5)
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# HELP req_total requests" in lines
        assert "# TYPE req_total counter" in lines
        assert "req_total 3" in lines
        assert "# TYPE depth gauge" in lines
        assert "depth 2.5" in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 2' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "lat_seconds_count 2" in lines
        assert text.endswith("\n")

    def test_default_registry_is_process_wide(self):
        assert default_registry() is default_registry()
        counter = default_registry().counter("test_obs_default_reg_total")
        try:
            counter.inc()
            assert default_registry().get(
                "test_obs_default_reg_total"
            ).value >= 1
        finally:
            default_registry().unregister("test_obs_default_reg_total")

    def test_default_buckets_cover_serving_and_sweeping(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(5e-5)
        assert DEFAULT_LATENCY_BUCKETS[-1] == 60.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )


class TestConcurrentRegistryAccess:
    def test_racing_get_or_create_returns_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def create(_i):
            barrier.wait()
            seen.append(registry.counter("raced_total"))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(create, range(8)))
        assert all(instrument is seen[0] for instrument in seen)
