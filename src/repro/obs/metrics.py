"""Thread-safe in-process metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` is a named family of instruments the whole
stack records into — the data behind ``GET /metrics`` (Prometheus text
exposition or JSON), ``repro stats`` and the serving benchmark.  Three
native instrument kinds:

* :class:`Counter` — monotonically increasing count (requests served,
  cells completed);
* :class:`Gauge` — a value that goes up and down (in-flight requests);
* :class:`Histogram` — fixed-bucket distribution of observations
  (latencies), from which p50/p90/p99 are derived by linear
  interpolation inside the owning bucket (the same estimate Prometheus'
  ``histogram_quantile`` computes server-side).

Plus *callback* instruments (:meth:`MetricsRegistry.bind`): an
instrument whose value is read live from a function at exposition
time.  This is how the pre-existing ``/stats`` counters (service
hits/misses, queue counters, store accounting) are folded onto the
registry — ``/metrics`` and ``/stats`` read the *same* underlying
variables, so the two can never disagree.  Re-binding a name replaces
its callback (one serving stack per process; a fresh server takes the
names over).

Everything is stdlib and lock-per-instrument: an increment is one
uncontended lock acquisition and an integer add (a fraction of a
microsecond — ``tests/obs/test_metrics.py`` asserts the budget), so
instruments stay on permanently; there is no "disabled" mode to keep
fast paths honest.

A process-wide default registry (:func:`default_registry`) serves code
with no explicit wiring — engine phases, stores, fault harnesses —
while every component also accepts ``registry=`` so tests and
benchmarks isolate their counts.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default histogram bounds (seconds): log-spaced from 50 µs to 60 s,
#: tight where the serving path lives (sub-ms store hits) and wide
#: enough for scale-1.0 simulation batches.  Observations above the
#: last bound land in the implicit +Inf bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Prometheus metric-name grammar (we do not use colons).
_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(
            f"metric name {name!r} must match {_NAME_RE.pattern}"
        )
    return name


class Counter:
    """Monotonic counter.  ``inc()`` only goes up."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc({n}))"
            )
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that moves both ways (in-flight requests, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket distribution; quantiles derived, never stored.

    ``bounds`` are the inclusive upper edges of each bucket, strictly
    increasing; an implicit +Inf bucket catches the overflow (and NaN).
    An observation is one lock acquisition, a binary search over ~20
    bounds and two adds — cheap enough to sit on every request.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or any(not math.isfinite(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name!r} needs strictly increasing finite "
                f"bucket bounds, got {bounds}"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        # The first bound >= value; NaN compares false with every bound
        # and would land in bucket 0, so it is sent to +Inf explicitly.
        bounds = self.bounds
        index = bisect_left(bounds, value) if value == value else len(bounds)
        # acquire/release rather than ``with``: a quarter cheaper on
        # CPython 3.11, and this runs on every request.
        self._lock.acquire()
        try:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
        finally:
            self._lock.release()

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _snapshot_counts(self) -> Tuple[List[int], int, float]:
        with self._lock:
            return list(self._counts), self._count, self._sum

    def quantile(self, q: float) -> float:
        """The q-quantile estimate (0 <= q <= 1); 0.0 when empty.

        Linear interpolation inside the bucket holding the target rank
        (lower edge of the first bucket is 0); ranks landing in the
        +Inf bucket report the last finite bound — a deliberate floor,
        matching Prometheus' ``histogram_quantile``.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        counts, total, _sum = self._snapshot_counts()
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.bounds, counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count:
                fraction = (rank - previous) / count
                return lower + (bound - lower) * fraction
            lower = bound
        return self.bounds[-1]

    def snapshot(self) -> Dict[str, object]:
        counts, total, total_sum = self._snapshot_counts()
        buckets: Dict[str, int] = {}
        cumulative = 0
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            buckets[f"{bound:g}"] = cumulative
        buckets["+Inf"] = total
        return {
            "type": "histogram",
            "count": total,
            "sum": total_sum,
            "buckets": buckets,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class CallbackInstrument:
    """Exposition-time read of a live variable someone else owns.

    The bridge that keeps ``/stats`` and ``/metrics`` in perfect
    agreement: both read the same attribute, this class just gives it a
    metric name and a kind.  A callback that raises reads as 0 — an
    instrument must never take the exposition endpoint down.
    """

    def __init__(
        self, name: str, fn: Callable[[], float], kind: str, help: str = ""
    ) -> None:
        if kind not in ("counter", "gauge"):
            raise ConfigurationError(
                f"callback instrument kind must be counter|gauge, got {kind!r}"
            )
        self.name = name
        self.fn = fn
        self.kind = kind
        self.help = help

    @property
    def value(self) -> float:
        try:
            return self.fn()
        except Exception:
            return 0

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}


class MetricsRegistry:
    """A named, typed family of instruments with one exposition.

    ``counter``/``gauge``/``histogram`` get-or-create (idempotent;
    asking for an existing name with a different kind is an error);
    :meth:`bind` registers or *replaces* a callback instrument.
    :meth:`snapshot` is the JSON exposition, :meth:`render_prometheus`
    the text one; both accept a name-prefix filter.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory, kind: str):
        _check_name(name)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if getattr(existing, "kind", None) != kind or isinstance(
                    existing, CallbackInstrument
                ):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{getattr(existing, 'kind', '?')}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help), "counter"
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), "histogram"
        )

    def bind(
        self,
        name: str,
        fn: Callable[[], float],
        kind: str = "gauge",
        help: str = "",
    ) -> CallbackInstrument:
        """Register (or re-bind) a live-read instrument.

        Unlike the native kinds this *replaces* an existing callback of
        the same name: instruments bound to a component instance must
        follow the latest instance (a test suite or benchmark starts
        many servers in one process; the newest owns the names).
        """
        _check_name(name)
        instrument = CallbackInstrument(name, fn, kind, help)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None and not isinstance(
                existing, CallbackInstrument
            ):
                raise ConfigurationError(
                    f"metric {name!r} already registered as a native "
                    f"{getattr(existing, 'kind', '?')}"
                )
            self._instruments[name] = instrument
        return instrument

    # ------------------------------------------------------------------
    def get(self, name: str):
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def unregister(self, name: str) -> bool:
        with self._lock:
            return self._instruments.pop(name, None) is not None

    def _sorted_instruments(self, prefix: Optional[str]) -> List[object]:
        with self._lock:
            items = sorted(self._instruments.items())
        return [
            instrument for name, instrument in items
            if prefix is None or name.startswith(prefix)
        ]

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, Dict[str, object]]:
        """JSON exposition: ``{name: {"type": ..., ...}}``."""
        return {
            instrument.name: instrument.snapshot()
            for instrument in self._sorted_instruments(prefix)
        }

    def render_prometheus(self, prefix: Optional[str] = None) -> str:
        """Prometheus text exposition (version 0.0.4)."""
        lines: List[str] = []
        for instrument in self._sorted_instruments(prefix):
            name = instrument.name
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                counts, total, total_sum = instrument._snapshot_counts()
                cumulative = 0
                for bound, count in zip(instrument.bounds, counts):
                    cumulative += count
                    lines.append(
                        f'{name}_bucket{{le="{bound:g}"}} {cumulative}'
                    )
                lines.append(f'{name}_bucket{{le="+Inf"}} {total}')
                lines.append(f"{name}_sum {total_sum:g}")
                lines.append(f"{name}_count {total}")
            else:
                lines.append(f"{name} {instrument.value:g}")
        return "\n".join(lines) + "\n"


#: The process-wide registry (engine phases, stores, fault harnesses —
#: anything not handed an explicit one records here).
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _DEFAULT_REGISTRY


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "CallbackInstrument",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
]
