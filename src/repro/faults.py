"""Deterministic, seedable fault injection for the service stack.

Fault tolerance that is never exercised is fault tolerance that does
not exist.  This module is the harness the chaos tests (and any
operator rehearsing a failure mode) drive the stack with: a
:class:`FaultPlan` is a seeded list of :class:`FaultRule`\\ s, and the
instrumented layers ask it whether to misbehave at well-known *sites*:

========================  ==================================================
site                      instrumented at
========================  ==================================================
``client.request``        :meth:`ServiceClient._request <repro.service.
                          client.ServiceClient._request>` — one firing per
                          HTTP attempt (``drop-request``, ``drop-response``,
                          ``http-500``, ``delay``)
``worker.compute``        :meth:`SweepWorker.step <repro.service.worker.
                          SweepWorker.step>` (``crash`` — the worker dies
                          holding its leases, stage ``"leased"`` or
                          ``"computed"``)
``store.write``           :meth:`SqliteStore._write <repro.store.sqlite.
                          SqliteStore._write>` (``sqlite-locked``, fired
                          *inside* the store's own retry loop)
========================  ==================================================

The queue's clock is already injectable
(:class:`~repro.service.queue.WorkQueue` ``clock=``); :class:`FaultClock`
is the matching harness piece — a real or fake monotonic clock whose
:meth:`FaultClock.jump` forces lease expiries on demand.

Determinism: every probabilistic decision draws from one seeded
:class:`random.Random` under a lock, and budgeted rules (``times=N``)
fire exactly N times regardless of thread interleaving — so a chaos
test that injects "2 dropped responses, 1 worker crash, 2 locked
writes" observes exactly that, every run.  All hooks are ``None`` by
default and cost one attribute check when disabled; production paths
never construct a plan.

Every firing is recorded in :attr:`FaultPlan.log` so tests can assert
not only that the sweep survived, but that the faults actually
happened.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.obs.metrics import default_registry

#: The instrumented sites (free-form strings; these are the ones the
#: shipped layers consult).
CLIENT_REQUEST = "client.request"
WORKER_COMPUTE = "worker.compute"
STORE_WRITE = "store.write"

#: Fault kinds each site understands.
SITE_KINDS = {
    CLIENT_REQUEST: ("drop-request", "drop-response", "http-500", "delay"),
    WORKER_COMPUTE: ("crash",),
    STORE_WRITE: ("sqlite-locked",),
}


class InjectedFault(ReproError):
    """Base of every error raised *by* an injected fault.

    Instrumented layers usually translate a firing into the realistic
    exception type for the site (a :class:`~repro.errors.ServiceError`,
    an ``sqlite3.OperationalError``), so the code under test cannot
    tell injected faults from real ones; this class marks the one
    place where the injection itself surfaces (worker crashes).
    """


class WorkerCrashed(InjectedFault):
    """An injected worker death: the batch is abandoned mid-flight.

    Raised out of :meth:`SweepWorker.step`; the leases it held are
    never completed and re-lease after expiry — exactly what a
    SIGKILLed worker machine looks like to the queue.
    """


@dataclass
class FaultRule:
    """One class of injected fault at one site.

    ``site``/``kind`` select what misbehaves and how (see the module
    table); ``p`` is the per-event firing probability; ``times`` caps
    total firings (``None`` = unlimited); ``after`` skips the first N
    eligible events so a fault can be aimed mid-run; ``when`` is an
    optional predicate over the site's context dict (e.g. only fault
    ``POST /queue/complete``); ``delay_s`` parameterizes ``delay``
    kinds.
    """

    site: str
    kind: str
    p: float = 1.0
    times: Optional[int] = None
    after: int = 0
    when: Optional[Callable[[Mapping[str, object]], bool]] = None
    delay_s: float = 0.05
    #: Firings so far (mutated by the plan under its lock).
    fired: int = field(default=0, compare=False)
    #: Eligible events seen so far (for ``after``).
    seen: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        known = SITE_KINDS.get(self.site)
        if known is not None and self.kind not in known:
            raise ConfigurationError(
                f"site {self.site!r} has no fault kind {self.kind!r}; "
                f"known: {known}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {self.p}")


class FaultPlan:
    """A seeded set of fault rules the instrumented layers consult.

    Thread-safe; rules are evaluated in order and the first matching
    rule fires (so a plan can aim different faults at different
    requests).  ``seed`` drives every probabilistic decision.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        import random

        self.rules: List[FaultRule] = list(rules)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: Every firing, in order: ``(site, kind, context)`` tuples.
        self.log: List[Tuple[str, str, Dict[str, object]]] = []
        # Process-wide firing counter: chaos runs show up on /metrics
        # next to the recovery counters they are supposed to drive.
        self._fired_total = default_registry().counter(
            "repro_faults_injected_total",
            help="fault-plan rule firings across every site",
        )

    def fire(self, site: str, **context: object) -> Optional[FaultRule]:
        """The rule firing for this event, or ``None`` (no fault).

        Call once per instrumented event; the returned rule tells the
        caller *how* to misbehave.  Budgets and the RNG advance under
        one lock, so concurrent callers see a consistent schedule.
        """
        with self._lock:
            for rule in self.rules:
                if rule.site != site:
                    continue
                if rule.when is not None and not rule.when(context):
                    continue
                if rule.times is not None and rule.fired >= rule.times:
                    continue
                rule.seen += 1
                if rule.seen <= rule.after:
                    continue
                if rule.p < 1.0 and self._rng.random() >= rule.p:
                    continue
                rule.fired += 1
                self.log.append((site, rule.kind, dict(context)))
                self._fired_total.inc()
                return rule
        return None

    def fired(self, site: Optional[str] = None, kind: Optional[str] = None) -> int:
        """Total firings, optionally filtered by site and/or kind."""
        with self._lock:
            return sum(
                1 for s, k, _ in self.log
                if (site is None or s == site) and (kind is None or k == kind)
            )

    def exhausted(self) -> bool:
        """Whether every budgeted rule has spent its ``times``."""
        with self._lock:
            return all(
                rule.times is not None and rule.fired >= rule.times
                for rule in self.rules
            )


class FaultClock:
    """Injectable monotonic clock with an adjustable forward offset.

    The queue-clock fault site: pass one as ``WorkQueue(clock=...)``
    and :meth:`jump` forward to expire live leases on demand — a
    deterministic stand-in for "the worker went silent for a lease
    window".  ``base`` defaults to real monotonic time; pass a callable
    returning a fixed value for fully fake time.
    """

    def __init__(self, base: Optional[Callable[[], float]] = None) -> None:
        import time

        self._base = base if base is not None else time.monotonic
        self._offset = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._base() + self._offset

    def jump(self, seconds: float) -> None:
        """Advance the clock by ``seconds`` (lease expiry on demand)."""
        if seconds < 0:
            raise ConfigurationError("the fault clock only moves forward")
        with self._lock:
            self._offset += seconds


__all__ = [
    "CLIENT_REQUEST",
    "STORE_WRITE",
    "WORKER_COMPUTE",
    "FaultClock",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "WorkerCrashed",
]
