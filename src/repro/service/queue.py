"""Distributed work queue: sweep cells leased out, results pushed home.

The :class:`WorkQueue` is the server-side coordination point that turns
the scenario service into a distributed sweep engine.  Everything the
previous layers established is load-bearing here:

* a cell is a pure ``(fingerprint, payload)`` pair (replay determinism,
  ROADMAP invariant 4), so *any* worker may compute it and the result
  is bit-identical;
* workers rebuild cells from serialized :class:`~repro.scenario.Scenario`
  specs alone (the Scenario API contract), so a lease ships plain JSON;
* the store's single-writer discipline matches a push-results-home
  loop — every completion funnels through one write lock, so backends
  need no cross-process coordination.

Life of a cell::

    submit ──> pending ──lease──> leased ──complete──> store (done)
                  ^                  │
                  └── expiry/error ──┤   (crashed worker, bad payload,
                                     │    engine or store failure:
                                     │    re-queued with its error
                                     │    recorded, until...)
                                     └──> dead-lettered (attempt budget
                                          spent: the cell fails its
                                          jobs with the full error
                                          history instead of cycling
                                          forever)

Every cell carries an *attempt budget* (``max_attempts`` lease
grants).  Transient trouble — an expired lease, a payload that fails
validation, an engine error, a store write that raises — sends the
cell back to pending with the error recorded, so one crashed worker or
one flaky write never loses a sweep.  A *poison* cell, whose every
attempt fails, cannot cycle forever: when the budget is spent it is
dead-lettered — removed from circulation, its jobs count it failed,
its waiters raise, and its recorded history is surfaced through
``GET /queue/jobs/<id>`` and ``GET /stats`` (see :meth:`dead_letters`).
Resubmitting a dead-lettered fingerprint starts a fresh cell with a
fresh budget (deliberate: the operator's retry lever).

Dedup is store-backed (:meth:`~repro.store.base.ResultStore.missing`):
submitting a fingerprint that is already stored finishes immediately
without a cell, and submitting one that is already pending or leased
attaches to the in-flight cell — a cell is simulated at most once no
matter how many jobs or synchronous requests name it.

One consumer, :class:`~repro.service.worker.SweepWorker`, drains the
queue over two transports.  Remote workers lease over
``GET /queue/lease`` and push payloads home over
``POST /queue/complete``; the service's local worker calls
:meth:`lease_wait` with non-expiring leases (an in-process thread
cannot crash without taking the queue with it) and settles through
:meth:`complete_local` and :meth:`fail`.  Completions with a stale
token — the cell expired and was re-leased — are rejected without
touching the store; the replacement worker's result is the one that
lands.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.scenario import Scenario, scenario_fingerprint
from repro.sim.session import RESULT_SCHEMA, ScenarioResult
from repro.store.base import ResultStore

#: Cell states (internal; job status reports aggregate counts).
_PENDING, _LEASED, _WRITING = "pending", "leased", "writing"

#: Finished jobs retained for `GET /queue/jobs/<id>` after completion.
KEEP_FINISHED_JOBS = 256

#: Dead-lettered cells retained for post-mortem (`GET /stats`).
KEEP_DEAD_LETTERS = 256

#: Default per-cell attempt budget (lease grants before dead-letter).
DEFAULT_MAX_ATTEMPTS = 5


@dataclass(frozen=True)
class Lease:
    """One leased cell: what a worker needs to compute and return it."""

    fingerprint: str
    scenario: Scenario
    token: str
    #: Seconds until the lease expires and the cell is re-leased;
    #: ``None`` for the local consumer (no expiry).
    expires_s: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        """JSON shape of ``GET /queue/lease`` entries."""
        return {
            "fingerprint": self.fingerprint,
            "scenario": self.scenario.to_dict(),
            "lease": self.token,
            "expires_s": self.expires_s,
        }

    @classmethod
    def from_dict(cls, entry: Mapping[str, object]) -> "Lease":
        """Inverse of :meth:`to_dict` (what a remote worker leased)."""
        return cls(
            fingerprint=entry["fingerprint"],
            scenario=Scenario.from_dict(entry["scenario"]),
            token=entry["lease"],
            expires_s=entry.get("expires_s"),
        )


@dataclass
class _Cell:
    fingerprint: str
    scenario: Scenario
    state: str = _PENDING
    token: Optional[str] = None
    expiry: Optional[float] = None  # monotonic deadline; None = no expiry
    jobs: Set[str] = field(default_factory=set)
    future: Future = field(default_factory=Future)
    attempts: int = 0               # lease grants so far (the budget)
    errors: List[str] = field(default_factory=list)  # per-attempt history
    enqueued_at: float = 0.0        # clock() when it (re-)entered pending
    leased_at: Optional[float] = None  # clock() of the live lease grant


@dataclass
class _Job:
    id: str
    total: int
    fingerprints: Tuple[str, ...]
    cells: Set[str] = field(default_factory=set)  # still in flight
    done: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


class WorkQueue:
    """Store-deduplicated queue of sweep cells with leased execution.

    ``store`` is the archive completions land in (and the dedup
    source); ``lease_seconds`` is the default expiry of remote leases;
    ``clock`` is injectable for expiry tests and fault harnesses
    (monotonic seconds — :class:`repro.faults.FaultClock` jumps it
    forward to force expiries); ``max_attempts`` is the per-cell
    attempt budget before a failing cell is dead-lettered.

    Thread-safe: submissions, leases and completions may arrive
    concurrently from HTTP handler threads and the local worker.
    All store writes are serialized through one internal lock — the
    queue *is* the single writer the store backends assume.
    """

    def __init__(
        self,
        store: ResultStore,
        lease_seconds: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if lease_seconds <= 0:
            raise ConfigurationError(
                f"lease_seconds must be positive, got {lease_seconds}"
            )
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.store = store
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self._clock = clock
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._write_lock = threading.Lock()
        self._cells: Dict[str, _Cell] = {}
        self._ready_fps: "deque[str]" = deque()
        self._jobs: Dict[str, _Job] = {}
        self._job_ids = itertools.count(1)
        self._lease_ids = itertools.count(1)
        self._closed = False
        #: fingerprint -> dead-letter record (bounded post-mortem log).
        self._dead: Dict[str, Dict[str, object]] = {}
        #: Monotonic counters (mirrored into ``GET /stats``).
        self.enqueued = 0      # cells that entered the queue
        self.deduped = 0       # submissions answered by store/in-flight
        self.completed = 0     # cells finished successfully
        self.failed = 0        # cells finished with an error
        self.reclaimed = 0     # expired leases returned to pending
        self.rejected = 0      # stale/unknown completions refused
        self.requeued = 0      # failed attempts sent back to pending
        self.dead = 0          # cells dead-lettered (budget spent)
        # /metrics instruments.  The plain ints above stay the single
        # source of truth (/stats reads them directly); the registry
        # reads the very same attributes through callbacks at
        # exposition time, so /stats and /metrics can never disagree.
        self.registry = registry if registry is not None else default_registry()
        self._wait_seconds = self.registry.histogram(
            "repro_queue_wait_seconds",
            help="time a cell spent pending before its lease was granted",
        )
        self.registry.bind(
            "repro_queue_depth", lambda: self._depths()[0], kind="gauge",
            help="cells pending (ready to lease)",
        )
        self.registry.bind(
            "repro_queue_leased", lambda: self._depths()[1], kind="gauge",
            help="cells leased or being written",
        )
        self.registry.bind(
            "repro_queue_oldest_lease_age_seconds",
            lambda: self._depths()[2], kind="gauge",
            help="age of the oldest live lease (0 when none)",
        )
        for name, doc in (
            ("enqueued", "cells that entered the queue"),
            ("deduped", "submissions answered by store/in-flight dedup"),
            ("completed", "cells finished successfully"),
            ("failed", "cells finished with an error"),
            ("reclaimed", "expired leases returned to pending"),
            ("rejected", "stale/unknown completions refused"),
            ("requeued", "failed attempts sent back to pending"),
            ("dead", "cells dead-lettered (attempt budget spent)"),
        ):
            self.registry.bind(
                f"repro_queue_{name}_total",
                (lambda attr=name: getattr(self, attr)),
                kind="counter",
                help=doc,
            )

    def _depths(self) -> Tuple[int, int, float]:
        """``(pending, leased, oldest lease age)`` in one acquisition."""
        with self._lock:
            now = self._clock()
            leased = 0
            oldest = 0.0
            for cell in self._cells.values():
                if cell.state in (_LEASED, _WRITING):
                    leased += 1
                    if cell.leased_at is not None:
                        oldest = max(oldest, now - cell.leased_at)
            return len(self._cells) - leased, leased, oldest

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_scenario(self, scenario: Scenario) -> Future:
        """Queue one cell for the synchronous path; returns its future.

        A fingerprint already stored resolves immediately (rehydrated);
        one already in flight shares the existing cell's future.
        """
        fingerprint = scenario_fingerprint(scenario)
        cached = self.store.load(scenario)
        if cached is not None:
            future: Future = Future()
            future.set_result(cached)
            return future
        with self._lock:
            self._check_open()
            cell = self._cells.get(fingerprint)
            if cell is not None:
                self.deduped += 1
                if cell.state == _PENDING:
                    # An interactive caller is now blocked on this
                    # batch-queued cell: promote it.  The stale back
                    # entry is skipped at lease time.
                    self._ready_fps.appendleft(fingerprint)
                return cell.future
            cell = self._enqueue_locked(fingerprint, scenario, interactive=True)
            return cell.future

    def submit_job(self, scenarios: Sequence[Scenario]) -> Dict[str, object]:
        """Queue a sweep as one tracked job; returns its status dict.

        Dedup is two-level: cells already in the store count as done
        immediately (no cell is created), and cells already pending or
        leased — from another job or the synchronous path — are shared,
        not duplicated.  The returned status carries the job id and the
        full fingerprint list in cell order, so a client can poll
        ``GET /queue/jobs/<id>`` and then fetch every result by
        fingerprint.
        """
        scenarios = list(scenarios)
        fingerprints = [scenario_fingerprint(s) for s in scenarios]
        # Snapshot the in-flight set under the lock (iterating the live
        # dict would race concurrent completions), then do the store
        # probes outside it — they may touch disk.
        with self._lock:
            pending = set(self._cells)
        fresh = set(self.store.missing(fingerprints, pending=pending))
        with self._lock:
            self._check_open()
            job = _Job(
                id=f"job-{next(self._job_ids):06d}",
                total=len(scenarios),
                fingerprints=tuple(fingerprints),
            )
            seen: Set[str] = set()
            for fingerprint, scenario in zip(fingerprints, scenarios):
                if fingerprint in seen:           # duplicate inside the job
                    continue
                seen.add(fingerprint)
                cell = self._cells.get(fingerprint)
                if cell is None and fingerprint in fresh:
                    cell = self._enqueue_locked(fingerprint, scenario)
                elif cell is not None:            # shared with an in-flight cell
                    self.deduped += 1
                elif fingerprint not in self.store:
                    # Settled between the dedup snapshot and this lock —
                    # as a *failure* (completions write the store before
                    # dropping their cell, failures write nothing).  A
                    # fresh submission asks for a retry, not a phantom
                    # "done" the collection step would 404 on.
                    cell = self._enqueue_locked(fingerprint, scenario)
                if cell is None:                  # already stored: done
                    job.done += 1
                    self.deduped += 1
                    continue
                cell.jobs.add(job.id)
                job.cells.add(fingerprint)
            # Duplicates inside one job collapse onto one cell; the
            # job's `total` counts distinct cells so progress adds up.
            job.total = job.done + len(job.cells)
            self._jobs[job.id] = job
            self._prune_finished_jobs_locked()
            return self._job_status_locked(job)

    def _enqueue_locked(
        self, fingerprint: str, scenario: Scenario, interactive: bool = False
    ) -> _Cell:
        cell = _Cell(
            fingerprint=fingerprint,
            scenario=scenario,
            enqueued_at=self._clock(),
        )
        self._cells[fingerprint] = cell
        # In-flight cells are evict-exempt: a bounded store must never
        # drop the record this cell is about to write (the single-writer
        # put would race its own eviction).  Unpinned when the cell
        # settles — landed, dead-lettered, or shut down.
        self.store.pin(fingerprint)
        if interactive:
            # A synchronous caller is blocked on this future; it jumps
            # the batch backlog so interactive traffic never waits out
            # a cold sweep.
            self._ready_fps.appendleft(fingerprint)
        else:
            self._ready_fps.append(fingerprint)
        self.enqueued += 1
        self._ready.notify_all()
        return cell

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("work queue is closed")

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def lease(
        self,
        n: int = 1,
        worker: str = "",
        lease_seconds: Optional[float] = None,
    ) -> List[Lease]:
        """Lease up to ``n`` pending cells to ``worker``.

        ``lease_seconds`` overrides the queue default; ``math.inf``
        takes a non-expiring lease (the local worker — an in-process
        consumer cannot crash independently of the queue).  Expired
        leases are reclaimed first, so a crashed worker's cells are
        handed to the next caller.
        """
        if n < 1:
            return []
        with self._lock:
            if self._closed:
                return []
            now = self._clock()
            dead = self._reclaim_expired_locked(now)
            leases: List[Lease] = []
            while self._ready_fps and len(leases) < n:
                fingerprint = self._ready_fps.popleft()
                cell = self._cells.get(fingerprint)
                if cell is None or cell.state != _PENDING:
                    continue  # reclaim/dedup left a stale ready entry
                seconds = self.lease_seconds if lease_seconds is None \
                    else lease_seconds
                cell.state = _LEASED
                cell.token = f"lease-{next(self._lease_ids):08d}"
                cell.expiry = None if math.isinf(seconds) else now + seconds
                cell.attempts += 1
                cell.leased_at = now
                self._wait_seconds.observe(max(0.0, now - cell.enqueued_at))
                leases.append(Lease(
                    fingerprint=fingerprint,
                    scenario=cell.scenario,
                    token=cell.token,
                    expires_s=None if math.isinf(seconds) else seconds,
                ))
        self._settle_dead(dead)
        return leases

    def lease_wait(
        self,
        n: int = 1,
        timeout: float = 0.25,
        worker: str = "",
        lease_seconds: Optional[float] = None,
    ) -> List[Lease]:
        """Blocking :meth:`lease`: wait up to ``timeout`` for work.

        Returns immediately once at least one cell is ready (then
        leases up to ``n``); an empty list means the timeout elapsed or
        the queue closed.  This is the local worker's idle wait — no
        polling interval shows up on the serving path.
        """
        deadline = self._clock() + timeout
        while True:
            leases = self.lease(n, worker=worker, lease_seconds=lease_seconds)
            if leases:
                return leases
            with self._ready:
                if self._closed:
                    return []
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return []
                # Wake early for the nearest lease expiry so reclaims
                # do not wait out the full timeout.
                expiries = [
                    cell.expiry - self._clock()
                    for cell in self._cells.values()
                    if cell.state == _LEASED and cell.expiry is not None
                ]
                wait_s = min([remaining] + [max(e, 0.01) for e in expiries])
                self._ready.wait(wait_s)

    def renew(
        self,
        fingerprint: str,
        token: str,
        lease_seconds: Optional[float] = None,
    ) -> str:
        """Extend a live lease (``POST /queue/renew``).

        Workers renew while computing, so a cell whose simulation
        outlives one lease window is not reclaimed out from under a
        *healthy* worker (which would livelock two workers rejecting
        each other's completions as stale).  A crashed worker stops
        renewing and its cells re-lease after expiry, as before.
        Returns ``"renewed"``, or the same rejection statuses as
        :meth:`complete` (``"stale-lease"`` / ``"already-done"`` /
        ``"unknown"``).
        """
        with self._lock:
            cell = self._cells.get(fingerprint)
            if cell is None:
                return "already-done" if fingerprint in self.store \
                    else "unknown"
            if cell.state != _LEASED or cell.token != token:
                return "stale-lease"
            if cell.expiry is not None:
                seconds = self.lease_seconds if lease_seconds is None \
                    else lease_seconds
                cell.expiry = self._clock() + seconds
            return "renewed"

    def _reclaim_expired_locked(self, now: float) -> List[_Cell]:
        """Return expired cells to pending; dead-letter budget-spent
        ones.  Returns the cells to settle (futures must be resolved
        *outside* the queue lock — the caller runs
        :meth:`_settle_dead` after releasing it)."""
        dead: List[_Cell] = []
        for cell in list(self._cells.values()):
            if (
                cell.state == _LEASED
                and cell.expiry is not None
                and cell.expiry <= now
            ):
                self.reclaimed += 1
                if self._retry_locked(
                    cell, "lease expired (worker crashed or stopped renewing)"
                ):
                    dead.append(cell)
        return dead

    def _retry_locked(self, cell: _Cell, error: str) -> bool:
        """Record a failed attempt, then send the cell back to pending
        or, once its attempt budget is spent, dead-letter it (lock
        held).  Returns whether it was dead-lettered: the caller then
        passes it to :meth:`_settle_dead` after releasing the lock."""
        cell.errors.append(f"attempt {cell.attempts}: {error}")
        if cell.attempts >= self.max_attempts:
            self._dead_letter_locked(cell)
            return True
        cell.state = _PENDING
        cell.token = None   # the old lease is now stale
        cell.expiry = None
        cell.leased_at = None
        cell.enqueued_at = self._clock()
        self._ready_fps.append(cell.fingerprint)
        self._ready.notify_all()
        return False

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def complete(
        self,
        fingerprint: str,
        token: str,
        payload: Mapping[str, object],
    ) -> str:
        """Push one computed payload home (``POST /queue/complete``).

        Returns a status string:

        * ``"done"`` — accepted and persisted;
        * ``"already-done"`` — the cell finished earlier (idempotent
          duplicate; nothing written);
        * ``"stale-lease"`` — the lease expired and was re-issued, or
          the token never matched; the store is untouched;
        * ``"bad-payload"`` — the payload fails validation (wrong
          schema tag, or its spec does not hash to ``fingerprint``);
          the cell returns to pending for another worker (or is
          dead-lettered once its attempt budget is spent);
        * ``"unknown"`` — no such cell was ever queued.
        """
        claim = self._claim_for_completion(fingerprint, token)
        if claim is not None:
            return claim
        error = self._validate_payload(fingerprint, payload)
        if error is not None:
            self._requeue_after_bad_payload(fingerprint)
            return error
        result: Optional[ScenarioResult] = None
        return self._land(fingerprint, payload=dict(payload), result=result)

    def complete_local(
        self, fingerprint: str, token: str, result: ScenarioResult
    ) -> str:
        """In-process completion (the local worker's path): a trusted
        result, stored without serialization or validation."""
        claim = self._claim_for_completion(fingerprint, token)
        if claim is not None:
            return claim
        return self._land(fingerprint, payload=None, result=result)

    def fail(self, fingerprint: str, token: str, error: object) -> str:
        """Record a failed attempt for a leased cell.

        The failure is appended to the cell's error history and the
        cell returns to pending for another attempt (``"requeued"``) —
        a transient worker-side error must not fail a sweep.  Once the
        attempt budget is spent the cell is dead-lettered instead
        (``"failed"``): its jobs count it failed with the full history,
        its waiting futures raise, and nothing is ever written to the
        store (failures are never cached).
        """
        claim = self._claim_for_completion(fingerprint, token)
        if claim is not None:
            return claim
        with self._lock:
            cell = self._cells[fingerprint]
        return self._settle_failed_attempt(cell, error)

    def _settle_failed_attempt(self, cell: _Cell, error: object) -> str:
        """Requeue or dead-letter an already-claimed (state ``writing``)
        cell whose attempt just failed."""
        message = str(error) if not isinstance(error, BaseException) \
            else str(error) or type(error).__name__
        with self._lock:
            dead = self._retry_locked(cell, message)
            if not dead:
                self.requeued += 1
        if dead:
            self._settle_dead([cell])
            return "failed"
        return "requeued"

    def _dead_letter_locked(self, cell: _Cell) -> None:
        """Take a poison cell out of circulation (lock held).

        The caller must pass the cell to :meth:`_settle_dead` *after*
        releasing the lock — resolving a future runs arbitrary waiter
        callbacks, which must never happen inside the queue lock.
        """
        self._cells.pop(cell.fingerprint, None)
        self.store.unpin(cell.fingerprint)
        self.failed += 1
        self.dead += 1
        self._dead[cell.fingerprint] = {
            "fingerprint": cell.fingerprint,
            "attempts": cell.attempts,
            "errors": list(cell.errors),
        }
        while len(self._dead) > KEEP_DEAD_LETTERS:
            self._dead.pop(next(iter(self._dead)))
        self._settle_jobs_locked(cell, error=self._poison_summary(cell))

    @staticmethod
    def _poison_summary(cell: _Cell) -> str:
        history = "; ".join(cell.errors)
        return (
            f"dead-lettered after {cell.attempts} attempt(s): {history}"
        )

    def _settle_dead(self, dead: List[_Cell]) -> None:
        for cell in dead:
            if not cell.future.done():
                cell.future.set_exception(
                    RuntimeError(self._poison_summary(cell))
                )

    def _claim_for_completion(
        self, fingerprint: str, token: str
    ) -> Optional[str]:
        """Atomically move a leased cell to ``writing``; ``None`` on
        success, else the rejection status."""
        with self._lock:
            cell = self._cells.get(fingerprint)
            if cell is None:
                if fingerprint in self.store:
                    return "already-done"
                self.rejected += 1
                return "unknown"
            if cell.state != _LEASED or cell.token != token:
                self.rejected += 1
                return "stale-lease"
            cell.state = _WRITING
        return None

    def _validate_payload(
        self, fingerprint: str, payload: Mapping[str, object]
    ) -> Optional[str]:
        """``None`` if the payload is storable under ``fingerprint``."""
        if not isinstance(payload, Mapping):
            return "bad-payload"
        if payload.get("schema") != RESULT_SCHEMA:
            return "bad-payload"
        try:
            spec = Scenario.from_dict(payload["scenario"])
        except Exception:
            return "bad-payload"
        if scenario_fingerprint(spec) != fingerprint:
            # A worker answering for the wrong cell would poison the
            # content-addressed archive for every later reader.
            return "bad-payload"
        return None

    def _requeue_after_bad_payload(self, fingerprint: str) -> None:
        with self._lock:
            self.rejected += 1
            cell = self._cells.get(fingerprint)
            if cell is None or cell.state != _WRITING:
                return
            dead = self._retry_locked(
                cell, "completion payload failed validation "
                "(wrong fingerprint or schema)",
            )
            if not dead:
                self.requeued += 1
        if dead:
            self._settle_dead([cell])

    def _land(
        self,
        fingerprint: str,
        payload: Optional[Dict[str, object]],
        result: Optional[ScenarioResult],
    ) -> str:
        """Persist and settle one claimed cell (state ``writing``)."""
        with self._lock:
            cell = self._cells[fingerprint]
        try:
            with self._write_lock:  # the queue is the single writer
                if payload is not None:
                    self.store.put(fingerprint, payload, scenario=cell.scenario)
                else:
                    self.store.save(result)
        except BaseException as exc:
            # The store refused the write (transient lock, disk full,
            # closed backend): the computed payload is lost, but the
            # cell is not — it requeues for another attempt (recompute
            # + rewrite) and only dead-letters once the budget is
            # spent.  The store itself retries transient errors first
            # (see SqliteStore), so reaching here is already rare.
            return self._settle_failed_attempt(
                cell, f"store write failed: {exc}"
            )
        with self._lock:
            self._cells.pop(fingerprint, None)
            self.store.unpin(fingerprint)
            self.completed += 1
            self._settle_jobs_locked(cell, error=None)
        if not cell.future.done():
            if result is None:
                result = ScenarioResult.from_dict(payload)
            cell.future.set_result(result)
        return "done"

    def _settle_jobs_locked(self, cell: _Cell, error: Optional[str]) -> None:
        for job_id in cell.jobs:
            job = self._jobs.get(job_id)
            if job is None:
                continue
            job.cells.discard(cell.fingerprint)
            if error is None:
                job.done += 1
            else:
                job.failed += 1
                job.errors.append(f"{cell.fingerprint[:12]}: {error}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def job_status(self, job_id: str) -> Dict[str, object]:
        """Progress of one job (``GET /queue/jobs/<id>``)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ConfigurationError(f"unknown job {job_id!r}")
            return self._job_status_locked(job)

    def _job_status_locked(self, job: _Job) -> Dict[str, object]:
        leased = sum(
            1
            for fingerprint in job.cells
            if self._cells.get(fingerprint) is not None
            and self._cells[fingerprint].state in (_LEASED, _WRITING)
        )
        pending = len(job.cells) - leased
        return {
            "job": job.id,
            "total": job.total,
            "pending": pending,
            "leased": leased,
            "done": job.done,
            "failed": job.failed,
            "errors": list(job.errors),
            "finished": job.done + job.failed >= job.total,
            "fingerprints": list(job.fingerprints),
        }

    def jobs(self) -> List[Dict[str, object]]:
        """Status of every retained job, oldest first."""
        with self._lock:
            return [self._job_status_locked(job) for job in self._jobs.values()]

    def in_flight(self) -> int:
        """Cells not yet finished (pending + leased)."""
        with self._lock:
            return len(self._cells)

    def dead_letters(self) -> List[Dict[str, object]]:
        """The retained dead-letter records, oldest first.

        Each entry carries the fingerprint, the attempt count and the
        full per-attempt error history — the post-mortem an operator
        reads before deciding whether to fix and resubmit (a fresh
        submission of a dead fingerprint starts a fresh cell).
        """
        with self._lock:
            return [
                {**record, "errors": list(record["errors"])}
                for record in self._dead.values()
            ]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            leased = sum(
                1 for c in self._cells.values()
                if c.state in (_LEASED, _WRITING)
            )
            return {
                "pending": len(self._cells) - leased,
                "leased": leased,
                "jobs": len(self._jobs),
                "enqueued": self.enqueued,
                "deduped": self.deduped,
                "completed": self.completed,
                "failed": self.failed,
                "reclaimed": self.reclaimed,
                "rejected": self.rejected,
                "requeued": self.requeued,
                "dead": self.dead,
                "dead_letters": [
                    {
                        "fingerprint": record["fingerprint"],
                        "attempts": record["attempts"],
                        "last_error": record["errors"][-1]
                        if record["errors"] else None,
                    }
                    for record in self._dead.values()
                ],
            }

    def _prune_finished_jobs_locked(self) -> None:
        finished = [
            job_id for job_id, job in self._jobs.items()
            if job.done + job.failed >= job.total
        ]
        for job_id in finished[: max(0, len(finished) - KEEP_FINISHED_JOBS)]:
            del self._jobs[job_id]

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, reason: str = "work queue is closed") -> None:
        """Refuse new work and fail every in-flight future."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            cells, self._cells = self._cells, {}
            self._ready_fps.clear()
            for cell in cells.values():
                self.store.unpin(cell.fingerprint)
                self._settle_jobs_locked(cell, error=reason)
            self._ready.notify_all()
        for cell in cells.values():
            if not cell.future.done():
                cell.future.set_exception(RuntimeError(reason))

    @property
    def closed(self) -> bool:
        return self._closed
