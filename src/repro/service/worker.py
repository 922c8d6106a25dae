"""The queue consumer: lease cells, simulate, settle the outcomes.

:class:`SweepWorker` is the one loop that computes service cells.  It
drains a :class:`~repro.service.queue.WorkQueue` over one of two
transports:

* a server URL — ``repro worker --server http://host:8321 --jobs 4``
  turns any machine into extra sweep capacity for a running scenario
  service.  ``GET /queue/lease?n=K`` pulls up to K serialized scenarios,
  each with a lease token that expires unless renewed (a crashed worker
  costs one lease window, never a lost cell), and
  ``POST /queue/complete`` pushes ``(fingerprint, lease, payload)``
  triples home, where the server validates each payload against its
  fingerprint before the store's single-writer path persists it;
* an in-process :class:`WorkQueue` — the local compute of
  ``repro serve``.  :meth:`WorkQueue.lease_wait` blocks on the queue's
  condition, so no idle poll sits on the serving path; its leases never
  expire (an in-process consumer cannot crash without taking its queue
  along), and results settle through :meth:`WorkQueue.complete_local`
  with no serialization.

Either way a round is the same: lease up to ``lease_n`` cells, renew
expiring leases on a heartbeat while the batch computes, run the batch
as one :func:`~repro.sim.session.run_sweep` call (``--jobs N`` fans it
across a process pool; replay determinism makes every result
bit-identical to any other machine's), fall back to one outcome per
cell when the batch raises, and settle.  Workers never open the store
and never talk to each other; the queue's lease tokens make duplicate
or stale completions harmless (they are rejected, not written).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import socket
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.errors import ServiceError
from repro.obs.metrics import default_registry
from repro.scenario import Scenario
from repro.service.client import ServiceClient
from repro.service.queue import Lease, WorkQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan
    from repro.sim.session import ScenarioResult

#: Bucket bounds of ``repro_worker_batch_size`` (cells per batch;
#: powers of two up to the service's local lease bound).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: What one leased cell came to: its result, or the error it raised.
Outcome = Union["ScenarioResult", Exception]


def _ignore_sigint() -> None:  # pragma: no cover - runs in pool processes
    """Pool processes ignore Ctrl-C; the parent coordinates shutdown
    (otherwise every process dumps a KeyboardInterrupt traceback when a
    terminal signals the whole foreground group)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class SweepWorker:
    """One lease/compute/settle loop over a work queue.

    ``server`` is a scenario service URL (the remote transport) or a
    :class:`WorkQueue` in this process (the local transport).  ``jobs``
    fans each leased batch across worker processes (``None`` = serial
    in-process, with miss-stream reuse; ``-1`` = one per CPU);
    ``lease_n`` is how many cells to pull per round (default: the
    process parallelism, so the pool stays full); ``poll_s`` is the
    idle wait between empty leases.

    ``connect_retries`` bounds *consecutive* transport-class failures
    (unreachable server, 5xx) in :meth:`run` — beyond the client's own
    per-request retries — after which the loop raises a terminal
    :class:`~repro.errors.ServiceError` instead of silently polling an
    unreachable server forever (``repro worker`` turns that into a
    nonzero exit).  ``faults`` is a test-only
    :class:`~repro.faults.FaultPlan`; a ``worker.compute``/``crash``
    rule makes :meth:`step` die holding its leases (stage ``"leased"``
    or ``"computed"``), exactly like a SIGKILLed machine.
    """

    def __init__(
        self,
        server: Union[str, WorkQueue],
        jobs: Optional[int] = None,
        poll_s: float = 0.5,
        lease_n: Optional[int] = None,
        name: Optional[str] = None,
        timeout: float = 600.0,
        connect_retries: int = 10,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        if isinstance(server, WorkQueue):
            self.queue: Optional[WorkQueue] = server
            self.client: Optional[ServiceClient] = None
            registry = server.registry
        else:
            self.queue = None
            self.client = ServiceClient(server, timeout=timeout)
            registry = default_registry()
        if jobs is not None and jobs < 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        self.lease_n = lease_n if lease_n is not None else max(1, jobs or 1)
        self.poll_s = poll_s
        self.connect_retries = connect_retries
        self.faults = faults
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        #: Loop counters (``repro worker`` prints them on exit; the
        #: service's ``/stats`` reads its local worker's).
        self.batches = 0
        self.leased = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self._batch_size = registry.histogram(
            "repro_worker_batch_size",
            buckets=BATCH_SIZE_BUCKETS,
            help="cells leased per batch",
        )
        self._compute_seconds = registry.histogram(
            "repro_worker_compute_seconds",
            help="wall time of one leased batch's computation",
        )
        self._push_seconds = registry.histogram(
            "repro_worker_push_seconds",
            help="wall time pushing one batch's completions home",
        )
        for counter, doc in (
            ("batches", "batches leased by this process's workers"),
            ("leased", "cells leased by this process's workers"),
            ("completed", "cells this process's workers landed"),
            ("failed", "cells whose computation errored here"),
            ("rejected", "completions the server refused (stale/invalid)"),
        ):
            registry.bind(
                f"repro_worker_{counter}_total",
                (lambda attr=counter: getattr(self, attr)),
                kind="counter",
                help=doc,
            )
        # One long-lived process pool for every round, started now:
        # paying process startup per batch would sit on the serving
        # path (and dominate small-cell sweeps).
        self._pool = self._start_pool()

    # ------------------------------------------------------------------
    def _start_pool(self) -> Optional[ProcessPoolExecutor]:
        """A new process pool (``None`` = serial), warming off-thread."""
        if self.jobs is None or self.jobs <= 1:
            return None
        # Spawned (not forked) processes: the server runs this pool
        # inside a multithreaded process, and forking while handler
        # threads hold locks can deadlock the children.
        pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_ignore_sigint,
        )
        # Spawned processes cost ~a second of interpreter startup each;
        # start them now, off-thread, so the first batch doesn't pay it.
        threading.Thread(
            target=self._warm, args=(pool,), name=f"{self.name}-warm",
            daemon=True,
        ).start()
        return pool

    def _warm(self, pool: ProcessPoolExecutor) -> None:
        try:
            # Overlapping sleeps force the pool to its full process
            # count (idle pools spawn lazily, one per pending task).
            for future in [
                pool.submit(time.sleep, 0.2) for _ in range(self.jobs)
            ]:
                future.result(timeout=60.0)
        except Exception:  # pragma: no cover - warmup is best-effort
            pass

    def close(self) -> None:
        """Release the process pool (idempotent).

        Queued work is dropped and in-flight simulations are not waited
        for (a scale-1.0 cell runs for minutes).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepWorker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def step(self) -> int:
        """One lease/compute/settle round; returns the cells leased.

        Zero means the queue had nothing for us — the caller decides
        whether to wait and retry (:meth:`run`) or stop
        (:meth:`drain`).  While the batch computes, a heartbeat thread
        renews expiring leases, so a batch that outlives one lease
        window is not reclaimed out from under us (only *crashed*
        workers stop renewing).
        """
        leases = self._lease()
        if not leases:
            return 0
        self.batches += 1
        self.leased += len(leases)
        self._batch_size.observe(len(leases))
        self._maybe_crash("leased", leases)
        heartbeat_stop = threading.Event()
        heartbeat = self._start_heartbeat(leases, heartbeat_stop)
        started = time.perf_counter()
        try:
            outcomes = self._compute([lease.scenario for lease in leases])
        finally:
            self._compute_seconds.observe(time.perf_counter() - started)
            heartbeat_stop.set()
            if heartbeat is not None:
                heartbeat.join(timeout=10.0)
        self._maybe_crash("computed", leases)
        started = time.perf_counter()
        statuses = self._settle(leases, outcomes)
        self._push_seconds.observe(time.perf_counter() - started)
        for status in statuses:
            if status in ("done", "already-done"):
                self.completed += 1  # landed (here or via a retry race)
            elif status in ("failed", "requeued"):
                self.failed += 1  # our computation errored
            else:  # stale-lease / bad-payload / unknown: wasted work,
                self.rejected += 1  # but never wrong results
        return len(leases)

    def _lease(self) -> List[Lease]:
        if self.queue is not None:
            return self.queue.lease_wait(
                self.lease_n, timeout=self.poll_s, worker=self.name,
                lease_seconds=math.inf,
            )
        return [
            Lease.from_dict(entry)
            for entry in self.client.lease(n=self.lease_n, worker=self.name)
        ]

    def _settle(
        self, leases: Sequence[Lease], outcomes: Sequence[Outcome]
    ) -> List[str]:
        """Hand each cell's outcome to the queue; its status per cell."""
        if self.queue is not None:
            return [
                self.queue.fail(lease.fingerprint, lease.token, outcome)
                if isinstance(outcome, Exception)
                else self.queue.complete_local(
                    lease.fingerprint, lease.token, outcome
                )
                for lease, outcome in zip(leases, outcomes)
            ]
        completions: List[Dict[str, object]] = []
        for lease, outcome in zip(leases, outcomes):
            entry: Dict[str, object] = {
                "fingerprint": lease.fingerprint, "lease": lease.token,
            }
            if isinstance(outcome, Exception):
                entry["error"] = f"{type(outcome).__name__}: {outcome}"
            else:
                entry["payload"] = outcome.to_dict()
            completions.append(entry)
        return self.client.complete(completions)["statuses"]

    def _maybe_crash(self, stage: str, leases: Sequence[Lease]) -> None:
        """Fault hook: die holding the batch (site ``worker.compute``)."""
        if self.faults is None:
            return
        rule = self.faults.fire(
            "worker.compute", stage=stage, worker=self.name,
            fingerprints=[lease.fingerprint for lease in leases],
        )
        if rule is not None and rule.kind == "crash":
            from repro.faults import WorkerCrashed

            self.close()
            raise WorkerCrashed(
                f"worker {self.name} crashed ({stage}) holding "
                f"{len(leases)} lease(s)"
            )

    def _start_heartbeat(
        self, leases: Sequence[Lease], stop: threading.Event
    ) -> Optional[threading.Thread]:
        """Renew the given leases on a timer until ``stop`` is set."""
        windows = [
            lease.expires_s for lease in leases if lease.expires_s is not None
        ]
        if not windows:
            return None  # non-expiring leases: nothing to keep alive
        interval = max(0.05, min(windows) * 0.4)
        entries = [
            {"fingerprint": lease.fingerprint, "lease": lease.token}
            for lease in leases
        ]

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    self.client.renew(entries)
                except ServiceError:
                    pass  # server briefly away: the next beat retries

        thread = threading.Thread(
            target=beat, name=f"{self.name}-heartbeat", daemon=True
        )
        thread.start()
        return thread

    def _compute(self, scenarios: List[Scenario]) -> List[Outcome]:
        """Run one leased batch; one outcome per cell."""
        # Looked up per batch, so a wrapped run_sweep sees every batch.
        from repro.sim.session import run_sweep

        try:
            return run_sweep(scenarios, pool=self._pool)
        except Exception as exc:
            # A crashed pool process poisons the whole pool: rebuild
            # it, or every later batch would raise BrokenProcessPool.
            if isinstance(exc, BrokenProcessPool) and self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = self._start_pool()
            return self._one_by_one(scenarios)

    def _one_by_one(self, scenarios: List[Scenario]) -> List[Outcome]:
        """Error fallback: one independent outcome per cell.

        ``run_sweep`` aborts a batch on its first failure, discarding
        everything computed before it — one bad cell must not void (or
        re-bill) its co-leased cells.  With a pool the cells still run
        in parallel.
        """
        from repro.sim.session import run_scenario, run_sweep

        pending: List[object] = []
        for scenario in scenarios:
            try:
                pending.append(
                    run_sweep([scenario])[0] if self._pool is None
                    else self._pool.submit(run_scenario, scenario)
                )
            except Exception as exc:
                pending.append(exc)
        outcomes: List[Outcome] = []
        for item in pending:
            if isinstance(item, Future):
                try:
                    item = item.result()
                except Exception as exc:
                    item = exc
            outcomes.append(item)
        return outcomes

    # ------------------------------------------------------------------
    def run(
        self,
        stop: Optional[threading.Event] = None,
        drain: bool = False,
    ) -> None:
        """The worker loop: lease, compute, settle, repeat.

        ``drain=True`` exits on the first empty lease (batch jobs, CI);
        otherwise the loop idles until ``stop`` is set (or forever —
        the ``repro worker`` foreground, ended by Ctrl-C/SIGTERM, which
        set ``stop`` so the in-flight batch finishes and settles before
        the loop exits).  Over a URL an empty lease is followed by a
        ``poll_s`` sleep; over an in-process queue the lease itself
        waited, and the loop also ends once the queue shuts down.

        Transport-class failures (server restarting or unreachable)
        are retried with the idle backoff, but only
        ``connect_retries`` times *consecutively*: a worker pointed at
        a dead server raises a terminal
        :class:`~repro.errors.ServiceError` instead of looping
        silently forever.  Any successful round resets the budget.
        The process pool is released on exit (and restarted by the
        next :meth:`run`)."""
        if self._pool is None:
            self._pool = self._start_pool()
        consecutive_failures = 0
        last_error: Optional[ServiceError] = None
        try:
            while stop is None or not stop.is_set():
                try:
                    processed = self.step()
                    consecutive_failures = 0
                except ServiceError as exc:
                    if exc.status is not None and exc.status < 500:
                        raise  # our requests are malformed: a real bug
                    # Server restarting / unreachable: back off, retry
                    # — but not forever.
                    consecutive_failures += 1
                    last_error = exc
                    if consecutive_failures >= self.connect_retries:
                        raise ServiceError(
                            f"server {self.client.base_url} unreachable: "
                            f"{consecutive_failures} consecutive failed "
                            f"round(s), giving up (last: {last_error})",
                            status=exc.status,
                        ) from None
                    processed = 0
                if processed:
                    continue
                if drain and consecutive_failures == 0:
                    return
                if self.queue is not None:
                    if self.queue.closed:
                        return
                    continue  # lease_wait already waited for work
                if stop is not None and stop.wait(self.poll_s):
                    return
                if stop is None:
                    time.sleep(self.poll_s)
        finally:
            self.close()

    def drain(self) -> int:
        """Run until the queue is empty; returns cells completed."""
        before = self.completed
        self.run(drain=True)
        return self.completed - before
