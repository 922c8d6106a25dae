"""Threaded HTTP frontend: serve sweep results, coordinate workers.

``repro serve --store results.sqlite --port 8321`` answers scenario
traffic with zero simulation for anything previously seen, and fronts
the distributed work queue that fans cold sweeps out across machines:

* ``POST /scenario`` — a spec (full ``Scenario.to_dict()`` or CLI-style
  shorthand, see :mod:`repro.service.spec`); a store hit is answered
  straight from the archive, a miss becomes a work-queue cell and the
  request blocks until the local worker or a remote worker lands it.
* ``POST /queue`` — submit a sweep (``{"scenarios": [spec, ...]}``) as
  one asynchronous job; returns the job id and per-cell fingerprints.
  Cells already stored are done on arrival; in-flight duplicates are
  shared, never recomputed.
* ``GET /queue/lease?n=K&worker=NAME`` — a worker pulls up to K
  serialized scenarios, each with a lease token + expiry; cells of
  crashed workers are re-leased after expiry.
* ``POST /queue/complete`` — a worker pushes computed
  ``(fingerprint, lease, payload)`` triples home through the queue's
  single-writer path; stale leases are rejected without touching the
  store.
* ``POST /queue/renew`` — a worker extends its live leases while a
  long batch computes, so only *crashed* workers' cells expire.
* ``GET /queue/jobs/<id>`` — job progress: pending/leased/done/failed.
* ``GET /results`` — column-filtered listing (``?workload=fft&seed=7``),
  the store's indexed :meth:`~repro.store.base.ResultStore.query`.
* ``GET /results/<fingerprint-prefix>`` — one stored payload.
* ``GET /healthz`` — liveness + record count.
* ``GET /stats`` — service hit/miss counters, the local worker's
  batching counters, queue counters, store accounting.
* ``GET /metrics`` — the full observability registry: Prometheus text
  exposition by default, ``?format=json`` for structured snapshots,
  ``?prefix=repro_queue`` to filter.  The counters ``/stats`` reports
  are exposed here through callback instruments reading the *same*
  variables, so the two endpoints can never disagree.

Everything is stdlib (``http.server`` + ``json``); responses are JSON
with correct ``Content-Length``, so HTTP/1.1 keep-alive works and a
warm request costs one round-trip.  Handler threads only read the
store; every write funnels through the work queue's completion path —
the single-writer discipline the store backends are built around.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ConfigurationError, ReproError
from repro.obs.logs import StructuredLogger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import span_metric_name
from repro.scenario import Scenario, scenario_fingerprint
from repro.service.queue import WorkQueue
from repro.service.spec import scenario_from_request
from repro.service.worker import SweepWorker
from repro.store import EvictionPolicy, ResultStore, open_store

#: Query keys of ``GET /results`` that need numeric coercion (query
#: strings are text; the store's columns are typed).
_NUMERIC_FILTERS = {"dram_ns": float, "scale": float, "seed": int}

#: Largest accepted POST body.  Full specs are a few KB and worker
#: completion batches a few hundred KB; anything near this bound is
#: garbage, refused with 413 before a single body byte is buffered.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Most cells accepted in one ``POST /queue`` submission.
MAX_JOB_CELLS = 10_000

#: Most cells leased by one ``GET /queue/lease`` call.
MAX_LEASE_N = 1_000

#: Name of the local worker's thread (the service's only store writer).
LOCAL_WORKER = "repro-service-executor"


class ScenarioServer:
    """The service frontend: store + work queue + local worker + listener.

    ``store`` is a path-like spec (as ``open_store`` takes) or an
    existing :class:`ResultStore`; ``jobs`` is forwarded to the local
    :class:`~repro.service.worker.SweepWorker` that drains the queue
    in-process (``None`` = compute misses serially on its thread,
    ``N`` = fan each batch out to worker processes);
    ``local_compute=False`` starts no local worker at all — the server
    is a pure coordinator and every cell waits for a remote
    ``repro worker``.
    ``lease_seconds`` bounds how long a remote worker may sit on a cell
    before it is re-leased; ``max_attempts`` is the per-cell attempt
    budget before a poison cell is dead-lettered (see
    :class:`~repro.service.queue.WorkQueue`).  ``port=0`` binds an
    ephemeral port (tests, benchmarks).

    ``shards``/``policy`` are forwarded to :func:`~repro.store.open_store`
    (sharded directory, eviction caps).  ``reuse_port``/``internal``/
    ``proc_index`` are the prefork wiring
    (:class:`repro.service.prefork.PreforkServer`): K workers bind the
    same frontend port with ``SO_REUSEPORT``, each also listens on an
    ephemeral *internal* port, and :meth:`set_peers` tells every worker
    where the others are so cold fingerprints are proxied to the worker
    owning their shard.
    """

    def __init__(
        self,
        store: Union[str, ResultStore],
        jobs: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = 600.0,
        local_compute: bool = True,
        lease_seconds: float = 60.0,
        max_attempts: int = 5,
        registry: Optional[MetricsRegistry] = None,
        access_log: bool = False,
        log_json: bool = False,
        shards: Optional[int] = None,
        policy: Optional[EvictionPolicy] = None,
        reuse_port: bool = False,
        internal: bool = False,
        proc_index: int = 0,
    ) -> None:
        self._owns_store = not isinstance(store, ResultStore)
        self.store = open_store(store, shards=shards, policy=policy)
        self.request_timeout = request_timeout
        self.registry = registry if registry is not None else default_registry()
        self.queue = WorkQueue(
            self.store, lease_seconds=lease_seconds,
            max_attempts=max_attempts, registry=self.registry,
        )
        self.local_worker: Optional[SweepWorker] = None
        self._local_stop = threading.Event()
        self._local_thread: Optional[threading.Thread] = None
        if local_compute:
            worker = SweepWorker(
                self.queue, jobs=jobs, poll_s=0.25, name=LOCAL_WORKER
            )
            # Cells per local batch: bounded so a non-expiring local
            # lease cannot swallow a whole submitted sweep and starve
            # remote workers; large enough to keep the batching, dedup
            # and trace-reuse wins for request bursts.
            worker.lease_n = max(16, 4 * (worker.jobs or 1))
            self.local_worker = worker
            self._local_thread = threading.Thread(
                target=worker.run, args=(self._local_stop,),
                name=LOCAL_WORKER, daemon=True,
            )
            self._local_thread.start()
        self.jobs = self.local_worker.jobs if self.local_worker else 0
        self.requests = 0
        self.hits = 0
        self.misses = 0
        #: ``POST /scenario`` misses proxied to the owning prefork peer.
        self.forwarded = 0
        self._stats_lock = threading.Lock()
        #: Prefork group wiring (set by :meth:`set_peers`): index i is
        #: (host, port) of worker i's internal listener.
        self.proc_index = proc_index
        self._peers: List[Tuple[str, int]] = []
        self._peer_local = threading.local()
        self._peer_conns: List[http.client.HTTPConnection] = []
        self._peer_conns_lock = threading.Lock()
        #: Opt-in structured request log (``repro serve --access-log``).
        self.access_logger = StructuredLogger(
            "service.access", json_lines=log_json, enabled=access_log,
        )
        self._wire_metrics()
        self._internal_httpd: Optional[_ServiceHTTPServer] = None
        self._internal_thread: Optional[threading.Thread] = None
        try:
            self._httpd = _ServiceHTTPServer(
                (host, port), _ServiceHandler, reuse_port=reuse_port
            )
        except (OSError, ConfigurationError):
            # Bind failed (port in use, bad host): release what
            # __init__ already started, or a caller retrying ports
            # leaks one worker thread + store connection per attempt.
            self._release_components()
            raise
        if internal:
            try:
                self._internal_httpd = _ServiceHTTPServer(
                    (host, 0), _ServiceHandler
                )
            except OSError:
                self._httpd.server_close()
                self._release_components()
                raise
            self._internal_httpd.service = self
        self._httpd.service = self
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    def _release_components(self) -> None:
        self._stop_local_worker(timeout=10.0)
        self.queue.shutdown()
        if self._owns_store:
            self.store.close()

    def _stop_local_worker(self, timeout: float) -> None:
        """Stop the local worker's loop; wait up to ``timeout`` for its
        in-flight batch to settle, then release its process pool."""
        if self.local_worker is None:
            return
        self._local_stop.set()
        self._local_thread.join(timeout)
        self.local_worker.close()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def internal_port(self) -> Optional[int]:
        """Port of the internal (peer-to-peer) listener, if any."""
        if self._internal_httpd is None:
            return None
        return self._internal_httpd.server_address[1]

    @property
    def internal_url(self) -> Optional[str]:
        port = self.internal_port
        return None if port is None else f"http://{self.host}:{port}"

    def serve_forever(self) -> None:
        """Block serving requests (the ``repro serve`` foreground)."""
        self._serving = True
        self._start_internal()
        self._httpd.serve_forever()

    def start(self) -> "ScenarioServer":
        """Serve on a background thread (tests, benchmarks, embedding)."""
        self._serving = True
        self._start_internal()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-listener",
            daemon=True,
        )
        self._thread.start()
        return self

    def _start_internal(self) -> None:
        if self._internal_httpd is not None and self._internal_thread is None:
            self._internal_thread = threading.Thread(
                target=self._internal_httpd.serve_forever,
                name="repro-service-internal",
                daemon=True,
            )
            self._internal_thread.start()

    def close(self, drain_s: float = 10.0) -> None:
        """Graceful shutdown: refuse new work, drain, release the store.

        The ordered drain a SIGTERM (``repro serve``) triggers:

        1. stop the listener — no new requests are accepted;
        2. stop the local worker and wait up to ``drain_s`` seconds —
           an in-flight batch finishes and its results land through the
           queue's single-writer path (never a torn write mid-result);
        3. shut the queue down — every still-unfinished cell fails its
           waiters with a clear "service closed" instead of hanging
           them, and later completions from remote workers are
           answered ``unknown``/``already-done``, never half-applied;
        4. flush and close the store (when this server opened it).
        """
        if self._serving:
            # shutdown() waits on an event only serve_forever() sets;
            # calling it on a never-started server deadlocks forever.
            self._httpd.shutdown()
        if self._internal_thread is not None:
            self._internal_httpd.shutdown()
        self._httpd.server_close()
        if self._internal_httpd is not None:
            self._internal_httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._internal_thread is not None:
            self._internal_thread.join(timeout=10.0)
            self._internal_thread = None
        with self._peer_conns_lock:
            conns, self._peer_conns = self._peer_conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        self._stop_local_worker(timeout=drain_s)
        self.queue.shutdown("service closed")
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "ScenarioServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Prefork peer wiring
    # ------------------------------------------------------------------
    def set_peers(
        self, urls: Sequence[str], proc_index: Optional[int] = None
    ) -> None:
        """Wire this server into a prefork group.

        ``urls[i]`` is the internal listener of worker ``i`` (this
        worker's own entry included).  A cold fingerprint is proxied to
        the worker owning its shard (``shard % len(urls)``) so each
        shard keeps exactly one writing queue; batch/queue traffic is
        proxied to worker 0, the group's single coordinator.
        """
        parsed: List[Tuple[str, int]] = []
        for url in urls:
            split = urlsplit(url)
            if split.hostname is None or split.port is None:
                raise ConfigurationError(
                    f"peer URL needs host:port, got {url!r}"
                )
            parsed.append((split.hostname, split.port))
        self._peers = parsed
        if proc_index is not None:
            self.proc_index = proc_index

    def forwards_queue(self) -> bool:
        """Whether queue traffic is proxied to the group coordinator."""
        return bool(self._peers) and self.proc_index != 0

    def owner_of(self, fingerprint: str) -> int:
        """Index of the prefork peer whose queue owns ``fingerprint``."""
        if not self._peers:
            return self.proc_index
        shard_of = getattr(self.store, "shard_of", None)
        if shard_of is None:
            return 0  # unsharded group: worker 0 is the only writer
        return shard_of(fingerprint) % len(self._peers)

    def _peer_connection(self, index: int) -> http.client.HTTPConnection:
        conns = getattr(self._peer_local, "conns", None)
        if conns is None:
            conns = self._peer_local.conns = {}
        conn = conns.get(index)
        if conn is None:
            host, port = self._peers[index]
            conn = http.client.HTTPConnection(
                host, port, timeout=self.request_timeout
            )
            conns[index] = conn
            with self._peer_conns_lock:
                self._peer_conns.append(conn)
        return conn

    def _drop_peer_connection(self, index: int) -> None:
        conns = getattr(self._peer_local, "conns", None) or {}
        conn = conns.pop(index, None)
        if conn is None:
            return
        with self._peer_conns_lock:
            try:
                self._peer_conns.remove(conn)
            except ValueError:
                pass
        try:
            conn.close()
        except OSError:
            pass

    def forward_request(
        self,
        index: int,
        method: str,
        path: str,
        body: Optional[bytes] = None,
    ) -> Tuple[int, bytes]:
        """Proxy one request to peer ``index``; ``(status, body bytes)``.

        One keep-alive connection per (handler thread, peer); a
        connection-level failure retries once on a fresh socket —
        every proxied route is idempotent (fingerprint-keyed POSTs and
        pure reads), so a blind re-send is safe.
        """
        last: Optional[Exception] = None
        for _attempt in (1, 2):
            conn = self._peer_connection(index)
            try:
                conn.request(method, path, body=body, headers={
                    "Content-Type": "application/json",
                    "Connection": "keep-alive",
                })
                response = conn.getresponse()
                data = response.read()
                if response.will_close:
                    self._drop_peer_connection(index)
                return response.status, data
            except (http.client.HTTPException, OSError) as exc:
                self._drop_peer_connection(index)
                last = exc
        raise ConnectionError(f"peer {index} unreachable: {last}")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _wire_metrics(self) -> None:
        """Attach every serving instrument to the registry.

        The per-instance ints (``requests``/``hits``/``misses``, the
        queue and store counters) remain the single source of truth —
        ``/stats`` reads them directly and ``/metrics`` reads the same
        attributes through callbacks at exposition time, so the two
        endpoints can never disagree.  Native instruments (latency
        histograms, the in-flight gauge) accumulate process-wide.
        """
        registry = self.registry
        self._request_seconds = registry.histogram(
            "repro_service_request_seconds",
            help="HTTP request latency (all routes)",
        )
        self._inflight = registry.gauge(
            "repro_service_inflight_requests",
            help="HTTP requests currently being handled",
        )
        registry.bind(
            "repro_service_requests_total", lambda: self.requests,
            kind="counter", help="HTTP requests received",
        )
        registry.bind(
            "repro_service_hits_total", lambda: self.hits,
            kind="counter", help="POST /scenario answered from the store",
        )
        registry.bind(
            "repro_service_misses_total", lambda: self.misses,
            kind="counter", help="POST /scenario that had to compute",
        )
        # The serving store's accounting (rebinds whatever an earlier
        # store instance registered — the served store wins).
        registry.bind(
            "repro_store_hits_total", lambda: self.store.hits,
            kind="counter", help="store lookups served from the archive",
        )
        registry.bind(
            "repro_store_misses_total", lambda: self.store.misses,
            kind="counter",
            help="store lookups that found nothing servable",
        )
        registry.bind(
            "repro_store_records", lambda: len(self.store), kind="gauge",
            help="records in the serving result store",
        )
        registry.bind(
            "repro_store_evictions_total",
            lambda: self.store.counters()["evictions"], kind="counter",
            help="records dropped by the eviction policy",
        )
        registry.bind(
            "repro_store_bytes",
            lambda: self.store.bytes_used() or 0, kind="gauge",
            help="live payload bytes in the serving result store",
        )
        registry.bind(
            "repro_service_forwarded_total", lambda: self.forwarded,
            kind="counter",
            help="POST /scenario proxied to the owning prefork worker",
        )
        # Pre-register the worker and engine-phase families so a scrape
        # sees the full instrument set (zero-count histograms) even
        # before the first batch computes.  With the default registry
        # these are the very objects the worker loop and the engine
        # tracer record into.
        for name, doc in (
            ("repro_worker_compute_seconds",
             "wall time of one leased batch's computation"),
            ("repro_worker_push_seconds",
             "wall time pushing one batch's completions home"),
            (span_metric_name("engine.trace_gen"),
             "duration of 'engine.trace_gen' spans"),
            (span_metric_name("engine.simulate"),
             "duration of 'engine.simulate' spans"),
            (span_metric_name("engine.persist"),
             "duration of 'engine.persist' spans"),
        ):
            registry.histogram(name, help=doc)

    def begin_request(self) -> None:
        self.count_request()
        self._inflight.inc()

    def finish_request(
        self, method: str, path: str, status: int, duration_s: float
    ) -> None:
        self._inflight.dec()
        self._request_seconds.observe(duration_s)
        self.access_logger.log(
            "request",
            method=method,
            path=path,
            status=status,
            duration_ms=round(duration_s * 1000.0, 3),
            worker=threading.current_thread().name,
        )

    def handle_metrics(self, query: str) -> Tuple[str, str]:
        """``GET /metrics`` — ``(content type, body)`` of the registry.

        Prometheus text exposition by default; ``?format=json`` returns
        the structured snapshot (what :meth:`ServiceClient.metrics`
        parses); ``?prefix=`` filters either form by instrument name.
        """
        params = dict(parse_qsl(query))
        prefix = params.get("prefix") or None
        fmt = params.get("format", "text")
        if fmt == "json":
            body = json.dumps(self.registry.snapshot(prefix=prefix))
            return "application/json", body
        if fmt != "text":
            raise ConfigurationError(
                f"unknown metrics format {fmt!r} (use 'text' or 'json')"
            )
        return (
            "text/plain; version=0.0.4; charset=utf-8",
            self.registry.render_prometheus(prefix=prefix),
        )

    # ------------------------------------------------------------------
    # Request logic (handlers call these; HTTP plumbing stays below)
    # ------------------------------------------------------------------
    def serve_scenario(
        self, scenario: Scenario, raw_body: Optional[bytes] = None
    ) -> bytes:
        """``POST /scenario`` fast path: the response body, as bytes.

        A warm hit is answered from the store's raw payload text — one
        indexed point read, no JSON parse or re-serialization on the
        hot path.  A miss owned by a prefork peer is proxied to that
        peer (each shard keeps exactly one writing queue); a miss owned
        here becomes a work-queue cell and the request blocks until it
        lands.
        """
        fingerprint = scenario_fingerprint(scenario)
        raw = self.store.get_raw(fingerprint)
        if raw is not None:
            with self._stats_lock:
                self.hits += 1
            return (
                f'{{"fingerprint": "{fingerprint}", "cached": true, '
                f'"result": {raw}}}'
            ).encode("utf-8")
        owner = self.owner_of(fingerprint)
        if self._peers and owner != self.proc_index:
            if raw_body is None:
                raw_body = json.dumps(
                    {"scenario": scenario.to_dict()}
                ).encode("utf-8")
            try:
                status, body = self.forward_request(
                    owner, "POST", "/scenario", raw_body
                )
            except OSError:
                # Owner down: compute here — replay determinism makes
                # the result identical, it just isn't the shard's
                # usual writer.
                pass
            else:
                if status == 200:
                    with self._stats_lock:
                        self.forwarded += 1
                    return body
        with self._stats_lock:
            self.misses += 1
        future = self.queue.submit_scenario(scenario)
        result = future.result(self.request_timeout)
        return json.dumps({
            "fingerprint": fingerprint,
            "cached": False,
            "result": result.to_dict(),
        }).encode("utf-8")

    def handle_scenario(self, scenario: Scenario) -> Dict[str, object]:
        """Serve one scenario; the parsed response envelope."""
        return json.loads(self.serve_scenario(scenario).decode("utf-8"))

    def parse_queue_submit(self, body: object) -> List[Scenario]:
        """Validate a ``POST /queue`` body into its scenario cells."""
        if not isinstance(body, dict) or "scenarios" not in body:
            raise ConfigurationError(
                'queue submissions need {"scenarios": [spec, ...]}'
            )
        extras = set(body) - {"scenarios"}
        if extras:
            raise ConfigurationError(
                f"unexpected keys {sorted(extras)} next to 'scenarios'"
            )
        specs = body["scenarios"]
        if not isinstance(specs, list) or not specs:
            raise ConfigurationError(
                "'scenarios' must be a non-empty list of scenario specs"
            )
        if len(specs) > MAX_JOB_CELLS:
            raise ConfigurationError(
                f"job too large: {len(specs)} cells (max {MAX_JOB_CELLS})"
            )
        return [scenario_from_request(spec) for spec in specs]

    def handle_lease(self, query: str) -> Dict[str, object]:
        """``GET /queue/lease`` — hand cells to a pulling worker."""
        params = dict(parse_qsl(query))
        try:
            n = int(params.get("n", "1"))
        except ValueError:
            raise ConfigurationError(
                f"lease count 'n' needs an integer, got {params['n']!r}"
            ) from None
        if n < 1 or n > MAX_LEASE_N:
            raise ConfigurationError(
                f"lease count must be 1..{MAX_LEASE_N}, got {n}"
            )
        leases = self.queue.lease(n, worker=params.get("worker", ""))
        return {"leases": [lease.to_dict() for lease in leases]}

    def parse_completions(self, body: object) -> List[Dict[str, object]]:
        """Validate a ``POST /queue/complete`` body (shape only)."""
        if not isinstance(body, dict) or "results" not in body:
            raise ConfigurationError(
                'completions need {"results": [{"fingerprint", "lease", '
                '"payload"|"error"}, ...]}'
            )
        items = body["results"]
        if not isinstance(items, list):
            raise ConfigurationError("'results' must be a list")
        for item in items:
            if not isinstance(item, dict) or "fingerprint" not in item \
                    or "lease" not in item:
                raise ConfigurationError(
                    "every completion needs 'fingerprint' and 'lease'"
                )
            if "payload" not in item and "error" not in item:
                raise ConfigurationError(
                    "every completion needs a 'payload' or an 'error'"
                )
        return items

    def apply_completions(
        self, items: List[Dict[str, object]]
    ) -> Dict[str, object]:
        """Push validated completions into the queue.

        Per-item outcomes (one bad entry must not void a worker's whole
        batch): each status is ``done`` / ``already-done`` /
        ``stale-lease`` / ``bad-payload`` / ``failed`` / ``unknown``.
        """
        statuses: List[str] = []
        for item in items:
            fingerprint = str(item["fingerprint"])
            token = str(item["lease"])
            if "error" in item:
                statuses.append(
                    self.queue.fail(fingerprint, token, str(item["error"]))
                )
            else:
                statuses.append(
                    self.queue.complete(fingerprint, token, item["payload"])
                )
        accepted = sum(1 for status in statuses if status == "done")
        return {"statuses": statuses, "accepted": accepted}

    def parse_renewals(self, body: object) -> List[Dict[str, object]]:
        """Validate a ``POST /queue/renew`` body (shape only)."""
        if not isinstance(body, dict) or "leases" not in body \
                or not isinstance(body["leases"], list):
            raise ConfigurationError(
                'renewals need {"leases": [{"fingerprint", "lease"}, ...]}'
            )
        for item in body["leases"]:
            if not isinstance(item, dict) or "fingerprint" not in item \
                    or "lease" not in item:
                raise ConfigurationError(
                    "every renewal needs 'fingerprint' and 'lease'"
                )
        return body["leases"]

    def apply_renewals(
        self, items: List[Dict[str, object]]
    ) -> Dict[str, object]:
        """Extend the given leases; per-item statuses."""
        statuses = [
            self.queue.renew(str(item["fingerprint"]), str(item["lease"]))
            for item in items
        ]
        return {"statuses": statuses,
                "renewed": sum(1 for s in statuses if s == "renewed")}

    def handle_job(self, job_id: str) -> Dict[str, object]:
        """``GET /queue/jobs/<id>`` — progress of one job."""
        return self.queue.job_status(job_id)

    def handle_query(self, query: str) -> Dict[str, object]:
        """``GET /results`` — the store's column-filtered listing."""
        filters: Dict[str, object] = {}
        for key, value in parse_qsl(query):
            coerce = _NUMERIC_FILTERS.get(key)
            if coerce is not None:
                try:
                    value = coerce(value)
                except ValueError:
                    raise ConfigurationError(
                        f"filter {key!r} needs a number, got {value!r}"
                    ) from None
            filters[key] = value
        records = self.store.query(**filters)
        return {"count": len(records), "records": records}

    def handle_result(self, prefix: str) -> Dict[str, object]:
        """``GET /results/<prefix>`` — one stored payload."""
        fingerprint = self.store.resolve_prefix(prefix)
        payload = self.store.get(fingerprint)
        if payload is None:
            tag = self.store.schema_tag(fingerprint)
            raise ConfigurationError(
                f"record {fingerprint} has stale schema {tag!r}; "
                f"run `repro results gc` on the store"
            )
        return {"fingerprint": fingerprint, "result": payload}

    def handle_stats(self) -> Dict[str, object]:
        # One lock acquisition per component: each counter family is
        # snapshotted atomically (service under _stats_lock, the queue
        # under its own lock, the store under its counters lock), so
        # the numbers within a family are always mutually consistent.
        with self._stats_lock:
            requests, hits, misses = self.requests, self.hits, self.misses
            forwarded = self.forwarded
        worker = self.local_worker
        queue_stats = self.queue.stats()
        store_counters = self.store.counters()
        store_block: Dict[str, object] = {
            "records": len(self.store),
            **store_counters,
            "bytes": self.store.bytes_used(),
            "path": getattr(self.store, "path", None)
            and str(self.store.path),
        }
        if self.store.policy is not None:
            store_block["policy"] = self.store.policy.describe()
        shard_stats = getattr(self.store, "shard_stats", None)
        if shard_stats is not None:
            store_block["shards"] = shard_stats()
        return {
            "requests": requests,
            "hits": hits,
            "misses": misses,
            "forwarded": forwarded,
            "pending": queue_stats["pending"] + queue_stats["leased"],
            "batches": worker.batches if worker else 0,
            "batched_scenarios": worker.leased if worker else 0,
            "jobs": self.jobs or (1 if worker else 0),
            "local_compute": worker is not None,
            "proc_index": self.proc_index,
            "procs": len(self._peers) or 1,
            "queue": queue_stats,
            "store": store_block,
        }

    def handle_healthz(self) -> Dict[str, object]:
        return {"status": "ok", "records": len(self.store)}

    def count_request(self) -> None:
        with self._stats_lock:
            self.requests += 1


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: ScenarioServer  # attached by ScenarioServer.__init__

    def __init__(
        self,
        server_address: Tuple[str, int],
        RequestHandlerClass: type,
        reuse_port: bool = False,
    ) -> None:
        self._reuse_port = reuse_port
        super().__init__(server_address, RequestHandlerClass)

    def server_bind(self) -> None:
        if self._reuse_port:
            # The prefork frontend: K worker processes bind the same
            # port and the kernel load-balances accepted connections.
            if not hasattr(socket, "SO_REUSEPORT"):
                raise ConfigurationError(
                    "this platform has no SO_REUSEPORT; serve with --procs 1"
                )
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class _ServiceHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"  # keep-alive (every reply sets Content-Length)
    # Responses go out as two writes (header flush, then body).  On a
    # kept-alive connection Nagle holds the second write until the
    # client ACKs the first, and the client's delayed ACK turns every
    # warm hit into a ~40 ms stall — so no Nagle here.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: object) -> None:
        # BaseHTTPRequestHandler's stderr chatter stays off; the opt-in
        # structured access log (``repro serve --access-log``) is
        # emitted by ScenarioServer.finish_request instead.
        pass

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._status = code  # captured for the access log / histogram
        super().send_response(code, message)

    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, "application/json", body)

    def _send_body(
        self, status: int, content_type: str, body: bytes
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        try:
            self._send_json(status, {"error": message})
        except OSError:  # pragma: no cover - client gone mid-response
            self.close_connection = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        self._observed(self._route_get)

    def do_POST(self) -> None:
        self._observed(self._route_post)

    def _observed(self, route) -> None:
        """Run one routed request under the serving instruments.

        Counts it, tracks it in the in-flight gauge, observes its
        latency, and (when enabled) emits one structured access-log
        line with the captured response status.
        """
        service = self.server.service
        service.begin_request()
        self._status = 0  # stays 0 if the connection dies pre-response
        started = time.perf_counter()
        try:
            route(service)
        finally:
            service.finish_request(
                self.command,
                self.path,
                self._status,
                time.perf_counter() - started,
            )

    def _proxy(
        self,
        service: ScenarioServer,
        method: str,
        path: str,
        body: Optional[bytes] = None,
    ) -> None:
        """Pass one request through to the group's queue coordinator."""
        try:
            status, data = service.forward_request(0, method, path, body)
        except OSError as exc:
            self._send_error(503, f"queue coordinator unreachable: {exc}")
            return
        try:
            self._send_body(status, "application/json", data)
        except OSError:  # pragma: no cover - client went away
            self.close_connection = True

    def _route_get(self, service: ScenarioServer) -> None:
        url = urlsplit(self.path)
        if url.path.startswith("/queue") and service.forwards_queue():
            # The queue lives on worker 0; every other prefork worker
            # proxies queue reads there.
            self._proxy(service, "GET", self.path)
            return
        try:
            if url.path == "/healthz":
                self._send_json(200, service.handle_healthz())
            elif url.path == "/stats":
                self._send_json(200, service.handle_stats())
            elif url.path == "/metrics":
                try:
                    content_type, text = service.handle_metrics(url.query)
                except ConfigurationError as exc:
                    self._send_error(400, str(exc))
                else:
                    self._send_body(
                        200, content_type, text.encode("utf-8")
                    )
            elif url.path == "/queue/lease":
                try:
                    self._send_json(200, service.handle_lease(url.query))
                except ConfigurationError as exc:
                    self._send_error(400, str(exc))
            elif url.path.startswith("/queue/jobs/"):
                job_id = url.path[len("/queue/jobs/"):]
                try:
                    self._send_json(200, service.handle_job(job_id))
                except ConfigurationError as exc:
                    self._send_error(404, str(exc))
            elif url.path == "/queue/jobs":
                self._send_json(200, {"jobs": service.queue.jobs()})
            elif url.path == "/results":
                try:
                    self._send_json(200, service.handle_query(url.query))
                except ConfigurationError as exc:
                    self._send_error(400, str(exc))
            elif url.path.startswith("/results/"):
                prefix = url.path[len("/results/"):]
                try:
                    self._send_json(200, service.handle_result(prefix))
                except ConfigurationError as exc:
                    self._send_error(404, str(exc))
            else:
                self._send_error(404, f"no route {url.path!r}")
        except OSError:  # pragma: no cover - client went away
            self.close_connection = True
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    def _route_post(self, service: ScenarioServer) -> None:
        url = urlsplit(self.path)
        try:
            # Always drain the body first: on keep-alive connections an
            # unread body would be parsed as the next request line.
            if "chunked" in (self.headers.get("Transfer-Encoding") or "").lower():
                # No Content-Length to drain by — the chunk framing
                # would desynchronize the connection.
                self.close_connection = True
                self._send_error(411, "chunked bodies not supported; "
                                      "send Content-Length")
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self.close_connection = True
                self._send_error(400, "bad Content-Length header")
                return
            if length > MAX_BODY_BYTES or length < 0:
                self.close_connection = True  # body stays unread
                self._send_error(
                    413, f"request body over {MAX_BODY_BYTES} bytes"
                )
                return
            raw = self.rfile.read(length)
            if url.path not in ("/scenario", "/queue", "/queue/complete",
                                "/queue/renew"):
                self._send_error(404, f"no route {url.path!r}")
                return
            if url.path.startswith("/queue") and service.forwards_queue():
                # Body drained above, so the keep-alive connection
                # stays in sync; hand the queue write to worker 0.
                self._proxy(service, "POST", self.path, raw)
                return
            try:
                body = json.loads(raw or b"")
            except ValueError as exc:
                self._send_error(400, f"request body is not JSON: {exc}")
                return
            # Stage 1: validation (the caller's fault class -> 400).
            try:
                if url.path == "/scenario":
                    scenario = scenario_from_request(body)
                    execute = lambda: service.serve_scenario(scenario, raw)
                elif url.path == "/queue":
                    scenarios = service.parse_queue_submit(body)
                    execute = lambda: service.queue.submit_job(scenarios)
                elif url.path == "/queue/renew":
                    renewals = service.parse_renewals(body)
                    execute = lambda: service.apply_renewals(renewals)
                else:
                    completions = service.parse_completions(body)
                    execute = lambda: service.apply_completions(completions)
            except ReproError as exc:
                self._send_error(400, str(exc))
                return
            # Stage 2: execution (the server's fault class -> 500).
            try:
                out = execute()
                if isinstance(out, (bytes, bytearray)):
                    # /scenario's zero-parse fast path hands back the
                    # response body directly.
                    self._send_body(200, "application/json", bytes(out))
                else:
                    self._send_json(200, out)
            except OSError:  # pragma: no cover - client went away
                self.close_connection = True
            except Exception as exc:
                # The spec was valid but execution failed (engine error,
                # queue shutdown, timeout): the server's fault class.
                self._send_error(500, f"{type(exc).__name__}: {exc}")
        except OSError:  # pragma: no cover - client went away
            self.close_connection = True
