"""Result-store contract: content-addressed archive of executed cells.

A :class:`ResultStore` maps :func:`repro.scenario.scenario_fingerprint`
digests to ``ScenarioResult.to_dict()`` payloads.  Replay determinism
(ROADMAP Performance invariant 4) makes a result a pure function of
its fingerprint, so a hit is indistinguishable from re-simulating —
:func:`repro.sim.session.run_scenario` / ``run_sweep`` use that to
serve cached cells without running the engine.

Alongside the payload every backend records the queryable columns of
the spec (:data:`RECORD_COLUMNS`: workload, interconnect, power state,
DRAM latency, seed, scale), which drive :meth:`ResultStore.query` and
the ``repro results`` CLI.

Safety properties shared by all backends:

* *Schema-tagged.*  :meth:`get` refuses any payload whose tag differs
  from :data:`repro.sim.session.RESULT_SCHEMA` — a stale record after
  an engine change is a miss, never a wrong answer; :meth:`gc` drops
  such records for good.
* *Single-writer discipline.*  The executor writes results only from
  the parent process (workers just compute), so each cell is
  simulated and persisted once; concurrent *readers* are always fine.
* *Hit/miss accounting.*  ``hits``/``misses`` count every lookup
  through :meth:`get`, so callers (CLI, CI smoke) can assert a warm
  run did zero simulation.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.obs.metrics import default_registry
from repro.scenario import Scenario, canonical_json, scenario_fingerprint
from repro.sim.session import RESULT_SCHEMA, ScenarioResult
from repro.store.evict import EvictionPolicy

#: Queryable columns every backend records alongside the payload.
RECORD_COLUMNS = (
    "workload",
    "interconnect",
    "power_state",
    "dram_ns",
    "seed",
    "scale",
)


def record_columns(scenario: Scenario) -> Dict[str, object]:
    """The :data:`RECORD_COLUMNS` values of one scenario."""
    return {
        "workload": scenario.workload,
        "interconnect": scenario.interconnect,
        "power_state": scenario.power_state_name,
        "dram_ns": scenario.resolved_dram().access_latency_ns,
        "seed": scenario.seed,
        "scale": scenario.scale,
    }


class ResultStore(ABC):
    """Fingerprint-keyed archive of ``ScenarioResult`` payloads.

    Subclasses implement the raw primitives (``_get``/``_put``/
    ``_delete``/``fingerprints``/``__len__``); this base class layers
    schema checking, hit/miss accounting, scenario-level
    :meth:`load`/:meth:`save`, column queries and garbage collection
    on top.  Stores are context managers (``with open_store(p) as s:``).
    """

    def __init__(self, policy: Optional[EvictionPolicy] = None) -> None:
        self.hits = 0
        self.misses = 0
        #: Records dropped by the eviction policy (never by gc/delete).
        self.evictions = 0
        #: Optional :class:`~repro.store.evict.EvictionPolicy`; when
        #: set, every write enforces the caps (LRU by last access).
        self.policy = policy
        # The service reads through one store from many handler
        # threads; += on a plain int would lose counts under races.
        self._counters_lock = threading.Lock()
        # Evict-exempt fingerprints, refcounted: the queue pins every
        # in-flight cell, paper runs pin their manifest.  Per-instance
        # and in-memory only — pins protect a *serving process's*
        # live window, they are not durable metadata.
        self._pins: Dict[str, int] = {}
        # fingerprint -> last-access stamp (policy.clock()), kept only
        # while a policy is attached; protected by _counters_lock.
        self._access: Dict[str, float] = {}
        # Stamps touched since the backend last persisted them
        # (SqliteStore flushes these to its accessed_at column).
        self._dirty_access: Set[str] = set()
        # One enforcement at a time; concurrent writers queue up here
        # rather than double-evicting.
        self._evict_lock = threading.Lock()
        # Process-wide latency instruments; the per-instance ints above
        # stay the source of truth for hit/miss (exposed to /metrics as
        # callbacks by whoever owns the serving store).
        registry = default_registry()
        self._get_seconds = registry.histogram(
            "repro_store_get_seconds", help="result store get() latency"
        )
        self._put_seconds = registry.histogram(
            "repro_store_put_seconds", help="result store put() latency"
        )
        registry.bind(
            "repro_store_hits_total", lambda: self.hits, kind="counter",
            help="store lookups served from the archive",
        )
        registry.bind(
            "repro_store_misses_total", lambda: self.misses, kind="counter",
            help="store lookups that found nothing servable",
        )
        registry.bind(
            "repro_store_evictions_total", lambda: self.evictions,
            kind="counter",
            help="records dropped by the eviction policy",
        )

    def counters(self) -> Dict[str, int]:
        """Mutually consistent ``{"hits", "misses", "evictions"}``
        snapshot (one lock acquisition)."""
        with self._counters_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    # ------------------------------------------------------------------
    # Pins and access tracking (eviction support)
    # ------------------------------------------------------------------
    def pin(self, fingerprint: str) -> None:
        """Exempt ``fingerprint`` from eviction (refcounted).

        Pinning a fingerprint that is not (yet) stored is fine — the
        work queue pins cells *before* they compute, so the landing
        write can never race an eviction of its own result.
        """
        with self._counters_lock:
            self._pins[fingerprint] = self._pins.get(fingerprint, 0) + 1

    def unpin(self, fingerprint: str) -> None:
        """Drop one pin reference; unpinning an unpinned key is a no-op."""
        with self._counters_lock:
            count = self._pins.get(fingerprint, 0) - 1
            if count <= 0:
                self._pins.pop(fingerprint, None)
            else:
                self._pins[fingerprint] = count

    def pinned(self) -> frozenset:
        """The currently evict-exempt fingerprints."""
        with self._counters_lock:
            return frozenset(self._pins)

    def _touch(self, fingerprint: str) -> None:
        """Record an access for LRU ordering (no-op without a policy)."""
        if self.policy is None:
            return
        with self._counters_lock:
            self._access[fingerprint] = self.policy.clock()
            self._dirty_access.add(fingerprint)

    @abstractmethod
    def bytes_used(self) -> int:
        """Live payload bytes.

        "Live" means the canonical-JSON payload bytes of stored
        records — what ``max_mb`` caps — not the physical file size
        (SQLite has page overhead).
        """

    def _flush_access(self) -> None:
        """Persist dirty access stamps (backend hook; default no-op)."""
        self._dirty_access.clear()

    def _evict_one(self, fingerprint: str, cutoff: float) -> bool:
        """Evict one record unless it was touched after ``cutoff``.

        The re-check under the counters lock closes the race with a
        concurrent ``put``/``get`` of the same fingerprint: a record
        refreshed after the enforcement pass snapshotted its stamps is
        no longer the LRU victim the snapshot thought it was.
        """
        with self._counters_lock:
            stamp = self._access.get(fingerprint)
            if stamp is not None and stamp > cutoff:
                return False
            if self._pins.get(fingerprint, 0) > 0:
                return False
        if not self._delete(fingerprint):
            return False
        with self._counters_lock:
            self._access.pop(fingerprint, None)
            self._dirty_access.discard(fingerprint)
            self.evictions += 1
        return True

    def enforce_policy(self) -> int:
        """Apply the eviction policy now; returns records evicted.

        Runs automatically after every :meth:`put`; exposed so ``gc``
        and operators can force a pass (e.g. after attaching a policy
        to a store that grew without one).
        """
        policy = self.policy
        if policy is None:
            return 0
        with self._evict_lock:
            self._flush_access()
            cutoff = policy.clock()
            with self._counters_lock:
                stamps = sorted(self._access.items(), key=lambda kv: kv[1])
                pinned = set(self._pins)
            evicted = 0
            # TTL pass: age out untouched records regardless of size.
            if policy.ttl_s is not None:
                horizon = cutoff - policy.ttl_s
                for fingerprint, stamp in stamps:
                    if stamp > horizon:
                        break  # stamps ascend; the rest are fresh
                    if fingerprint in pinned:
                        continue
                    if self._evict_one(fingerprint, cutoff):
                        evicted += 1
            # Size pass: drop LRU records until within the caps.
            max_records = policy.max_records
            max_bytes = policy.max_bytes
            if max_records is not None or max_bytes is not None:
                count = len(self)
                victims = iter(stamps)
                while True:
                    over = max_records is not None and count > max_records
                    if not over and max_bytes is not None:
                        over = self.bytes_used() > max_bytes
                    if not over:
                        break
                    fingerprint = next(
                        (fp for fp, _ in victims if fp not in pinned), None
                    )
                    if fingerprint is None:
                        break  # everything left is pinned or fresh
                    if self._evict_one(fingerprint, cutoff):
                        count -= 1
                        evicted += 1
            return evicted

    # ------------------------------------------------------------------
    # Backend primitives
    # ------------------------------------------------------------------
    @abstractmethod
    def _get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """Raw payload for ``fingerprint``, or ``None``."""

    @abstractmethod
    def _put(
        self,
        fingerprint: str,
        payload: Dict[str, object],
        columns: Dict[str, object],
    ) -> None:
        """Insert or replace one record."""

    @abstractmethod
    def _delete(self, fingerprint: str) -> bool:
        """Remove one record; ``True`` if it existed."""

    @abstractmethod
    def fingerprints(self) -> List[str]:
        """Every stored fingerprint, in insertion order where the
        backend has one."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored records."""

    def close(self) -> None:
        """Release backend resources (file handles, connections)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Payload API
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The stored payload, or ``None`` (counted as hit/miss).

        A record whose schema tag is not the current
        :data:`~repro.sim.session.RESULT_SCHEMA` is treated as a miss:
        after an engine change bumps the tag, stale results are
        recomputed, never served.
        """
        started = time.perf_counter()
        payload = self._get(fingerprint)
        self._get_seconds.observe(time.perf_counter() - started)
        if payload is not None and payload.get("schema") != RESULT_SCHEMA:
            payload = None
        with self._counters_lock:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
                if self.policy is not None:
                    self._access[fingerprint] = self.policy.clock()
                    self._dirty_access.add(fingerprint)
        return payload

    def get_raw(self, fingerprint: str) -> Optional[str]:
        """The stored payload as canonical JSON text, or ``None``.

        Same semantics and hit/miss accounting as :meth:`get`; exists
        so the serving hot path can answer a warm hit without parsing
        and re-serializing the payload.  Indexed backends override
        this to return the stored text directly.
        """
        payload = self.get(fingerprint)
        return None if payload is None else canonical_json(payload)

    def put(
        self,
        fingerprint: str,
        payload: Dict[str, object],
        scenario: Optional[Scenario] = None,
    ) -> None:
        """Persist one payload under ``fingerprint``.

        ``scenario`` supplies the queryable columns; when omitted it is
        rebuilt from the payload's own spec.
        """
        if scenario is None:
            try:
                scenario = Scenario.from_dict(payload["scenario"])
            except (KeyError, TypeError) as exc:
                raise ConfigurationError(
                    f"payload carries no rebuildable scenario: {exc}"
                ) from exc
        started = time.perf_counter()
        self._touch(fingerprint)  # stamp before write: never its own victim
        self._put(fingerprint, payload, record_columns(scenario))
        self._put_seconds.observe(time.perf_counter() - started)
        if self.policy is not None:
            self.enforce_policy()

    def delete(self, fingerprint: str) -> bool:
        """Remove one record; ``True`` if it existed."""
        removed = self._delete(fingerprint)
        if removed:
            with self._counters_lock:
                self._access.pop(fingerprint, None)
                self._dirty_access.discard(fingerprint)
        return removed

    def schema_tag(self, fingerprint: str) -> Optional[str]:
        """The stored record's schema tag, or ``None`` if absent.

        Unlike :meth:`get` this also reads stale records (and never
        touches the hit/miss counters), so error paths can tell the
        user *which* schema a refused record carries.
        """
        meta = self._record_meta(fingerprint)
        return None if meta is None else meta[0]

    def _prefix_matches(self, prefix: str, limit: int) -> List[str]:
        """Up to ``limit`` fingerprints starting with ``prefix``.

        The default scans :meth:`fingerprints`; indexed backends
        override this so prefix lookups don't materialize the whole
        key set.
        """
        matches = []
        for fingerprint in self.fingerprints():
            if fingerprint.startswith(prefix):
                matches.append(fingerprint)
                if len(matches) >= limit:
                    break
        return matches

    def resolve_prefix(self, prefix: str) -> str:
        """Expand a full fingerprint or a unique prefix.

        The CLI (``repro results show``) and the service
        (``GET /results/<prefix>``) both resolve user-supplied
        prefixes through this; ambiguity and no-match are
        :class:`~repro.errors.ConfigurationError`\\ s.
        """
        matches = self._prefix_matches(prefix, limit=2)
        if not matches:
            raise ConfigurationError(
                f"no stored result matches fingerprint {prefix!r}"
            )
        if len(matches) > 1:
            raise ConfigurationError(
                f"fingerprint prefix {prefix!r} is ambiguous; "
                f"give more characters"
            )
        return matches[0]

    def get_many(
        self, fingerprints: Iterable[str]
    ) -> Dict[str, Dict[str, object]]:
        """Servable payloads for ``fingerprints``: fingerprint -> payload.

        The batch read behind ``repro paper build``: a whole artifact's
        cell set resolves in one call instead of one :meth:`get` per
        fingerprint.  Absent and stale-schema records are simply left
        out of the mapping (the caller sees which by set difference);
        hit/miss accounting matches ``len(fingerprints)`` calls to
        :meth:`get` — duplicates count once.  Indexed backends override
        this with a chunked server-side lookup.
        """
        out: Dict[str, Dict[str, object]] = {}
        seen = set()
        for fingerprint in fingerprints:
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            payload = self.get(fingerprint)
            if payload is not None:
                out[fingerprint] = payload
        return out

    def missing(
        self,
        fingerprints: Iterable[str],
        pending: Collection[str] = (),
    ) -> List[str]:
        """Fingerprints that still need computing, in input order.

        The dedup primitive of the distributed work queue
        (:class:`repro.service.queue.WorkQueue`): a fingerprint is
        *missing* only if it is not served by this store (same
        schema-tag rule as :meth:`get`), not in ``pending`` (cells
        already queued or leased elsewhere), and not an earlier
        duplicate within ``fingerprints`` itself.  Never touches the
        hit/miss counters — dedup probes are not cache traffic.
        """
        seen = set(pending)
        out: List[str] = []
        for fingerprint in fingerprints:
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            if fingerprint not in self:
                out.append(fingerprint)
        return out

    def __contains__(self, fingerprint: str) -> bool:
        """Whether :meth:`get` would serve this fingerprint.

        Applies the same schema-tag check as :meth:`get` (a stale
        record is not "in" the store — it would read as a miss), but
        without touching the hit/miss counters.
        """
        payload = self._get(fingerprint)
        return payload is not None and payload.get("schema") == RESULT_SCHEMA

    # ------------------------------------------------------------------
    # Scenario-level API (what the executor calls)
    # ------------------------------------------------------------------
    def load(self, scenario: Scenario) -> Optional[ScenarioResult]:
        """The rehydrated result of ``scenario``, or ``None``."""
        payload = self.get(scenario_fingerprint(scenario))
        if payload is None:
            return None
        return ScenarioResult.from_dict(payload)

    def save(self, result: ScenarioResult) -> str:
        """Persist one executed result; returns its fingerprint."""
        fingerprint = scenario_fingerprint(result.scenario)
        self.put(fingerprint, result.to_dict(), scenario=result.scenario)
        return fingerprint

    # ------------------------------------------------------------------
    # Queries / maintenance
    # ------------------------------------------------------------------
    @staticmethod
    def _check_filters(filters: Dict[str, object]) -> None:
        unknown = set(filters) - set(RECORD_COLUMNS)
        if unknown:
            raise ConfigurationError(
                f"unknown query columns {sorted(unknown)}; "
                f"queryable: {RECORD_COLUMNS}"
            )

    def _record_meta(
        self, fingerprint: str
    ) -> Optional[Tuple[Optional[str], Dict[str, object]]]:
        """``(schema tag, columns)`` of one record, or ``None``.

        The default derives both from the stored payload (full parse +
        scenario rebuild); backends that keep a column index override
        this so listing a store never deserializes whole results.
        Stale-schema records return their tag with empty columns — the
        caller skips them on the tag alone.
        """
        payload = self._get(fingerprint)
        if payload is None:
            return None
        schema = payload.get("schema")
        if schema != RESULT_SCHEMA:
            return schema, {}
        return schema, record_columns(Scenario.from_dict(payload["scenario"]))

    def query(self, **filters: object) -> List[Dict[str, object]]:
        """Records matching the given column equalities.

        Returns one ``{"fingerprint": ..., <RECORD_COLUMNS>...}`` dict
        per live (current-schema) record; stale-schema records are
        excluded, exactly as :meth:`get` would refuse them.  Backends
        with real indexes (:class:`~repro.store.sqlite.SqliteStore`)
        override this with a server-side query; the default scans the
        column metadata.
        """
        self._check_filters(filters)
        records: List[Dict[str, object]] = []
        for fingerprint in self.fingerprints():
            meta = self._record_meta(fingerprint)
            if meta is None:
                continue
            schema, columns = meta
            if schema != RESULT_SCHEMA:
                continue
            if all(columns.get(key) == value for key, value in filters.items()):
                records.append({"fingerprint": fingerprint, **columns})
        return records

    def gc(self) -> int:
        """Drop records the current schema can no longer serve.

        Returns the number of stale records removed.  Backends extend
        this with physical compaction (SQLite VACUUM).
        """
        removed = 0
        for fingerprint in list(self.fingerprints()):
            payload = self._get(fingerprint)
            if payload is None or payload.get("schema") != RESULT_SCHEMA:
                if self._delete(fingerprint):
                    removed += 1
        return removed
