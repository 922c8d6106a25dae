"""SQLite result store: the indexed, queryable backend.

One ``results`` table, keyed by fingerprint, with the spec's queryable
columns (workload, interconnect, power state, DRAM latency, seed,
scale) indexed so ``repro results list --workload fft`` and service
frontends can filter server-side instead of scanning payloads.

WAL journaling is enabled, so any number of concurrent reader
connections (other processes included) proceed while the single writer
appends — which is exactly the executor's discipline: workers compute,
the parent writes.

One instance is safe to share across threads, which is how the service
frontend uses it (handler threads read, the local worker writes):
every thread reads through its own lazily opened connection, so WAL
readers never block each other or the writer, while all writes go
through one shared connection serialized by a lock.
"""

from __future__ import annotations

import sqlite3
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

from repro.obs.metrics import default_registry
from repro.scenario import canonical_json
from repro.store.base import RECORD_COLUMNS, ResultStore
from repro.store.evict import EvictionPolicy

_T = TypeVar("_T")

#: How long a connection waits on a foreign lock before raising
#: ``database is locked`` (ms).  Zero by default in sqlite3 — one
#: external reader holding the file mid-checkpoint would fail writes
#: instantly without this.
BUSY_TIMEOUT_MS = 5_000

#: Writer-path retry budget for *transient* OperationalErrors that
#: survive the busy timeout (lock contention from external processes,
#: NFS hiccups) — backoff doubles from ``RETRY_BASE_S`` per attempt.
WRITE_RETRIES = 5
RETRY_BASE_S = 0.02


def _transient(exc: sqlite3.OperationalError) -> bool:
    message = str(exc).lower()
    return "locked" in message or "busy" in message

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint  TEXT PRIMARY KEY,
    schema       TEXT,
    workload     TEXT NOT NULL,
    interconnect TEXT NOT NULL,
    power_state  TEXT NOT NULL,
    dram_ns      REAL NOT NULL,
    seed         INTEGER NOT NULL,
    scale        REAL NOT NULL,
    payload      TEXT NOT NULL,
    accessed_at  REAL
);
CREATE INDEX IF NOT EXISTS idx_results_workload ON results (workload);
CREATE INDEX IF NOT EXISTS idx_results_interconnect ON results (interconnect);
CREATE INDEX IF NOT EXISTS idx_results_power_state ON results (power_state);
CREATE INDEX IF NOT EXISTS idx_results_dram_ns ON results (dram_ns);
CREATE INDEX IF NOT EXISTS idx_results_seed ON results (seed);
CREATE INDEX IF NOT EXISTS idx_results_scale ON results (scale);
"""


class SqliteStore(ResultStore):
    """Indexed ``.sqlite`` backend (the default persistent store)."""

    def __init__(
        self,
        path: Union[str, Path],
        faults: Optional[object] = None,
        policy: Optional[EvictionPolicy] = None,
    ) -> None:
        super().__init__(policy=policy)
        self.path = str(path)
        #: Test-only :class:`repro.faults.FaultPlan`; a
        #: ``store.write``/``sqlite-locked`` rule raises a transient
        #: OperationalError inside the retried writer section, driving
        #: the same path real lock contention would.
        self.faults = faults
        #: Transient-lock retries actually taken (observable in tests).
        self.write_retries = 0
        default_registry().bind(
            "repro_store_write_retries_total",
            lambda: self.write_retries,
            kind="counter",
            help="transient sqlite lock retries taken on the writer path",
        )
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        self._readers: List[Tuple[threading.Thread, sqlite3.Connection]] = []
        self._readers_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._write_conn = self._connect()
        with self._write_conn:
            self._write_conn.executescript(_SCHEMA_SQL)
        # Pre-eviction databases predate the accessed_at column; add it
        # in place (NULL = "age unknown", treated as fresh-at-open).
        columns = {
            row[1]
            for row in self._write_conn.execute("PRAGMA table_info(results)")
        }
        if "accessed_at" not in columns:
            with self._write_conn:
                self._write_conn.execute(
                    "ALTER TABLE results ADD COLUMN accessed_at REAL"
                )
        with self._write_conn:
            self._write_conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_results_accessed_at "
                "ON results (accessed_at)"
            )
        self._write_conn.execute("PRAGMA journal_mode=WAL")
        # Byte accounting for max_mb is kept as a running total (a
        # SUM() scan per write would be O(records) on the hot path),
        # seeded here and resynced by gc().
        self._track_bytes = policy is not None
        self._bytes = self._sum_payload_bytes() if self._track_bytes else 0
        if policy is not None:
            # Seed LRU stamps from the persisted column so eviction
            # ordering survives restarts; NULL stamps (records written
            # before a policy was attached) count as accessed now —
            # aging them out from zero would mass-evict at open.
            now = policy.clock()
            for fingerprint, stamp in self._write_conn.execute(
                "SELECT fingerprint, accessed_at FROM results"
            ):
                self._access[fingerprint] = now if stamp is None else stamp

    def _sum_payload_bytes(self) -> int:
        return self._write_conn.execute(
            "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM results"
        ).fetchone()[0]

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False because close() (and dead-reader
        # reaping) tears connections down from another thread; each
        # connection is otherwise used only by its owning thread
        # (reads) or under the write lock (writes).
        conn = sqlite3.connect(self.path, check_same_thread=False)
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        return conn

    def _write(self, operation: Callable[[], _T]) -> _T:
        """Run one writer-path operation, retrying transient lock errors.

        The busy timeout already absorbs sub-5s contention inside
        SQLite; this loop covers what leaks past it (an external
        process holding the file across a checkpoint, injected faults)
        with ``WRITE_RETRIES`` attempts and doubling backoff.  Anything
        non-transient — schema errors, disk full — raises immediately.
        """
        retry = 0
        while True:
            try:
                if self.faults is not None:
                    rule = self.faults.fire(
                        "store.write", backend="sqlite", retry=retry
                    )
                    if rule is not None and rule.kind == "sqlite-locked":
                        raise sqlite3.OperationalError(
                            "database is locked (injected)"
                        )
                return operation()
            except sqlite3.OperationalError as exc:
                if not _transient(exc) or retry >= WRITE_RETRIES:
                    raise
                retry += 1
                self.write_retries += 1
                time.sleep(RETRY_BASE_S * (2 ** (retry - 1)))

    @property
    def _read_conn(self) -> sqlite3.Connection:
        """The calling thread's own reader connection (lazily opened).

        Opening one also reaps connections whose threads have exited —
        a threaded HTTP frontend retires one handler thread per client
        connection, so without reaping the pool would grow one file
        descriptor per request for the life of the store.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
            with self._readers_lock:
                live = []
                for thread, reader in self._readers:
                    if thread.is_alive():
                        live.append((thread, reader))
                    else:
                        reader.close()
                live.append((threading.current_thread(), conn))
                self._readers = live
        return conn

    # ------------------------------------------------------------------
    def _get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        row = self._read_conn.execute(
            "SELECT payload FROM results WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def _put(
        self,
        fingerprint: str,
        payload: Dict[str, object],
        columns: Dict[str, object],
    ) -> None:
        raw = canonical_json(payload)
        stamp = None
        if self.policy is not None:
            stamp = self._access.get(fingerprint) or self.policy.clock()

        def insert() -> None:
            replaced = 0
            if self._track_bytes:
                row = self._write_conn.execute(
                    "SELECT LENGTH(payload) FROM results WHERE fingerprint = ?",
                    (fingerprint,),
                ).fetchone()
                replaced = row[0] if row is not None else 0
            with self._write_conn:
                self._write_conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(fingerprint, schema, workload, interconnect, power_state, "
                    " dram_ns, seed, scale, payload, accessed_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        fingerprint,
                        payload.get("schema"),
                        columns["workload"],
                        columns["interconnect"],
                        columns["power_state"],
                        columns["dram_ns"],
                        columns["seed"],
                        columns["scale"],
                        raw,
                        stamp,
                    ),
                )
            if self._track_bytes:
                self._bytes += len(raw) - replaced

        with self._write_lock:
            self._write(insert)

    def _delete(self, fingerprint: str) -> bool:
        def delete() -> sqlite3.Cursor:
            freed = 0
            if self._track_bytes:
                row = self._write_conn.execute(
                    "SELECT LENGTH(payload) FROM results WHERE fingerprint = ?",
                    (fingerprint,),
                ).fetchone()
                freed = row[0] if row is not None else 0
            with self._write_conn:
                cursor = self._write_conn.execute(
                    "DELETE FROM results WHERE fingerprint = ?", (fingerprint,)
                )
            if self._track_bytes and cursor.rowcount > 0:
                self._bytes -= freed
            return cursor

        with self._write_lock:
            cursor = self._write(delete)
        return cursor.rowcount > 0

    def bytes_used(self) -> int:
        if self._track_bytes:
            return max(0, self._bytes)
        return self._read_conn.execute(
            "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM results"
        ).fetchone()[0]

    def _flush_access(self) -> None:
        """Persist dirty LRU stamps to the accessed_at column.

        Reads never write (a get stays one indexed SELECT); stamps
        accumulate in memory and land in one batched UPDATE on the
        next enforcement pass or close, which is plenty fresh for
        cross-restart eviction ordering.
        """
        with self._counters_lock:
            if not self._dirty_access:
                return
            batch = [
                (self._access[fp], fp)
                for fp in self._dirty_access
                if fp in self._access
            ]
            self._dirty_access.clear()
        if not batch:
            return

        def flush() -> None:
            with self._write_conn:
                self._write_conn.executemany(
                    "UPDATE results SET accessed_at = ? WHERE fingerprint = ?",
                    batch,
                )

        with self._write_lock:
            self._write(flush)

    def get_raw(self, fingerprint: str) -> Optional[str]:
        """Warm-hit fast path: return the stored payload text directly.

        The schema check runs on the indexed column, so a hit costs
        one point SELECT and zero JSON parsing — the serving frontend
        streams the text straight into the response body.
        """
        from repro.sim.session import RESULT_SCHEMA

        started = time.perf_counter()
        row = self._read_conn.execute(
            "SELECT schema, payload FROM results WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        self._get_seconds.observe(time.perf_counter() - started)
        raw = row[1] if row is not None and row[0] == RESULT_SCHEMA else None
        with self._counters_lock:
            if raw is None:
                self.misses += 1
            else:
                self.hits += 1
                if self.policy is not None:
                    self._access[fingerprint] = self.policy.clock()
                    self._dirty_access.add(fingerprint)
        return raw

    def _prefix_matches(self, prefix: str, limit: int) -> List[str]:
        """Indexed prefix lookup: a range scan on the primary key
        instead of materializing every fingerprint.

        ``[prefix, prefix-with-last-char-incremented)`` is exactly the
        set of keys starting with ``prefix`` (UTF-8 byte order equals
        codepoint order, which is how SQLite's BINARY collation and
        Python's ``startswith`` both compare) — LIKE would bypass the
        index (case-insensitive by default, and escaping user wildcards
        disables the LIKE optimization outright).
        """
        sql = "SELECT fingerprint FROM results"
        values: List[object] = []
        if prefix:
            sql += " WHERE fingerprint >= ?"
            values.append(prefix)
            for i in range(len(prefix) - 1, -1, -1):
                if prefix[i] != "\U0010ffff":
                    sql += " AND fingerprint < ?"
                    values.append(prefix[:i] + chr(ord(prefix[i]) + 1))
                    break
        sql += " ORDER BY fingerprint LIMIT ?"
        values.append(limit)
        return [row[0] for row in self._read_conn.execute(sql, values)]

    def _record_meta(
        self, fingerprint: str
    ) -> Optional[Tuple[Optional[str], Dict[str, object]]]:
        """One indexed row read — the base class would parse the whole
        payload just to reach fields the columns already hold."""
        from repro.sim.session import RESULT_SCHEMA

        row = self._read_conn.execute(
            "SELECT schema, " + ", ".join(RECORD_COLUMNS)
            + " FROM results WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None:
            return None
        schema = row[0]
        if schema != RESULT_SCHEMA:
            return schema, {}
        return schema, dict(zip(RECORD_COLUMNS, row[1:]))

    def get_many(self, fingerprints) -> Dict[str, Dict[str, object]]:
        """Chunked ``IN`` payload reads instead of one SELECT per
        fingerprint (``repro paper build`` resolves whole artifacts
        through this).  Hit/miss accounting matches the per-``get``
        base implementation: one hit or miss per distinct fingerprint.
        """
        from repro.sim.session import RESULT_SCHEMA

        distinct: List[str] = []
        seen = set()
        for fingerprint in fingerprints:
            if fingerprint not in seen:
                seen.add(fingerprint)
                distinct.append(fingerprint)
        out: Dict[str, Dict[str, object]] = {}
        for start in range(0, len(distinct), 500):
            chunk = distinct[start:start + 500]
            placeholders = ", ".join("?" for _ in chunk)
            for row in self._read_conn.execute(
                "SELECT fingerprint, payload FROM results "
                f"WHERE schema = ? AND fingerprint IN ({placeholders})",
                [RESULT_SCHEMA, *chunk],
            ):
                out[row[0]] = json.loads(row[1])
        with self._counters_lock:
            self.hits += len(out)
            self.misses += len(distinct) - len(out)
            if self.policy is not None and out:
                now = self.policy.clock()
                for fingerprint in out:
                    self._access[fingerprint] = now
                    self._dirty_access.add(fingerprint)
        return out

    def missing(
        self,
        fingerprints,
        pending=(),
    ) -> List[str]:
        """Chunked ``IN`` probes instead of one SELECT per fingerprint
        (the work queue dedups whole sweep submissions through this)."""
        from repro.sim.session import RESULT_SCHEMA

        seen = set(pending)
        candidates: List[str] = []
        for fingerprint in fingerprints:
            if fingerprint not in seen:
                seen.add(fingerprint)
                candidates.append(fingerprint)
        stored = set()
        for start in range(0, len(candidates), 500):
            chunk = candidates[start:start + 500]
            placeholders = ", ".join("?" for _ in chunk)
            stored.update(
                row[0]
                for row in self._read_conn.execute(
                    "SELECT fingerprint FROM results WHERE schema = ? "
                    f"AND fingerprint IN ({placeholders})",
                    [RESULT_SCHEMA, *chunk],
                )
            )
        return [fp for fp in candidates if fp not in stored]

    def fingerprints(self) -> List[str]:
        return [
            row[0]
            for row in self._read_conn.execute(
                "SELECT fingerprint FROM results ORDER BY rowid"
            )
        ]

    def __len__(self) -> int:
        return self._read_conn.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()[0]

    def close(self) -> None:
        if self.policy is not None:
            try:
                self._flush_access()
            except sqlite3.Error:
                pass  # stamps are advisory; never fail a close over them
        with self._readers_lock:
            readers, self._readers = self._readers, []
        for _thread, conn in readers:
            conn.close()
        self._write_conn.close()

    # ------------------------------------------------------------------
    def query(self, **filters: object) -> List[Dict[str, object]]:
        """Column-filtered listing, evaluated by SQLite on the indexes.

        Like the base implementation, only live (current-schema)
        records are listed — stale rows wait for :meth:`gc`.
        """
        from repro.sim.session import RESULT_SCHEMA

        self._check_filters(filters)
        sql = (
            "SELECT fingerprint, " + ", ".join(RECORD_COLUMNS)
            + " FROM results WHERE schema = ?"
        )
        values: List[object] = [RESULT_SCHEMA]
        for column, value in filters.items():
            sql += f" AND {column} = ?"
            values.append(value)
        sql += " ORDER BY rowid"
        return [
            dict(zip(("fingerprint",) + RECORD_COLUMNS, row))
            for row in self._read_conn.execute(sql, values)
        ]

    def gc(self) -> int:
        """Drop stale-schema records, then reclaim the file space.

        One indexed DELETE on the schema column (``IS NOT`` also
        catches NULL tags) instead of the base class's per-payload
        scan.
        """
        from repro.sim.session import RESULT_SCHEMA

        def sweep() -> sqlite3.Cursor:
            with self._write_conn:
                cursor = self._write_conn.execute(
                    "DELETE FROM results WHERE schema IS NOT ?",
                    (RESULT_SCHEMA,),
                )
            self._write_conn.execute("VACUUM")
            return cursor

        with self._write_lock:
            cursor = self._write(sweep)
            if self._track_bytes:
                self._bytes = self._sum_payload_bytes()
        return cursor.rowcount
