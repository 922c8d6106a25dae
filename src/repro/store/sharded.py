"""Fingerprint-sharded result store: N backends behind one router.

One SQLite file is one write path; a serving box that wants K worker
processes needs K independent write paths.  :class:`ShardedStore`
routes every fingerprint to one of N backend stores by fingerprint
prefix — ``int(fingerprint[:8], 16) % N`` — so the mapping is a pure
function of the fingerprint: any process, on any box, opening the same
sharded directory routes identically.  That makes the PR-4/5
single-writer discipline *the* sharding rule: give each serving worker
ownership of a shard subset and every record has exactly one writer
(see :mod:`repro.service.prefork`).

The full :class:`~repro.store.base.ResultStore` contract is preserved:
point ops (``get``/``put``/``delete``/``load``/``save``) delegate to
the owning shard, batch and scan ops (``get_many``/``missing``/
``query``/``resolve_prefix``/``gc``/``fingerprints``) fan out and
merge.  A user-facing *prefix* (``repro results show deadbeef``) is
shorter than the routing prefix, so prefix resolution always fans out
— two matches in two different shards are exactly as ambiguous as two
in one.

On disk a sharded store is a directory::

    store/
      shards.json        # {"schema": ..., "shards": N, "backend": ...}
      shard-000.sqlite
      shard-001.sqlite
      ...

``shards.json`` pins N: reopening with a different shard count would
silently strand every record in the wrong shard, so it's refused.

Per-shard metrics are registered as ``repro_store_shard<i>_*``
(records, bytes, hits, misses, evictions) — the metrics registry is
label-free by design, so the shard index lives in the instrument name.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import default_registry
from repro.scenario import Scenario
from repro.store.base import ResultStore
from repro.store.evict import EvictionPolicy

#: Hex characters of the fingerprint used for routing.  8 hex chars =
#: 32 bits — uniform for SHA-256 fingerprints, far more than any
#: realistic shard count.
ROUTE_PREFIX_CHARS = 8

#: ``shards.json`` manifest schema tag.
MANIFEST_SCHEMA = "repro-sharded-store/1"

#: Manifest file name inside a sharded store directory.
MANIFEST_NAME = "shards.json"


def shard_index(fingerprint: str, shards: int) -> int:
    """The shard owning ``fingerprint`` (stable across processes).

    Fingerprints are hex SHA-256 digests, so the leading 32 bits are
    uniformly distributed; non-hex keys (tests, foreign stores) fall
    back to CRC-32 of the whole key — still deterministic, still
    uniform enough.
    """
    try:
        value = int(fingerprint[:ROUTE_PREFIX_CHARS], 16)
    except ValueError:
        value = zlib.crc32(fingerprint.encode("utf-8"))
    return value % shards


class ShardedStore(ResultStore):
    """Routes the ``ResultStore`` contract across N backend stores."""

    def __init__(
        self,
        shards: Sequence[ResultStore],
        policy: Optional[EvictionPolicy] = None,
        path: Optional[Path] = None,
    ) -> None:
        if not shards:
            raise ConfigurationError("ShardedStore needs at least one shard")
        # The router holds no policy itself — each shard enforces its
        # own split; ``policy`` here is kept for reporting only.
        super().__init__(policy=None)
        self.shards: List[ResultStore] = list(shards)
        self.policy = policy
        self.path = path
        registry = default_registry()
        for index, shard in enumerate(self.shards):
            self._bind_shard_metrics(registry, index, shard)

    @staticmethod
    def _bind_shard_metrics(
        registry: object, index: int, shard: ResultStore
    ) -> None:
        registry.bind(
            f"repro_store_shard{index}_records",
            lambda s=shard: len(s), kind="gauge",
            help=f"live records in shard {index}",
        )
        registry.bind(
            f"repro_store_shard{index}_bytes",
            shard.bytes_used, kind="gauge",
            help=f"live payload bytes in shard {index}",
        )
        registry.bind(
            f"repro_store_shard{index}_hits_total",
            lambda s=shard: s.hits, kind="counter",
            help=f"store hits served by shard {index}",
        )
        registry.bind(
            f"repro_store_shard{index}_misses_total",
            lambda s=shard: s.misses, kind="counter",
            help=f"store misses in shard {index}",
        )
        registry.bind(
            f"repro_store_shard{index}_evictions_total",
            lambda s=shard: s.evictions, kind="counter",
            help=f"records evicted from shard {index}",
        )

    # ------------------------------------------------------------------
    # Directory layout
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        shards: Optional[int] = None,
        policy: Optional[EvictionPolicy] = None,
    ) -> "ShardedStore":
        """Open (or create) a sharded store directory.

        ``shards`` is required on first open and optional afterwards;
        giving a count that contradicts the directory's manifest is a
        :class:`~repro.errors.ConfigurationError` — rerouting an
        existing directory would strand its records.
        """
        root = Path(path)
        manifest_path = root / MANIFEST_NAME
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
            except ValueError as exc:
                raise ConfigurationError(
                    f"unreadable shard manifest {manifest_path}: {exc}"
                ) from exc
            if manifest.get("schema") != MANIFEST_SCHEMA:
                raise ConfigurationError(
                    f"{manifest_path} has schema "
                    f"{manifest.get('schema')!r}, expected {MANIFEST_SCHEMA!r}"
                )
            existing = int(manifest["shards"])
            if shards is not None and shards != existing:
                raise ConfigurationError(
                    f"store {root} is sharded {existing} ways; "
                    f"reopening with shards={shards} would strand records"
                )
            shards = existing
        else:
            if shards is None:
                raise ConfigurationError(
                    f"{root} has no shard manifest; pass shards=N to create"
                )
            if shards < 1:
                raise ConfigurationError(f"shards must be >= 1, got {shards}")
            root.mkdir(parents=True, exist_ok=True)
            manifest_path.write_text(json.dumps({
                "schema": MANIFEST_SCHEMA,
                "shards": shards,
                "backend": "sqlite",
            }, indent=2) + "\n")
        from repro.store.sqlite import SqliteStore

        split = policy.split(shards) if policy is not None else None
        backends = [
            SqliteStore(root / f"shard-{index:03d}.sqlite", policy=split)
            for index in range(shards)
        ]
        return cls(backends, policy=policy, path=root)

    @staticmethod
    def is_sharded_dir(path: Union[str, Path]) -> bool:
        """Whether ``path`` is an existing sharded store directory."""
        return (Path(path) / MANIFEST_NAME).exists()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, fingerprint: str) -> int:
        """The shard index owning ``fingerprint``."""
        return shard_index(fingerprint, len(self.shards))

    def _shard(self, fingerprint: str) -> ResultStore:
        return self.shards[self.shard_of(fingerprint)]

    def _group(self, fingerprints: Iterable[str]) -> Dict[int, List[str]]:
        groups: Dict[int, List[str]] = {}
        for fingerprint in fingerprints:
            groups.setdefault(self.shard_of(fingerprint), []).append(
                fingerprint
            )
        return groups

    # ------------------------------------------------------------------
    # Point ops: delegate to the owning shard (its counters and
    # eviction run there); the router keeps aggregate hit/miss ints so
    # ``store.hits`` means the same thing it does on a plain store.
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        payload = self._shard(fingerprint).get(fingerprint)
        with self._counters_lock:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
        return payload

    def get_raw(self, fingerprint: str) -> Optional[str]:
        raw = self._shard(fingerprint).get_raw(fingerprint)
        with self._counters_lock:
            if raw is None:
                self.misses += 1
            else:
                self.hits += 1
        return raw

    def put(
        self,
        fingerprint: str,
        payload: Dict[str, object],
        scenario: Optional[Scenario] = None,
    ) -> None:
        self._shard(fingerprint).put(fingerprint, payload, scenario=scenario)

    def delete(self, fingerprint: str) -> bool:
        return self._shard(fingerprint).delete(fingerprint)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._shard(fingerprint)

    def schema_tag(self, fingerprint: str) -> Optional[str]:
        return self._shard(fingerprint).schema_tag(fingerprint)

    def pin(self, fingerprint: str) -> None:
        self._shard(fingerprint).pin(fingerprint)

    def unpin(self, fingerprint: str) -> None:
        self._shard(fingerprint).unpin(fingerprint)

    def pinned(self) -> frozenset:
        out: set = set()
        for shard in self.shards:
            out |= shard.pinned()
        return frozenset(out)

    # Backend primitives: point-routed too, so any base-class code
    # path that reaches for them behaves identically.
    def _get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        return self._shard(fingerprint)._get(fingerprint)

    def _put(
        self,
        fingerprint: str,
        payload: Dict[str, object],
        columns: Dict[str, object],
    ) -> None:
        self._shard(fingerprint)._put(fingerprint, payload, columns)

    def _delete(self, fingerprint: str) -> bool:
        return self._shard(fingerprint)._delete(fingerprint)

    def _record_meta(
        self, fingerprint: str
    ) -> Optional[Tuple[Optional[str], Dict[str, object]]]:
        return self._shard(fingerprint)._record_meta(fingerprint)

    # ------------------------------------------------------------------
    # Batch / scan ops: fan out and merge
    # ------------------------------------------------------------------
    def get_many(
        self, fingerprints: Iterable[str]
    ) -> Dict[str, Dict[str, object]]:
        distinct: List[str] = []
        seen = set()
        for fingerprint in fingerprints:
            if fingerprint not in seen:
                seen.add(fingerprint)
                distinct.append(fingerprint)
        out: Dict[str, Dict[str, object]] = {}
        for index, group in self._group(distinct).items():
            out.update(self.shards[index].get_many(group))
        with self._counters_lock:
            self.hits += len(out)
            self.misses += len(distinct) - len(out)
        return out

    def missing(
        self,
        fingerprints: Iterable[str],
        pending: Collection[str] = (),
    ) -> List[str]:
        seen = set(pending)
        distinct: List[str] = []
        for fingerprint in fingerprints:
            if fingerprint not in seen:
                seen.add(fingerprint)
                distinct.append(fingerprint)
        absent: set = set()
        for index, group in self._group(distinct).items():
            absent.update(self.shards[index].missing(group))
        # Each shard preserved its own order; restore the input order
        # the queue contract promises.
        return [fp for fp in distinct if fp in absent]

    def _prefix_matches(self, prefix: str, limit: int) -> List[str]:
        matches: List[str] = []
        for shard in self.shards:
            matches.extend(shard._prefix_matches(prefix, limit - len(matches)))
            if len(matches) >= limit:
                break
        return matches

    def query(self, **filters: object) -> List[Dict[str, object]]:
        self._check_filters(filters)
        records: List[Dict[str, object]] = []
        for shard in self.shards:
            records.extend(shard.query(**filters))
        return records

    def fingerprints(self) -> List[str]:
        out: List[str] = []
        for shard in self.shards:
            out.extend(shard.fingerprints())
        return out

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def bytes_used(self) -> int:
        return sum(shard.bytes_used() for shard in self.shards)

    def gc(self) -> int:
        return sum(shard.gc() for shard in self.shards)

    def enforce_policy(self) -> int:
        return sum(shard.enforce_policy() for shard in self.shards)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        with self._counters_lock:
            counters = {"hits": self.hits, "misses": self.misses}
        counters["evictions"] = sum(
            shard.counters()["evictions"] for shard in self.shards
        )
        return counters

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard ``{shard, records, bytes, hits, misses,
        evictions}`` rows (what ``/stats`` and ``repro stats`` show)."""
        stats: List[Dict[str, object]] = []
        for index, shard in enumerate(self.shards):
            counters = shard.counters()
            stats.append({
                "shard": index,
                "records": len(shard),
                "bytes": shard.bytes_used(),
                "hits": counters["hits"],
                "misses": counters["misses"],
                "evictions": counters["evictions"],
            })
        return stats

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
