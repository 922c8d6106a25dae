"""Eviction policy: bounded result stores under open-ended traffic.

A serving store sees an unbounded stream of distinct fingerprints
(every new scenario is a new record), so without a cap it grows
forever.  :class:`EvictionPolicy` bounds a store by record count,
payload bytes, and/or age; the base :class:`~repro.store.base.ResultStore`
enforces it on the write path (see ``_enforce_policy``), evicting the
least-recently-*accessed* records first — an LRU cache over results.

Eviction is safe precisely because of replay determinism (ROADMAP
invariant 4): an evicted record is a miss, never a wrong answer — the
cell just re-simulates on the next request.  Records that must not
bounce are *pinned* (``store.pin(fingerprint)``): the work queue pins
every in-flight cell so a result cannot be evicted between landing
and the waiting client's read, and ``repro paper run`` pins the
manifest's artifact cells so a bounded serving store never churns the
paper's own data.

``clock`` is injectable so TTL tests don't sleep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class EvictionPolicy:
    """Caps a store enforces after every write.

    ``max_records``
        Upper bound on live records; least-recently-accessed evicted
        first once exceeded.
    ``max_mb``
        Upper bound on live payload bytes (see
        :meth:`ResultStore.bytes_used` — logical record bytes, not
        file size).
    ``ttl_s``
        Records not accessed for this many seconds are dropped on the
        next write, independent of the size caps.

    Any combination may be set; all-``None`` is rejected (use no
    policy at all instead).  Pinned fingerprints are never evicted,
    even when that leaves the store over its cap.
    """

    max_records: Optional[int] = None
    max_mb: Optional[float] = None
    ttl_s: Optional[float] = None
    #: Time source for access stamps and TTL checks.
    clock: Callable[[], float] = time.time

    def __post_init__(self) -> None:
        if self.max_records is None and self.max_mb is None \
                and self.ttl_s is None:
            raise ConfigurationError(
                "EvictionPolicy needs at least one of "
                "max_records/max_mb/ttl_s"
            )
        if self.max_records is not None and self.max_records < 1:
            raise ConfigurationError(
                f"max_records must be >= 1, got {self.max_records}"
            )
        if self.max_mb is not None and self.max_mb <= 0:
            raise ConfigurationError(f"max_mb must be > 0, got {self.max_mb}")
        if self.ttl_s is not None and self.ttl_s <= 0:
            raise ConfigurationError(f"ttl_s must be > 0, got {self.ttl_s}")

    @property
    def max_bytes(self) -> Optional[int]:
        """``max_mb`` in bytes, or ``None``."""
        if self.max_mb is None:
            return None
        return int(self.max_mb * 1024 * 1024)

    def split(self, shards: int) -> "EvictionPolicy":
        """The per-shard share of this policy.

        A :class:`~repro.store.sharded.ShardedStore` opened with a
        policy divides the size caps evenly across its backends (each
        shard enforces independently — fingerprints hash uniformly, so
        the aggregate stays within the total cap); TTL applies to every
        shard unchanged.
        """
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if shards == 1:
            return self
        max_records = self.max_records
        if max_records is not None:
            max_records = max(1, max_records // shards)
        max_mb = self.max_mb
        if max_mb is not None:
            max_mb = max_mb / shards
        return replace(self, max_records=max_records, max_mb=max_mb)

    def describe(self) -> str:
        """Human-readable summary for logs and ``repro stats``."""
        parts = []
        if self.max_records is not None:
            parts.append(f"max_records={self.max_records}")
        if self.max_mb is not None:
            parts.append(f"max_mb={self.max_mb:g}")
        if self.ttl_s is not None:
            parts.append(f"ttl_s={self.ttl_s:g}")
        return "lru(" + ", ".join(parts) + ")"
