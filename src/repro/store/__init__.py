"""repro.store — persistent, content-addressed scenario result cache.

Every simulation cell is a pure function of its
:class:`~repro.scenario.Scenario` (replay determinism), so results are
perfectly cacheable: this package keys ``ScenarioResult.to_dict()``
payloads by :func:`repro.scenario.scenario_fingerprint` and serves
repeat cells without simulating.  Every on-disk store is SQLite; the
backends share one contract (:class:`ResultStore`):

* :class:`MemoryStore` — in-process dict; per-run memoization, tests.
* :class:`SqliteStore` — indexed by fingerprint plus queryable columns
  (workload, interconnect, power state, DRAM latency, seed, scale).
* :class:`ShardedStore` — a directory of N SQLite stores routed by
  fingerprint prefix; the horizontal-scaling unit of the service.

Any store can be bounded with an :class:`EvictionPolicy`
(LRU by last access, ``max_records``/``max_mb``/``ttl_s``), so a
serving store survives open-ended traffic without growing forever;
pinned fingerprints (in-flight queue cells, paper artifacts) are
evict-exempt.

Wire a store into the executor with ``run_scenario(s, store=...)`` /
``run_sweep(grid, store=...)``, the experiment presets
(``experiment_fig6/7/8(..., store=...)``), or the CLI
(``--store PATH`` on ``run``/``sweep``/``fig6``/``fig7``/``fig8``);
inspect one with ``repro results list|show|export|gc``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.store.base import RECORD_COLUMNS, ResultStore, record_columns
from repro.store.evict import EvictionPolicy
from repro.store.memory import MemoryStore
from repro.store.sharded import ShardedStore, shard_index
from repro.store.sqlite import SqliteStore

__all__ = [
    "RECORD_COLUMNS",
    "ResultStore",
    "record_columns",
    "EvictionPolicy",
    "MemoryStore",
    "ShardedStore",
    "shard_index",
    "SqliteStore",
    "open_store",
]


def open_store(
    spec: Union[str, Path, ResultStore],
    shards: Optional[int] = None,
    policy: Optional[EvictionPolicy] = None,
) -> ResultStore:
    """Open a result store from a path-like spec.

    ``":memory:"`` gives a :class:`MemoryStore`; a directory holding
    a ``shards.json`` manifest — or any path with ``shards=N`` —
    gives a :class:`ShardedStore`; anything else is a
    :class:`SqliteStore` database file.  A ``.jsonl``/``.ndjson``
    path is refused before anything is created: JSON-lines stores are
    no longer supported.  ``policy`` attaches an
    :class:`EvictionPolicy` (split across shards for sharded stores).
    An existing store instance passes through unchanged, so APIs can
    accept either form.
    """
    if isinstance(spec, ResultStore):
        return spec
    text = str(spec)
    if text == ":memory:":
        return MemoryStore(policy=policy)
    if text.endswith((".jsonl", ".ndjson")):
        raise ConfigurationError(
            f"{text}: JSON-lines result stores are no longer supported; "
            f"use a .sqlite path (docs/operations.md shows how to load "
            f"an old .jsonl file into SQLite)"
        )
    if shards is not None or ShardedStore.is_sharded_dir(text):
        return ShardedStore.open(text, shards=shards, policy=policy)
    return SqliteStore(text, policy=policy)
