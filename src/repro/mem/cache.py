"""Functional set-associative cache model.

Used for both the private L1s (4 KB, 4-way, 32 B lines, LRU — Table I)
and each L2 bank (64 KB, 8-way, 32 B lines).  The model is functional —
it tracks which lines are resident and dirty, not their data — because
the evaluation needs hit/miss behaviour and write-back traffic, not
values.  Latency and energy are accounted by the callers.

Write policy is write-back / write-allocate (the paper's gating protocol
explicitly writes back dirty blocks, so L2 must be write-back; we use
the same policy for L1 toward L2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.mem.replacement import LRUPolicy, ReplacementPolicy, make_policy
from repro.units import is_power_of_two


@dataclass(slots=True)
class CacheLine:
    """One resident line: the full line-aligned address plus state."""

    address: int
    dirty: bool = False


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one cache access.

    Attributes
    ----------
    hit:
        Whether the line was resident.
    writeback:
        Line-aligned address of a dirty line evicted by this access's
        fill, or ``None``.  Clean evictions are silent.
    evicted:
        Address of any line evicted (dirty or clean), or ``None``.
    """

    hit: bool
    writeback: Optional[int] = None
    evicted: Optional[int] = None


#: Shared hit outcome: hits carry no eviction payload, so one frozen
#: instance serves every hit (saves an allocation on the hottest path).
HIT = AccessResult(hit=True)

#: The per-set containers of every set not yet filled, in every cache.
#: Read-only: :meth:`SetAssociativeCache.access` swaps in a set's own
#: containers before its first insertion.
_UNFILLED: Dict = {}


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/traffic counters."""

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    write_hits: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        """Total hits."""
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        """Total misses."""
        return self.accesses - self.hits

    @property
    def miss_rate(self) -> float:
        """Miss ratio over all accesses (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = self.writes = 0
        self.read_hits = self.write_hits = 0
        self.evictions = self.writebacks = 0


class SetAssociativeCache:
    """Functional set-associative, write-back, write-allocate cache.

    Parameters
    ----------
    capacity_bytes, line_bytes, associativity:
        Geometry; all powers of two, capacity >= one set.
    policy:
        Replacement policy name (see :func:`repro.mem.replacement.make_policy`).
    name:
        Label used in error messages and reports.
    index_stride_lines:
        Line-number stride between consecutive sets.  The default (1)
        is the usual modulo indexing.  L2 *banks* pass the cluster's
        bank count here so the set index is taken from the address bits
        *above* the bank-interleave field — with line interleaving, a
        bank only ever sees line numbers congruent to its index, and
        indexing those directly would use 1/``n_banks`` of the sets.
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int = 32,
        associativity: int = 4,
        policy: str = "lru",
        name: str = "cache",
        seed: int = 0,
        index_stride_lines: int = 1,
    ) -> None:
        for value, what in (
            (capacity_bytes, "capacity"),
            (line_bytes, "line size"),
            (associativity, "associativity"),
        ):
            if not is_power_of_two(value):
                raise ConfigurationError(f"{what} must be a power of two, got {value}")
        if capacity_bytes < line_bytes * associativity:
            raise ConfigurationError(
                f"{name}: capacity {capacity_bytes} smaller than one set"
            )
        if index_stride_lines < 1:
            raise ConfigurationError(
                f"{name}: index stride must be >= 1, got {index_stride_lines}"
            )
        self.index_stride_lines = index_stride_lines
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.n_sets = capacity_bytes // (line_bytes * associativity)
        # Geometry is all powers of two (a non-power-of-two index
        # stride falls back to the div/mod path): the hot path indexes
        # with shifts/masks instead of div/mod chains.
        self._line_mask = ~(line_bytes - 1)
        self._pow2_stride = is_power_of_two(index_stride_lines)
        self._set_shift = (line_bytes * index_stride_lines).bit_length() - 1
        self._set_mask = self.n_sets - 1
        # One-entry MRU filter: the last line touched.  A repeat access
        # to it is a guaranteed hit on a way that is already MRU of its
        # set, so the whole lookup/recency update collapses to the stat
        # counts.  Any event that could break the invariant (fill,
        # flush, invalidation, out-of-band recency change) resets it.
        self._last_line: Optional[int] = None
        self._last_obj: Optional[CacheLine] = None
        self._policy_name = policy
        self._seed = seed
        # Per set: way -> CacheLine (ways not present are invalid), and
        # line address -> way, the O(1) lookup the access fast path uses
        # instead of scanning the ways (kept in lockstep with ``_sets``
        # by every mutating method).  A set's containers are created on
        # its first fill (in :meth:`access`); until then its slots share
        # :data:`_UNFILLED`, which every lookup reads as a miss, so the
        # hit path needs no check and an L2 bank whose sets are never
        # touched costs three lists.
        self._sets: List[Dict[int, CacheLine]] = [_UNFILLED] * self.n_sets
        self._tags: List[Dict[int, int]] = [_UNFILLED] * self.n_sets
        # For the default (Table I) LRU policy the cache manipulates
        # bare recency stacks directly (no policy objects on the hot
        # path); `_policies` materializes LRUPolicy views sharing the
        # same lists on first external use.  Other policies keep the
        # policy-object protocol.  An unfilled set has no stack yet.
        if policy.lower() == "lru":
            self._lru_stacks: Optional[List[Optional[List[int]]]] = (
                [None] * self.n_sets
            )
            self._policies_list: Optional[List[ReplacementPolicy]] = None
        else:
            self._lru_stacks = None
            self._policies_list = [
                make_policy(policy, associativity, seed=seed + i)
                for i in range(self.n_sets)
            ]
        self.stats = CacheStats()

    @property
    def _policies(self) -> List[ReplacementPolicy]:
        """Per-set policy objects (lazy LRU views over the stacks)."""
        if self._policies_list is None:
            policies = []
            for index in range(self.n_sets):
                p = LRUPolicy(self.associativity)
                p._stack = self._lru_stack(index)  # shared with the hot path
                policies.append(p)
            self._policies_list = policies
        return self._policies_list

    def _lru_stack(self, index: int) -> List[int]:
        """Set ``index``'s LRU recency stack, created on first use."""
        stack = self._lru_stacks[index]
        if stack is None:
            stack = self._lru_stacks[index] = list(range(self.associativity))
        return stack

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        """Line-aligned address."""
        return address - (address % self.line_bytes)

    def set_index(self, address: int) -> int:
        """Set selected by ``address`` (see ``index_stride_lines``)."""
        line_number = address // self.line_bytes
        return (line_number // self.index_stride_lines) % self.n_sets

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Perform one access, filling on miss (write-allocate).

        Returns the hit/miss outcome and any write-back generated by the
        fill's eviction.
        """
        if address < 0:
            raise ConfigurationError(f"{self.name}: negative address {address}")
        stats = self.stats
        line_addr = address & self._line_mask
        if line_addr == self._last_line:
            # MRU filter: same line as the previous access — resident,
            # and its way already heads the set's recency order.
            if is_write:
                stats.writes += 1
                stats.write_hits += 1
                self._last_obj.dirty = True
            else:
                stats.reads += 1
                stats.read_hits += 1
            return HIT
        if self._pow2_stride:
            index = (address >> self._set_shift) & self._set_mask
        else:
            index = (
                (address // self.line_bytes) // self.index_stride_lines
            ) % self.n_sets
        tags = self._tags[index]

        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        way = tags.get(line_addr)
        stacks = self._lru_stacks
        if way is not None:
            line = self._sets[index][way]
            if stacks is not None:
                stack = stacks[index]
                if stack[-1] != way:  # touching the MRU way is a no-op
                    stack.remove(way)
                    stack.append(way)
            else:
                self._policies[index].touch(way)
            if is_write:
                line.dirty = True
                stats.write_hits += 1
            else:
                stats.read_hits += 1
            self._last_line = line_addr
            self._last_obj = line
            return HIT

        # Miss: choose a way (an invalid one if available).
        cache_set = self._sets[index]
        if cache_set is _UNFILLED:  # first fill: the set's own containers
            cache_set = self._sets[index] = {}
            tags = self._tags[index] = {}
            if stacks is not None:
                self._lru_stack(index)
        writeback = evicted = None
        if len(cache_set) < self.associativity:
            for way in range(self.associativity):  # the lowest free way
                if way not in cache_set:
                    break
            line = CacheLine(address=line_addr, dirty=is_write)
            cache_set[way] = line
        else:
            if stacks is not None:
                way = stacks[index][0]
            else:
                way = self._policies[index].victim([True] * self.associativity)
            victim = cache_set[way]
            evicted = victim.address
            del tags[victim.address]
            stats.evictions += 1
            if victim.dirty:
                writeback = victim.address
                stats.writebacks += 1
            # Recycle the evicted line object for the fill (no alloc).
            victim.address = line_addr
            victim.dirty = is_write
            line = victim
        tags[line_addr] = way
        if stacks is not None:
            stack = stacks[index]
            stack.remove(way)
            stack.append(way)
        else:
            self._policies[index].insert(way)
        self._last_line = line_addr
        self._last_obj = line
        return AccessResult(hit=False, writeback=writeback, evicted=evicted)

    def read_allocate(self, address: int) -> Tuple[bool, Optional[int]]:
        """A read that fills on a miss: ``(hit, dirty_victim)``.

        The same transitions of the same per-set structures, and the
        same counters, as ``access(address)``, returned as plain values
        (no :class:`AccessResult`: a shared L2 bank's reads mostly
        miss).  It skips the MRU filter, which a shared bank rarely
        hits, and empties it, so a later :meth:`access` cannot take a
        stale shortcut.  The caller has checked ``address``.  LRU only:
        other policies take :meth:`access`.
        """
        stacks = self._lru_stacks
        if stacks is None:
            result = self.access(address)
            return result.hit, result.writeback
        self._last_line = None
        stats = self.stats
        stats.reads += 1
        line_addr = address & self._line_mask
        if self._pow2_stride:
            index = (address >> self._set_shift) & self._set_mask
        else:
            index = (
                (address // self.line_bytes) // self.index_stride_lines
            ) % self.n_sets
        tags = self._tags[index]
        way = tags.get(line_addr)
        if way is not None:
            stack = stacks[index]
            if stack[-1] != way:
                stack.remove(way)
                stack.append(way)
            stats.read_hits += 1
            return True, None

        cache_set = self._sets[index]
        associativity = self.associativity
        if cache_set is _UNFILLED:
            # First fill: the set's own containers, the line in way 0.
            self._sets[index] = {0: CacheLine(line_addr)}
            self._tags[index] = {line_addr: 0}
            stack = stacks[index]
            if stack is None:
                stacks[index] = [*range(1, associativity), 0]
            else:
                stack.remove(0)
                stack.append(0)
            return False, None
        writeback = None
        if len(cache_set) < associativity:
            for way in range(associativity):  # the lowest free way
                if way not in cache_set:
                    break
            cache_set[way] = CacheLine(line_addr)
        else:
            way = stacks[index][0]
            victim = cache_set[way]
            del tags[victim.address]
            stats.evictions += 1
            if victim.dirty:
                writeback = victim.address
                stats.writebacks += 1
            victim.address = line_addr  # recycled for the fill
            victim.dirty = False
        tags[line_addr] = way
        stack = stacks[index]
        stack.remove(way)
        stack.append(way)
        return False, writeback

    def write_no_allocate(self, address: int) -> bool:
        """Update-in-place write: dirty the line if resident, else miss.

        Used for victim write-backs arriving from an upper level: if the
        line is still here it absorbs the write; if it has been evicted
        the write must be forwarded to the next level (no fetch).
        Returns True on hit.
        """
        line_addr = address & self._line_mask
        if self._pow2_stride:
            index = (address >> self._set_shift) & self._set_mask
        else:
            index = self.set_index(address)
        self.stats.writes += 1
        way = self._tags[index].get(line_addr)
        if way is not None:
            line = self._sets[index][way]
            line.dirty = True
            stacks = self._lru_stacks
            if stacks is not None:
                stack = stacks[index]
                if stack[-1] != way:
                    stack.remove(way)
                    stack.append(way)
            else:
                self._policies[index].touch(way)
            # This line is now the MRU of its set: move the filter here.
            self._last_line = line_addr
            self._last_obj = line
            self.stats.write_hits += 1
            return True
        return False

    def probe(self, address: int) -> bool:
        """Non-destructive residency check (no state change)."""
        line_addr = self.line_address(address)
        return line_addr in self._tags[self.set_index(address)]

    # ------------------------------------------------------------------
    # Maintenance (used by the power-gating protocol)
    # ------------------------------------------------------------------
    def lines(self) -> Iterator[CacheLine]:
        """All resident lines."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def dirty_lines(self) -> List[int]:
        """Addresses of all dirty resident lines."""
        return [line.address for line in self.lines() if line.dirty]

    @property
    def resident_lines(self) -> int:
        """Number of valid lines."""
        return sum(len(s) for s in self._sets)

    def flush(
        self, predicate: Optional[Callable[[int], bool]] = None
    ) -> Tuple[int, int]:
        """Write back and invalidate lines matching ``predicate``.

        ``predicate`` takes the line address; ``None`` flushes everything.
        Returns ``(lines_written_back, lines_invalidated)``.
        """
        written = invalidated = 0
        self._last_line = None
        self._last_obj = None
        for index, cache_set in enumerate(self._sets):
            doomed = [
                way
                for way, line in cache_set.items()
                if predicate is None or predicate(line.address)
            ]
            for way in doomed:
                line = cache_set.pop(way)
                del self._tags[index][line.address]
                invalidated += 1
                if line.dirty:
                    written += 1
        self.stats.writebacks += written
        return written, invalidated

    def invalidate_all(self) -> int:
        """Drop every line without writing back (power-off semantics
        *after* the controller has already flushed dirty data)."""
        count = self.resident_lines
        self._last_line = None
        self._last_obj = None
        for cache_set in self._sets:
            cache_set.clear()
        for tags in self._tags:
            tags.clear()
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SetAssociativeCache {self.name} {self.capacity_bytes}B "
            f"{self.associativity}-way {self.n_sets} sets>"
        )
