"""Functional set-associative cache model.

Used for both the private L1s (4 KB, 4-way, 32 B lines, LRU — Table I)
and each L2 bank (64 KB, 8-way, 32 B lines).  The model is functional —
it tracks which lines are resident and dirty, not their data — because
the evaluation needs hit/miss behaviour and write-back traffic, not
values.  Latency and energy are accounted by the callers.

Write policy is write-back / write-allocate (the paper's gating protocol
explicitly writes back dirty blocks, so L2 must be write-back; we use
the same policy for L1 toward L2).

Both levels run Table I's LRU on one lean representation: each set is
a list of its resident line addresses in recency order, least recent
first, and each cache keeps one set of its dirty line addresses.  A
hit is an ``in`` test on at most ``associativity`` ints (plus a move
to the end unless the line is already there), a fill into a full set
evicts ``pop(0)``.  The other replacement policies (FIFO, random,
tree PLRU: ablation knobs) keep per-set policy objects over numbered
ways; constructing a :class:`SetAssociativeCache` with one of them
returns a :class:`PolicyCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.mem.replacement import make_policy
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
        Anything but ``"lru"`` builds a :class:`PolicyCache`.
    name:
        Label used in error messages and reports.
    index_stride_lines:
        Line-number stride between consecutive sets.  The default (1)
        is the usual modulo indexing.  L2 *banks* pass the cluster's
        bank count here so the set index is taken from the address bits
        *above* the bank-interleave field — with line interleaving, a
        bank only ever sees line numbers congruent to its index, and
        indexing those directly would use 1/``n_banks`` of the sets.
        A stride that is not a power of two also builds a
        :class:`PolicyCache` (its set index needs div/mod).
    """

    def __new__(
        cls,
        capacity_bytes: int = 0,
        line_bytes: int = 32,
        associativity: int = 4,
        policy: str = "lru",
        name: str = "cache",
        seed: int = 0,
        index_stride_lines: int = 1,
    ) -> "SetAssociativeCache":
        if cls is SetAssociativeCache and (
            policy.lower() != "lru" or not is_power_of_two(index_stride_lines)
        ):
            cls = PolicyCache
        return super().__new__(cls)

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
        self._policy_name = policy
        self._seed = seed
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.n_sets = capacity_bytes // (line_bytes * associativity)
        # The set index of a power-of-two geometry is a shift and a mask.
        self._line_mask = ~(line_bytes - 1)
        self._set_shift = (line_bytes * index_stride_lines).bit_length() - 1
        self._set_mask = self.n_sets - 1
        self.stats = CacheStats()
        self._clear()

    def _clear(self) -> None:
        """Empty every set and the dirty set.

        A set is a list of its resident lines, least recently used
        first.  Every set starts as the shared empty tuple and gets its
        own list on its first fill, so a bank whose sets are never
        touched costs one list.
        """
        self._sets: List[Sequence[Optional[int]]] = [()] * self.n_sets
        self._dirty = set()

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
    # read_allocate and replay inline this lookup and fill again: they
    # are the simulator's hot paths (one call per L2 demand read, one
    # per trace block), and the tests hold both to ``access``.
    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Perform one access, filling on miss (write-allocate).

        Returns the hit/miss outcome and any write-back generated by the
        fill's eviction.
        """
        if address < 0:
            raise ConfigurationError(f"{self.name}: negative address {address}")
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        line = address & self._line_mask
        index = (address >> self._set_shift) & self._set_mask
        ways = self._sets[index]
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            if is_write:
                stats.write_hits += 1
                self._dirty.add(line)
            else:
                stats.read_hits += 1
            return HIT
        writeback = evicted = None
        if not ways:
            self._sets[index] = [line]
        elif len(ways) < self.associativity:
            ways.append(line)
        else:
            evicted = ways.pop(0)
            ways.append(line)
            stats.evictions += 1
            if evicted in self._dirty:
                self._dirty.remove(evicted)
                writeback = evicted
                stats.writebacks += 1
        if is_write:
            self._dirty.add(line)
        return AccessResult(hit=False, writeback=writeback, evicted=evicted)

    def read_allocate(self, address: int) -> Tuple[bool, Optional[int]]:
        """A read that fills on a miss: ``(hit, dirty_victim)``.

        The same transitions and counters as ``access(address)``,
        returned as plain values (no :class:`AccessResult`: a shared L2
        bank's reads mostly miss).  The caller has checked ``address``.
        """
        stats = self.stats
        stats.reads += 1
        line = address & self._line_mask
        index = (address >> self._set_shift) & self._set_mask
        ways = self._sets[index]
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            stats.read_hits += 1
            return True, None
        if not ways:
            self._sets[index] = [line]
        elif len(ways) < self.associativity:
            ways.append(line)
        else:
            victim = ways.pop(0)
            ways.append(line)
            stats.evictions += 1
            if victim in self._dirty:
                self._dirty.remove(victim)
                stats.writebacks += 1
                return False, victim
        return False, None

    def replay(
        self, addresses: Sequence[int], writes: Optional[Sequence[bool]] = None
    ) -> Tuple[List[int], List[Optional[int]]]:
        """``access`` each of ``addresses`` in order, in one call.

        ``writes[i]`` is reference ``i``'s write flag (all reads when
        ``None``).  Returns ``(misses, victims)``: the offsets in
        ``addresses`` that missed, in order, and for each the dirty
        line its fill evicted, or ``None``.  The cache ends with the
        state and counters the ``access`` calls would leave; at a
        negative address the references before it are applied, then
        :class:`ConfigurationError` is raised, as ``access`` would.
        """
        n = len(addresses)
        if n and min(addresses) < 0:
            first = next(i for i, a in enumerate(addresses) if a < 0)
            self.replay(
                addresses[:first], None if writes is None else writes[:first]
            )
            raise ConfigurationError(
                f"{self.name}: negative address {addresses[first]}"
            )
        if writes is None:
            n_writes = 0
            writes = repeat(False, n)
        else:
            n_writes = sum(writes)
        sets = self._sets
        dirty = self._dirty
        line_mask = self._line_mask
        set_shift = self._set_shift
        set_mask = self._set_mask
        associativity = self.associativity
        misses: List[int] = []
        victims: List[Optional[int]] = []
        write_misses = evictions = writebacks = 0
        for offset, address, is_write in zip(range(n), addresses, writes):
            line = address & line_mask
            index = (address >> set_shift) & set_mask
            ways = sets[index]
            if line in ways:
                if ways[-1] != line:
                    ways.remove(line)
                    ways.append(line)
                if is_write:
                    dirty.add(line)
                continue
            misses.append(offset)
            victim = None
            if not ways:
                sets[index] = [line]
            elif len(ways) < associativity:
                ways.append(line)
            else:
                evicted = ways.pop(0)
                ways.append(line)
                evictions += 1
                if evicted in dirty:
                    dirty.remove(evicted)
                    victim = evicted
                    writebacks += 1
            victims.append(victim)
            if is_write:
                dirty.add(line)
                write_misses += 1
        stats = self.stats
        stats.reads += n - n_writes
        stats.writes += n_writes
        stats.read_hits += n - n_writes - (len(misses) - write_misses)
        stats.write_hits += n_writes - write_misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return misses, victims

    def write_no_allocate(self, address: int) -> bool:
        """Update-in-place write: dirty the line if resident, else miss.

        Used for victim write-backs arriving from an upper level: if the
        line is still here it absorbs the write; if it has been evicted
        the write must be forwarded to the next level (no fetch).
        Returns True on hit.
        """
        line = address & self._line_mask
        ways = self._sets[(address >> self._set_shift) & self._set_mask]
        self.stats.writes += 1
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            self._dirty.add(line)
            self.stats.write_hits += 1
            return True
        return False

    def probe(self, address: int) -> bool:
        """Non-destructive residency check (no state change)."""
        return self.line_address(address) in self._sets[self.set_index(address)]

    # ------------------------------------------------------------------
    # Maintenance (used by the power-gating protocol)
    # ------------------------------------------------------------------
    def _resident(self) -> Iterator[int]:
        """Addresses of all resident lines, set by set (an LRU set's
        least recent first; ``None`` is an invalid way of a
        :class:`PolicyCache` set)."""
        for lines in self._sets:
            for line in lines:
                if line is not None:
                    yield line

    def lines(self) -> Iterator[CacheLine]:
        """All resident lines (built on demand)."""
        dirty = self._dirty
        for line in self._resident():
            yield CacheLine(line, line in dirty)

    def dirty_lines(self) -> List[int]:
        """Addresses of all dirty resident lines, in :meth:`lines` order."""
        dirty = self._dirty
        return [line for line in self._resident() if line in dirty]

    @property
    def resident_lines(self) -> int:
        """Number of valid lines."""
        return sum(1 for _ in self._resident())

    def flush(
        self, predicate: Optional[Callable[[int], bool]] = None
    ) -> Tuple[int, int]:
        """Write back and invalidate lines matching ``predicate``.

        ``predicate`` takes the line address; ``None`` flushes everything.
        Returns ``(lines_written_back, lines_invalidated)``.
        """
        written = invalidated = 0
        dirty = self._dirty
        for lines in self._sets:
            doomed = [
                line
                for line in lines
                if line is not None and (predicate is None or predicate(line))
            ]
            for line in doomed:
                self._drop(lines, line)
                invalidated += 1
                if line in dirty:
                    dirty.remove(line)
                    written += 1
        self.stats.writebacks += written
        return written, invalidated

    @staticmethod
    def _drop(lines: List[int], line: int) -> None:
        """Invalidate resident ``line`` of set ``lines``."""
        lines.remove(line)

    def invalidate_all(self) -> int:
        """Drop every line without writing back (power-off semantics
        *after* the controller has already flushed dirty data)."""
        count = self.resident_lines
        self._clear()
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.name} {self.capacity_bytes}B "
            f"{self.associativity}-way {self.n_sets} sets>"
        )


class PolicyCache(SetAssociativeCache):
    """A :class:`SetAssociativeCache` run by per-set policy objects.

    Built for the FIFO, random and tree-PLRU ablation policies, and for
    LRU at an index stride that is not a power of two.  A set is a
    list of ``associativity`` numbered ways, each holding a line
    address or ``None`` (invalid); a fill takes the lowest invalid way,
    else the way the set's :class:`~repro.mem.replacement.ReplacementPolicy`
    names, which is told of every hit and fill.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._policies = [
            make_policy(self._policy_name, self.associativity, seed=self._seed + i)
            for i in range(self.n_sets)
        ]

    def _clear(self) -> None:
        self._sets = [[None] * self.associativity for _ in range(self.n_sets)]
        self._dirty = set()

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        if address < 0:
            raise ConfigurationError(f"{self.name}: negative address {address}")
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        line = address & self._line_mask
        index = self.set_index(address)
        ways = self._sets[index]
        policy = self._policies[index]
        if line in ways:
            policy.touch(ways.index(line))
            if is_write:
                stats.write_hits += 1
                self._dirty.add(line)
            else:
                stats.read_hits += 1
            return HIT
        writeback = evicted = None
        if None in ways:
            way = ways.index(None)
        else:
            way = policy.victim([True] * self.associativity)
            evicted = ways[way]
            stats.evictions += 1
            if evicted in self._dirty:
                self._dirty.remove(evicted)
                writeback = evicted
                stats.writebacks += 1
        ways[way] = line
        policy.insert(way)
        if is_write:
            self._dirty.add(line)
        return AccessResult(hit=False, writeback=writeback, evicted=evicted)

    def read_allocate(self, address: int) -> Tuple[bool, Optional[int]]:
        result = self.access(address)
        return result.hit, result.writeback

    def replay(
        self, addresses: Sequence[int], writes: Optional[Sequence[bool]] = None
    ) -> Tuple[List[int], List[Optional[int]]]:
        misses: List[int] = []
        victims: List[Optional[int]] = []
        access = self.access
        if writes is None:
            writes = repeat(False, len(addresses))
        for offset, (address, is_write) in enumerate(zip(addresses, writes)):
            result = access(address, is_write)
            if not result.hit:
                misses.append(offset)
                victims.append(result.writeback)
        return misses, victims

    def write_no_allocate(self, address: int) -> bool:
        line = address & self._line_mask
        index = self.set_index(address)
        ways = self._sets[index]
        self.stats.writes += 1
        if line in ways:
            self._policies[index].touch(ways.index(line))
            self._dirty.add(line)
            self.stats.write_hits += 1
            return True
        return False

    @staticmethod
    def _drop(lines: List[Optional[int]], line: int) -> None:
        lines[lines.index(line)] = None
