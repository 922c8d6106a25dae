"""Common interface all interconnect models implement.

The system-level simulator is interconnect-agnostic: it hands every L2
access (after an L1 miss) to an :class:`Interconnect`, which accounts
for topology, contention and serialization internally and returns the
access's completion time.  Four implementations exist:

* :class:`~repro.noc.mot_adapter.MoTInterconnect` — the paper's
  circuit-switched 3-D MoT;
* :class:`~repro.noc.mesh3d.True3DMesh` — packet routers on every tier;
* :class:`~repro.noc.bus_mesh.HybridBusMesh` — 2-D mesh + TSV pillar
  buses (Li et al. [2]);
* :class:`~repro.noc.bus_tree.HybridBusTree` — reduction tree + shared
  vertical buses (Madan et al. [21]).

Contention modelling is transaction-level: every shared resource (link,
bus, bank port) keeps a busy-until reservation; requests queue behind
it.  This is the standard analytical wormhole approximation — accurate
for the moderate loads of a 16-core cluster and orders of magnitude
faster than flit-level simulation (see DESIGN.md, substitutions).

Topology is static between reconfigurations, so everything an access
needs that does *not* depend on traffic — routes, per-hop delays,
zero-load latencies, per-access energies — is precomputed into a
``(core, bank)`` table the first time a pair is used and reused until
:meth:`Interconnect.invalidate_tables` (called on power-state changes).
Only the contention reservations stay dynamic on top of the tables.
The packet-switched baselines (:class:`PacketInterconnect`) have no
power states: their entries depend on frozen parameters alone, so they
are built once per parameter set and shared by every instance, and
name links, pillars and buses by small integers that index each
instance's own flat reservation lists.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple


@dataclass(slots=True)
class InterconnectStats:
    """Traffic/latency counters every interconnect keeps."""

    accesses: int = 0
    total_latency_cycles: int = 0
    queueing_cycles: int = 0
    #: Dynamic energy consumed by the interconnect so far (J).
    energy_j: float = 0.0

    @property
    def mean_latency_cycles(self) -> float:
        """Average end-to-end L2 access latency."""
        if self.accesses == 0:
            return 0.0
        return self.total_latency_cycles / self.accesses

    def record(self, latency: int, queueing: int, energy_j: float) -> None:
        """Account one completed access."""
        self.accesses += 1
        self.total_latency_cycles += latency
        self.queueing_cycles += queueing
        self.energy_j += energy_j

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = 0
        self.total_latency_cycles = 0
        self.queueing_cycles = 0
        self.energy_j = 0.0


class Interconnect(ABC):
    """One core-to-L2 interconnect fabric.

    Subclasses model one *complete L2 access* per call: request
    traversal, bank access, response traversal, with all queueing.
    """

    name: str = "interconnect"

    def __init__(self) -> None:
        self.stats = InterconnectStats()
        #: (core, bank) -> precomputed static route data (class-specific
        #: payload built by :meth:`_build_route_entry`).
        self._route_table: Dict[Tuple[int, int], tuple] = {}

    def _build_route_entry(self, core: int, bank: int) -> tuple:
        """Compute the static (traffic-independent) data of one pair.

        Subclasses override; the default carries ``(zero_load_latency,)``
        so :meth:`latency_energy_table` works for any implementation.
        """
        return (self.zero_load_latency(core, bank),)

    def _route_entry(self, core: int, bank: int) -> tuple:
        """Cached :meth:`_build_route_entry` (built on first use)."""
        key = (core, bank)
        entry = self._route_table.get(key)
        if entry is None:
            entry = self._route_table[key] = self._build_route_entry(core, bank)
        return entry

    def invalidate_tables(self) -> None:
        """Drop the precomputed route tables.

        Must be called whenever the static topology changes (power
        state applied, plan reconfigured); the tables rebuild lazily.
        """
        self._route_table.clear()

    def latency_energy_table(
        self, n_cores: int, n_banks: int
    ) -> Dict[Tuple[int, int], Tuple[int, float]]:
        """``(core, bank) -> (base_latency_cycles, access_energy_j)``.

        The uncontended latency and per-access (read) energy of every
        pair — the precomputed surface the fast path runs on, exposed
        for inspection and benchmarks.  Building it warms the route
        cache for every listed pair.
        """
        out = {}
        for c in range(n_cores):
            for b in range(n_banks):
                self._route_entry(c, b)  # warm the cache
                out[(c, b)] = (
                    self.zero_load_latency(c, b),
                    self.access_energy_j(c, b),
                )
        return out

    def access_energy_j(self, core: int, bank: int, is_write: bool = False) -> float:
        """Dynamic energy of one (uncontended) access.  Subclasses with
        per-route energies override; the default reports 0."""
        return 0.0

    @abstractmethod
    def access(
        self, core: int, bank: int, now_cycle: int, is_write: bool = False
    ) -> int:
        """Perform one L2 access; returns its total latency in cycles.

        ``bank`` is the *physical* bank (the simulator resolves any
        remapping first).  Implementations must record into ``stats``.
        """

    @abstractmethod
    def zero_load_latency(self, core: int, bank: int) -> int:
        """Uncontended L2 access latency between ``core`` and ``bank``."""

    @abstractmethod
    def leakage_w(self) -> float:
        """Static power of the powered-on fabric (W)."""

    def mean_zero_load_latency(self, n_cores: int, n_banks: int) -> float:
        """Average zero-load latency over all core/bank pairs."""
        total = sum(
            self.zero_load_latency(c, b)
            for c in range(n_cores)
            for b in range(n_banks)
        )
        return total / (n_cores * n_banks)

    def reset_stats(self) -> None:
        """Zero the traffic counters (between experiment phases)."""
        self.stats.reset()


class ReservationTable:
    """Busy-until bookkeeping for a family of shared resources.

    ``claim(key, ready, hold)`` returns the cycle the resource becomes
    available to this request (>= ready) and reserves it for ``hold``
    cycles from that point.  (The fabrics' ``access`` paths keep flat
    busy-until lists instead; this table serves the reference models.)
    """

    __slots__ = ("_busy_until",)

    def __init__(self) -> None:
        self._busy_until: Dict[object, int] = {}

    def claim(self, key: object, ready_cycle: int, hold_cycles: int) -> int:
        """Acquire ``key`` at the earliest cycle >= ``ready_cycle``."""
        if hold_cycles < 0:
            raise ValueError("hold must be non-negative")
        start = max(ready_cycle, self._busy_until.get(key, 0))
        self._busy_until[key] = start + hold_cycles
        return start

    def peek(self, key: object) -> int:
        """Cycle at which ``key`` frees, 0 if never claimed."""
        return self._busy_until.get(key, 0)

    def clear(self) -> None:
        """Release everything (between experiment phases)."""
        self._busy_until.clear()


@functools.lru_cache(maxsize=16)
def _static_routes(cls, *params) -> Mapping[Tuple[int, int], tuple]:
    """Every ``(core, bank)`` route entry of fabric ``cls`` built from
    the frozen ``params`` (``cls(*params)`` builds the fabric).

    Pure: the entries are frozen and hold only numbers and tuples of
    numbers (link, pillar and bus *indices*, never per-instance
    objects), so one table serves every instance with equal
    parameters.  Read it, never write it (a plain dict, so a fabric
    that holds it still pickles).
    """
    proto = cls(*params)
    geometry = proto.geometry
    return {
        (core, bank): proto._build_route_entry(core, bank)
        for core in range(geometry.n_cores)
        for bank in range(geometry.n_banks)
    }


class PacketInterconnect(Interconnect):
    """Common frame of the packet-switched baselines.

    The five parameters are frozen dataclasses and fully determine the
    static route entries (the fabrics have no power states), so those
    come from one table per parameter set (:func:`_static_routes`);
    ``_route_table`` holds the pairs this instance has used.  Contention
    is per instance: ``_link_busy`` (indexed by the integer link ids
    the entries carry) and ``_port_busy`` (by bank) are busy-until
    lists.  ``_links``/``_bank_ports`` belong to the contended reference
    model, ``_access_cycles(..., contended=True)``, which walks the
    topology afresh per request; drive one instance through one of the
    two.
    """

    def __init__(self, geometry, timing, packet, power, tsv, n_links: int) -> None:
        super().__init__()
        self.geometry = geometry
        self.timing = timing
        self.packet = packet
        self.power = power
        self.tsv = tsv
        self._n_links = n_links
        self._static: Optional[Mapping[Tuple[int, int], tuple]] = None
        self._clear_reservations()

    def _route_entry(self, core: int, bank: int) -> tuple:
        """The pair's shared entry (out-of-range pairs raise in the
        builder)."""
        key = (core, bank)
        entry = self._route_table.get(key)
        if entry is None:
            if self._static is None:
                self._static = _static_routes(
                    type(self), self.geometry, self.timing, self.packet,
                    self.power, self.tsv,
                )
            entry = self._static.get(key) or self._build_route_entry(core, bank)
            self._route_table[key] = entry
        return entry

    def access_energy_j(self, core: int, bank: int, is_write: bool = False) -> float:
        """Per-route dynamic energy (precomputed surface)."""
        route = self._route_entry(core, bank)
        return route.write_energy if is_write else route.read_energy

    def _clear_reservations(self) -> None:
        """Fresh reservations; ``__init__`` runs this before a subclass
        has built its buses, which its ``reset_contention`` resets."""
        self._link_busy: List[int] = [0] * self._n_links
        self._port_busy: List[int] = [0] * self.geometry.n_banks
        self._links = ReservationTable()
        self._bank_ports = ReservationTable()

    def reset_contention(self) -> None:
        """Clear reservations (between experiment phases)."""
        self._clear_reservations()
