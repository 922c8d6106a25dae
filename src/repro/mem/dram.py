"""Off-cluster DRAM model and the round-robin Miss bus (Table I, Fig 1).

Table I evaluates three DRAM technologies through a single controller
(2 Gb, 4 KB pages):

* 200 ns — off-chip 2-D DDR3 [18];
* 63 ns  — on-chip 3-D Wide I/O SDR, JEDEC JESD229 [17];
* 42 ns  — on-chip 3-D DRAM from Weis et al. [16].

The paper uses these as flat access latencies; :class:`DRAMModel`
defaults to the same behaviour (closed-page policy) but also implements
an open-page mode with row-buffer hit tracking for ablations.  A single
controller serializes requests: occupancy is modelled with a busy-until
reservation, so heavy miss traffic queues realistically.

"In case of instruction miss, Miss bus handles line refills in a
round-robin manner towards the off-cluster DRAM" — :class:`MissBus`
models that shared refill bus with round-robin fairness among cores.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DRAMTimings:
    """One DRAM technology operating point.

    Energy figures feed the EDP analysis: off-chip DDR3 pays I/O
    termination per access and a larger background power than the
    TSV-connected on-chip stacks [16][17].
    """

    name: str
    access_latency_ns: float
    #: Row-buffer hit latency as a fraction of the full access (only
    #: used in open-page mode).
    page_hit_fraction: float = 0.5
    #: Energy of one 32-byte line transfer (J).
    energy_per_access_j: float = 15e-9
    #: Standby/background power of the device + PHY (W).
    background_w: float = 0.10

    def latency_cycles(self, frequency_hz: float = 1e9) -> int:
        """Full (closed-page) access latency in core clock cycles."""
        from repro.units import ns_to_cycles

        return ns_to_cycles(self.access_latency_ns, frequency_hz)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able representation; inverse of :meth:`from_dict`.

        Scenario specs (:mod:`repro.scenario`) serialize timings in
        full, so *any* operating point — not just the Table I presets —
        survives CLI/JSON/worker-process round trips.
        """
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DRAMTimings":
        """Rebuild timings from :meth:`to_dict` output."""
        allowed = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown DRAMTimings keys {sorted(unknown)}"
            )
        return cls(**data)


#: Off-chip DDR3 (Micron datasheet class) [18].
DDR3_OFFCHIP = DRAMTimings(
    "off-chip 2-D DRAM (DDR3)", 200.0, energy_per_access_j=15e-9, background_w=0.10
)
#: JEDEC Wide I/O SDR stacked DRAM [17].
WIDE_IO_3D = DRAMTimings(
    "on-chip 3-D DRAM (JEDEC Wide I/O)", 63.0, energy_per_access_j=4e-9,
    background_w=0.05,
)
#: Weis et al. optimized 3-D DRAM [16].
WEIS_3D = DRAMTimings(
    "on-chip 3-D DRAM (Weis)", 42.0, energy_per_access_j=3e-9, background_w=0.04
)

#: The sweep order of Figs 7-8.
PAPER_DRAM_TIMINGS: Tuple[DRAMTimings, ...] = (DDR3_OFFCHIP, WIDE_IO_3D, WEIS_3D)


@dataclass(slots=True)
class DRAMStats:
    """Controller traffic counters."""

    reads: int = 0
    writes: int = 0
    page_hits: int = 0
    page_misses: int = 0
    busy_cycles: int = 0

    @property
    def accesses(self) -> int:
        """Total requests served."""
        return self.reads + self.writes


class DRAMModel:
    """Single-controller DRAM with 2 Gb capacity and 4 KB pages.

    Parameters
    ----------
    timings:
        Technology operating point (one of the Table I presets).
    frequency_hz:
        Core clock used to convert latencies to cycles.
    page_policy:
        ``"closed"`` reproduces the paper's flat latency; ``"open"``
        keeps one row open per bank group and rewards locality.
    service_cycles:
        Controller occupancy per request (data burst on the DRAM bus);
        back-to-back requests queue behind it.
    """

    CAPACITY_BYTES = 2 * 1024 * 1024 * 1024 // 8  # 2 Gb
    PAGE_BYTES = 4 * 1024

    def __init__(
        self,
        timings: DRAMTimings = DDR3_OFFCHIP,
        frequency_hz: float = 1e9,
        page_policy: str = "closed",
        service_cycles: int = 4,
    ) -> None:
        if page_policy not in ("closed", "open"):
            raise ConfigurationError(
                f"page policy must be 'closed' or 'open', got {page_policy!r}"
            )
        if service_cycles < 1:
            raise ConfigurationError("service cycles must be >= 1")
        self.timings = timings
        self.frequency_hz = frequency_hz
        self.page_policy = page_policy
        self.service_cycles = service_cycles
        self.stats = DRAMStats()
        self._open_page: Optional[int] = None
        self._busy_until: int = 0
        # Device latency is fixed per technology/clock: convert once.
        self._device_cycles = timings.latency_cycles(frequency_hz)

    # ------------------------------------------------------------------
    def page_of(self, address: int) -> int:
        """Page number of ``address``."""
        if address < 0:
            raise ConfigurationError(f"negative address {address}")
        return address // self.PAGE_BYTES

    def access(self, address: int, now_cycle: int, is_write: bool = False) -> int:
        """Serve one request; returns its total latency in cycles.

        The latency seen by the requester = queueing behind the busy
        controller + the device access time.
        """
        if now_cycle < 0:
            raise ConfigurationError("time must be non-negative")
        if address < 0:
            raise ConfigurationError(f"negative address {address}")
        return self.serve(address, now_cycle, is_write)

    def serve(self, address: int, now_cycle: int, is_write: bool) -> int:
        """:meth:`access` without its argument checks, for a caller whose
        address and time are already known valid (the cluster's miss
        path, whose addresses come from its caches)."""
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        start = self._busy_until
        if start < now_cycle:
            start = now_cycle
        queue_wait = start - now_cycle

        device = self._device_cycles
        if self.page_policy == "open":
            page = address // self.PAGE_BYTES
            if page == self._open_page:
                device = int(device * self.timings.page_hit_fraction)
                stats.page_hits += 1
            else:
                stats.page_misses += 1
            self._open_page = page
        else:
            stats.page_misses += 1

        self._busy_until = start + self.service_cycles
        stats.busy_cycles += self.service_cycles
        return queue_wait + device


@dataclass
class MissBusStats:
    """Refill-bus traffic counters."""

    transfers: int = 0
    queued_cycles: int = 0
    conflicts: int = 0


class MissBus:
    """Shared line-refill bus with round-robin arbitration among cores.

    Transaction-level model: the bus carries one line refill at a time
    (``transfer_cycles`` each).  The event-driven simulator presents
    requests in time order, so :meth:`request` queues FIFO behind the
    busy bus; *simultaneous* misses (the case round-robin exists for)
    go through :meth:`request_batch`, which grants in round-robin order
    starting after the last-granted core.
    """

    def __init__(self, n_cores: int = 16, transfer_cycles: int = 4) -> None:
        if n_cores < 1:
            raise ConfigurationError("need at least one core")
        if transfer_cycles < 1:
            raise ConfigurationError("transfer cycles must be >= 1")
        self.n_cores = n_cores
        self.transfer_cycles = transfer_cycles
        self.stats = MissBusStats()
        self._busy_until = 0
        self._last_granted = n_cores - 1

    def request(self, core: int, now_cycle: int) -> int:
        """Request the bus at ``now_cycle``; returns the grant cycle.

        The caller's transfer completes at ``grant + transfer_cycles``.
        """
        self._check_core(core)
        if now_cycle < 0:
            raise ConfigurationError("time must be non-negative")
        grant = max(now_cycle, self._busy_until)
        if grant > now_cycle:
            self.stats.conflicts += 1
        self._record_grant(core, now_cycle, grant)
        return grant

    def refill(
        self, core: int, address: int, now_cycle: int, dram: DRAMModel
    ) -> int:
        """One demand line refill: the bus grant, then ``dram``'s read.

        The same state and counters as :meth:`request` at ``now_cycle``
        followed by ``dram.access(address, grant)``, in one call and
        without their argument checks (the cluster's miss path has
        checked the address; its cores and times are valid).  Returns
        the cycles from ``now_cycle`` until the line has crossed the
        bus.
        """
        stats = self.stats
        grant = self._busy_until
        if grant > now_cycle:
            stats.conflicts += 1
        else:
            grant = now_cycle
        stats.transfers += 1
        stats.queued_cycles += grant - now_cycle
        self._last_granted = core
        transfer = self.transfer_cycles
        self._busy_until = grant + transfer
        return grant - now_cycle + dram.serve(address, grant, False) + transfer

    def request_batch(self, cores: List[int], now_cycle: int) -> Dict[int, int]:
        """Grant simultaneous requests in round-robin order.

        The core cyclically following the last-granted core is served
        first ("Miss bus handles line refills in a round-robin manner").
        Returns ``{core: grant_cycle}``.
        """
        for core in cores:
            self._check_core(core)
        if len(set(cores)) != len(cores):
            raise ConfigurationError("duplicate cores in one batch")
        if len(cores) > 1:
            self.stats.conflicts += len(cores) - 1
        order = sorted(
            cores, key=lambda c: (c - self._last_granted - 1) % self.n_cores
        )
        grants: Dict[int, int] = {}
        for core in order:
            grant = max(now_cycle, self._busy_until)
            self._record_grant(core, now_cycle, grant)
            grants[core] = grant
        return grants

    # ------------------------------------------------------------------
    def _record_grant(self, core: int, now_cycle: int, grant: int) -> None:
        self.stats.transfers += 1
        self.stats.queued_cycles += grant - now_cycle
        self._last_granted = core
        self._busy_until = grant + self.transfer_cycles

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.n_cores:
            raise ConfigurationError(f"core {core} out of range")

    @property
    def busy_until(self) -> int:
        """Cycle at which the current transfer completes."""
        return self._busy_until
