"""Shared vertical TSV bus used by the hybrid baselines.

Li et al. [2] replace per-tier vertical routers with a dTDMA "pillar":
a bus spanning the tiers of one stack location.  The bus is the sole
vertical medium, so every request and response to a bank above the
pillar arbitrates for it.  :class:`VerticalBus` is a transaction-level
model: one transfer holds the bus for its serialization time; waiters
queue FIFO (the event-driven caller presents requests in time order),
with round-robin resolution of simultaneous batches available for
fairness tests, mirroring :class:`repro.mem.dram.MissBus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError


@dataclass
class BusStats:
    """Vertical-bus traffic counters."""

    transfers: int = 0
    queued_cycles: int = 0

    @property
    def mean_wait_cycles(self) -> float:
        """Average queueing delay per transfer."""
        return self.queued_cycles / self.transfers if self.transfers else 0.0


class VerticalBus:
    """One TSV pillar shared by the tiers above a stack location.

    Parameters
    ----------
    bus_id:
        Identifier (pillar location) for error messages.
    hop_cycles:
        Cycles for the electrical traversal of the pillar (short TSVs:
        1 cycle regardless of tier count at these heights).
    turnaround_cycles:
        Dead cycles between consecutive transfers (driver turnaround /
        re-arbitration).  Point-to-point dTDMA pillars need none; a
        multi-drop bus shared by many banks pays a couple per transfer,
        which is what makes heavily shared buses saturate first.
    """

    def __init__(
        self, bus_id: str, hop_cycles: int = 1, turnaround_cycles: int = 0
    ) -> None:
        if hop_cycles < 1:
            raise ConfigurationError("bus hop cycles must be >= 1")
        if turnaround_cycles < 0:
            raise ConfigurationError("turnaround must be non-negative")
        self.bus_id = bus_id
        self.hop_cycles = hop_cycles
        self.turnaround_cycles = turnaround_cycles
        self.stats = BusStats()
        self._busy_until = 0
        self._last_granted = -1

    def transfer(self, requester: int, now_cycle: int, hold_cycles: int) -> int:
        """Acquire the bus at the earliest cycle >= ``now_cycle``.

        ``hold_cycles`` is the serialization time of the transfer
        (flits); returns the cycle the transfer *starts*; it completes
        ``hold_cycles + hop_cycles`` later.
        """
        if now_cycle < 0 or hold_cycles < 1:
            raise ConfigurationError("bad transfer timing")
        start = self._busy_until
        if start < now_cycle:
            start = now_cycle
        stats = self.stats
        stats.transfers += 1
        stats.queued_cycles += start - now_cycle
        self._busy_until = start + hold_cycles + self.turnaround_cycles
        self._last_granted = requester
        return start

    def transfer_batch(
        self, requesters: List[int], now_cycle: int, hold_cycles: int
    ) -> Dict[int, int]:
        """Round-robin grant of simultaneous transfers (fairness tests)."""
        if len(set(requesters)) != len(requesters):
            raise ConfigurationError("duplicate requesters in one batch")
        n = max(requesters, default=0) + 1
        order = sorted(
            requesters, key=lambda r: (r - self._last_granted - 1) % max(n, 1)
        )
        return {r: self.transfer(r, now_cycle, hold_cycles) for r in order}

    @property
    def busy_until(self) -> int:
        """Cycle at which the current transfer releases the bus."""
        return self._busy_until

    def reset(self) -> None:
        """Release the bus and zero stats."""
        self._busy_until = 0
        self._last_granted = -1
        self.stats = BusStats()
