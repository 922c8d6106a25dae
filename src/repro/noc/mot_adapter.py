"""Adapter exposing the circuit-switched 3-D MoT through the common
:class:`~repro.noc.base.Interconnect` interface.

The MoT's zero-load latency is uniform by construction (the fabric sits
in the middle of the core tier, "which makes it easier that memory
access latency from each core is well balanced") and comes from the
calibrated :class:`~repro.mot.latency.MoTLatencyModel` — 12 cycles at
Full connection, per Table I.  Contention arises only at the bank ports:
the routing/arbitration trees are non-blocking for disjoint bank
targets, and the pipelined switches [10] accept a new transaction every
cycle, so same-bank requests serialize at the bank's occupancy.
"""

from __future__ import annotations

from typing import Optional

from repro.mot.fabric import MoTFabric
from repro.mot.latency import MoTLatencyModel
from repro.mot.power import MoTPowerModel
from repro.mot.power_state import PowerState
from repro.noc.base import Interconnect
from repro.phys.geometry import Floorplan3D


class MoTInterconnect(Interconnect):
    """The paper's reconfigurable circuit-switched 3-D MoT."""

    name = "3-D MoT"

    def __init__(
        self,
        state: Optional[PowerState] = None,
        floorplan: Optional[Floorplan3D] = None,
        latency_model: Optional[MoTLatencyModel] = None,
        power_model: Optional[MoTPowerModel] = None,
        bank_occupancy_cycles: int = 1,
    ) -> None:
        super().__init__()
        if state is None:
            state = PowerState.from_counts("Full connection", 16, 32)
        self.floorplan = floorplan or Floorplan3D(
            n_cores=state.total_cores, n_banks=state.total_banks
        )
        self.latency_model = latency_model or MoTLatencyModel(
            floorplan=self.floorplan
        )
        self.power_model = power_model or MoTPowerModel(
            n_cores=state.total_cores,
            n_banks=state.total_banks,
            floorplan=self.floorplan,
        )
        self.bank_occupancy_cycles = bank_occupancy_cycles
        #: Busy-until cycle of each bank port.
        self._bank_busy = [0] * state.total_banks
        self._fabric = MoTFabric(
            state.total_cores, state.total_banks, self.floorplan, state
        )
        self._settle(state)

    # ------------------------------------------------------------------
    # Power-state control
    # ------------------------------------------------------------------
    @property
    def power_state(self) -> PowerState:
        """The active power state."""
        return self._state

    def set_power_state(self, state: PowerState) -> None:
        """Reconfigure the fabric (latency and leakage change)."""
        self._apply(state)

    def _apply(self, state: PowerState) -> None:
        self._fabric.apply_power_state(state)
        self._settle(state)

    def _settle(self, state: PowerState) -> None:
        """Take on ``state``, which the fabric is already driven to."""
        self._state = state
        # The per-state latency/energy surface: uniform across
        # (core, bank) pairs for the MoT, so the "table" is two scalars
        # recomputed once per reconfiguration (never per access).
        self._hit_latency = self.latency_model.hit_latency_cycles(state)
        self._access_energy = self.power_model.access_energy_j(state)
        self._leakage = self.power_model.leakage_w(state, self._fabric)
        self.invalidate_tables()

    # ------------------------------------------------------------------
    # Interconnect interface
    # ------------------------------------------------------------------
    def access(
        self, core: int, bank: int, now_cycle: int, is_write: bool = False
    ) -> int:
        # Bank-port claim and stats inlined: this runs once per L2
        # access of every MoT simulation (the Fig 7/8 hot path).
        busy = self._bank_busy
        start = busy[bank]
        if start < now_cycle:
            start = now_cycle
        busy[bank] = start + self.bank_occupancy_cycles
        queued = start - now_cycle
        latency = queued + self._hit_latency
        stats = self.stats
        stats.accesses += 1
        stats.total_latency_cycles += latency
        stats.queueing_cycles += queued
        stats.energy_j += self._access_energy
        return latency

    def zero_load_latency(self, core: int, bank: int) -> int:
        """Uniform across pairs (balanced placement, Fig 1b)."""
        return self._hit_latency

    def access_energy_j(self, core: int, bank: int, is_write: bool = False) -> float:
        """Uniform per-access energy of the current power state."""
        return self._access_energy

    def leakage_w(self) -> float:
        """Leakage of the powered-on switch/wire population."""
        return self._leakage

    def reset_contention(self) -> None:
        """Clear bank-port reservations (between experiment phases)."""
        self._bank_busy = [0] * len(self._bank_busy)

    @property
    def fabric(self) -> MoTFabric:
        """The live functional fabric (for gating experiments)."""
        return self._fabric
