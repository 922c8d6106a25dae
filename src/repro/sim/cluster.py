"""The 3-D multi-core cluster: cores + L1s + interconnect + stacked L2
+ Miss bus + DRAM (paper Fig 1), assembled for one simulation run.

:class:`Cluster3D` is the top-level object users build experiments
from: pick an interconnect model, a power state, a DRAM technology and
a workload, call :meth:`run`, get a :class:`~repro.sim.stats.SimReport`.

Memory-reference flow (Section II):

1. L1 access (1 cycle, private I or D cache).
2. On L1 miss, the reference crosses the interconnect to its L2 bank —
   the *logical* bank index is the packet's address field; the fabric
   (or the remap table, equivalently) picks the physical bank.
3. On L2 miss, the line refills from the single DRAM controller over
   the round-robin Miss bus; dirty L2 victims write back to DRAM off
   the critical path.
4. Dirty L1 victims write back into L2 off the critical path (write
   buffer), charging bank occupancy and energy but not stalling the
   core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.errors import ConfigurationError, SimulationError
from repro.mem.dram import DRAMModel, DRAMTimings, DDR3_OFFCHIP, MissBus
from repro.mem.l1 import L1Cache, L1Config
from repro.mem.l2 import BankedL2, L2Config
from repro.mot.power_state import PowerState
from repro.mot.reconfigurator import plan_reconfiguration
from repro.noc.base import Interconnect
from repro.noc.mot_adapter import MoTInterconnect
from repro.sim.engine import SimulationEngine
from repro.sim.l1pass import MissStream, miss_stream
from repro.sim.stats import SimReport
from repro.sim.trace import CoreTrace, MemRef


class Cluster3D:
    """One simulatable instance of the paper's target architecture.

    Parameters
    ----------
    interconnect:
        Any :class:`~repro.noc.base.Interconnect`; defaults to the MoT.
    power_state:
        Which cores/banks are on.  Packet-switched baselines are only
        evaluated at Full connection in the paper (power states are the
        MoT's feature), but any combination is accepted.
    dram:
        DRAM technology (Table I: 200 / 63 / 42 ns).
    """

    def __init__(
        self,
        interconnect: Optional[Interconnect] = None,
        power_state: Optional[PowerState] = None,
        dram: DRAMTimings = DDR3_OFFCHIP,
        l1_config: L1Config = L1Config(),
        l2_config: L2Config = L2Config(),
        frequency_hz: float = 1e9,
        miss_bus_transfer_cycles: int = 4,
    ) -> None:
        if power_state is None:
            power_state = PowerState.from_counts(
                "Full connection", 16, l2_config.n_banks, 16, l2_config.n_banks
            )
        self.power_state = power_state
        self.frequency_hz = frequency_hz
        self.interconnect = interconnect or MoTInterconnect(state=power_state)
        if isinstance(self.interconnect, MoTInterconnect):
            # A MoT built for this very state (the usual case) is left
            # as it is: applying a state reconfigures the whole fabric.
            if self.interconnect.power_state != power_state:
                self.interconnect.set_power_state(power_state)
            # The L2 folds banks by the plan the fabric is driven by.
            plan = self.interconnect.fabric.plan
        else:
            plan = plan_reconfiguration(power_state)
        self.l2 = BankedL2(config=l2_config, plan=plan)
        self.l1i: Dict[int, L1Cache] = {}
        self.l1d: Dict[int, L1Cache] = {}
        for core in sorted(power_state.active_cores):
            self.l1i[core] = L1Cache(core, "I", l1_config)
            self.l1d[core] = L1Cache(core, "D", l1_config)

        self.dram_timings = dram
        self.dram = DRAMModel(dram, frequency_hz=frequency_hz)
        self.miss_bus = MissBus(
            n_cores=power_state.total_cores,
            transfer_cycles=miss_bus_transfer_cycles,
        )
        #: Every L1 is built from this one config, so a miss stream
        #: built from it fits any core of this cluster.
        self.l1_config = l1_config
        self.l1_hit_latency_cycles = l1_config.hit_latency_cycles
        # Prebound miss-path callables (one lookup at init, not per miss).
        self._l2_demand_read = self.l2.demand_read
        self._l2_absorb_writeback = self.l2.absorb_writeback
        self._ic_access = self.interconnect.access
        self._dram_serve = self.dram.serve
        self._refill = self.miss_bus.refill
        #: The ClusterConfig this instance was built from (set by
        #: :meth:`from_config`; ``None`` for loose-pieces construction).
        self.config = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        config: Optional["ClusterConfig"] = None,
        *,
        interconnect: Optional[Interconnect] = None,
        power_state: Optional[PowerState] = None,
        dram: Optional[DRAMTimings] = None,
        miss_bus_transfer_cycles: int = 4,
    ) -> "Cluster3D":
        """Build a cluster from a :class:`~repro.config.ClusterConfig`.

        This is the canonical construction path (the scenario layer and
        the experiment harness both use it): the config supplies the L1/
        L2 geometries, clock, floorplan and default DRAM; ``dram``
        overrides the config's DRAM technology, ``power_state`` defaults
        to Full connection on the config's dimensions, and
        ``interconnect`` defaults to the MoT built on the config's
        floorplan.
        """
        from repro.config import DEFAULT_CONFIG

        if config is None:
            config = DEFAULT_CONFIG
        if power_state is None:
            power_state = PowerState.from_counts(
                "Full connection",
                config.n_cores,
                config.l2.n_banks,
                config.n_cores,
                config.l2.n_banks,
            )
        if interconnect is None:
            interconnect = MoTInterconnect(
                state=power_state, floorplan=config.floorplan
            )
        cluster = cls(
            interconnect=interconnect,
            power_state=power_state,
            dram=dram if dram is not None else config.dram,
            l1_config=config.l1,
            l2_config=config.l2,
            frequency_hz=config.frequency_hz,
            miss_bus_transfer_cycles=miss_bus_transfer_cycles,
        )
        cluster.config = config
        return cluster

    # ------------------------------------------------------------------
    # Memory system
    # ------------------------------------------------------------------
    def memory_access(self, core: int, ref: MemRef, now: int) -> int:
        """Charge one reference; returns its total latency in cycles.

        The legacy single-callback form: the L1 lookup and
        :meth:`finish_miss` composed at one time.
        """
        l1 = self.l1i[core] if ref.is_instruction else self.l1d[core]
        result = l1.access(ref.address, ref.is_write)
        if result.hit:
            return l1.hit_latency_cycles
        return self.finish_miss(core, ref.address, result.writeback, now)

    def finish_miss(
        self, core: int, address: int, victim: Optional[int], now: int
    ) -> int:
        """Shared half of a reference that missed its L1, charged at
        ``now``; ``victim`` is the dirty line the L1 fill evicted, or
        ``None``.

        First the dirty victim's posted write into L2 (forwarded to
        DRAM when L2 has meanwhile evicted the line; no refill, no
        Miss-bus slot, no stall), then the blocking L2 demand read with
        its DRAM refill on a miss — one flattened pass, since this runs
        once per L1 miss of every simulation.  The L2 calls check each
        address once; DRAM is then served unchecked.
        """
        ic_access = self._ic_access
        if victim is not None:
            # Dirty L1 victim drains to L2 through a write buffer: bank
            # occupancy and energy are charged, the core is not stalled.
            hit, physical_bank = self._l2_absorb_writeback(victim)
            ic_access(core, physical_bank, now, True)
            if not hit:
                self._dram_serve(victim, now, True)
        l1_latency = self.l1_hit_latency_cycles
        t = now + l1_latency
        (hit, writeback), physical_bank = self._l2_demand_read(address)
        latency = ic_access(core, physical_bank, t, False)
        if not hit:
            # Line refill: round-robin Miss bus, then the controller.
            latency += self._refill(core, address, t + latency, self.dram)
        if writeback is not None:
            # Dirty L2 victim: posted write to DRAM off the critical path.
            self._dram_serve(writeback, t, True)
        return l1_latency + latency

    # ------------------------------------------------------------------
    # Running workloads
    # ------------------------------------------------------------------
    def run(
        self,
        traces: Dict[int, Union[CoreTrace, MissStream]],
        workload_name: str = "workload",
        max_cycles: int = 2_000_000_000,
        engine_mode: str = "auto",
    ) -> SimReport:
        """Simulate ``traces`` (one per active core) to completion.

        ``traces`` may hold per-reference steps, array-backed blocks or
        :class:`~repro.sim.l1pass.MissStream` objects built from this
        cluster's L1 config (a sweep shares one stream across cells).
        ``engine_mode`` selects the scheduler: ``"auto"`` (the fast
        miss-stream walk; a raw trace first passes through this
        cluster's own L1s), or ``"legacy"`` for the one-heap-event-per-
        action loop over raw traces — both produce identical reports
        (the differential suite enforces it).
        """
        expected = set(self.power_state.active_cores)
        if set(traces) != expected:
            raise ConfigurationError(
                f"traces cover cores {sorted(traces)} but the power state "
                f"activates {sorted(expected)}"
            )
        if engine_mode == "legacy":
            if any(isinstance(t, MissStream) for t in traces.values()):
                raise ConfigurationError(
                    "the legacy scheduler replays raw traces, not miss streams"
                )
            engine = SimulationEngine(
                traces, self.memory_access, max_cycles, mode="legacy"
            )
            execution_cycles = engine.run()
            l1_accesses = l1_misses = 0
            for caches in (self.l1i, self.l1d):
                for l1 in caches.values():
                    l1_accesses += l1.stats.accesses
                    l1_misses += l1.stats.misses
        else:
            streams = {}
            for core, trace in traces.items():
                if not isinstance(trace, MissStream):
                    trace = miss_stream(
                        trace, self.l1i[core].cache, self.l1d[core].cache,
                        self.l1_config, max_cycles,
                    )
                elif trace.l1_config != self.l1_config:
                    raise ConfigurationError(
                        f"core {core}'s miss stream was built for "
                        f"{trace.l1_config}, not this cluster's "
                        f"{self.l1_config}"
                    )
                streams[core] = trace
            engine = SimulationEngine(
                streams,
                self.memory_access,
                max_cycles,
                memory_system=self,
                mode=engine_mode,
            )
            execution_cycles = engine.run()
            l1_accesses = sum(s.references for s in streams.values())
            l1_misses = sum(s.misses for s in streams.values())
        return self._report(
            workload_name, execution_cycles, engine, l1_accesses, l1_misses
        )

    def _report(
        self,
        workload_name: str,
        execution_cycles: int,
        engine: SimulationEngine,
        l1_accesses: int,
        l1_misses: int,
    ) -> SimReport:
        l2_stats = self.l2.total_stats()
        ic = self.interconnect.stats
        return SimReport(
            workload_name=workload_name,
            interconnect_name=self.interconnect.name,
            power_state_name=self.power_state.name,
            n_active_cores=self.power_state.n_active_cores,
            n_active_banks=self.power_state.n_active_banks,
            dram_name=self.dram_timings.name,
            execution_cycles=execution_cycles,
            cores=[engine.core_stats[c] for c in sorted(engine.core_stats)],
            l1_accesses=l1_accesses,
            l1_misses=l1_misses,
            l2_accesses=l2_stats.accesses,
            l2_hits=l2_stats.hits,
            l2_misses=l2_stats.misses,
            l2_writebacks=l2_stats.writebacks,
            dram_accesses=self.dram.stats.accesses,
            interconnect_energy_j=ic.energy_j,
            mean_l2_latency_cycles=ic.mean_latency_cycles,
            interconnect_queueing_cycles=ic.queueing_cycles,
        )
