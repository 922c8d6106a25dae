"""Tests of the conservative event-driven scheduler."""

import itertools

import pytest

from repro.errors import SimulationError
from repro.mot.power_state import PC4_MB8
from repro.sim.cluster import Cluster3D
from repro.sim.engine import SimulationEngine
from repro.sim.trace import MemRef, TraceBlock, TraceStep
from repro.workloads.base import SyntheticWorkload


def flat_memory(latency: int):
    """Memory callback with a constant latency."""

    def access(core, ref, now):
        return latency

    return access


def steps(*items):
    return iter(items)


class TestBasicExecution:
    def test_compute_only_trace(self):
        eng = SimulationEngine(
            {0: steps(TraceStep(compute_cycles=100))}, flat_memory(1)
        )
        assert eng.run() == 100
        assert eng.core_stats[0].busy_cycles == 100

    def test_memory_latency_charged(self):
        eng = SimulationEngine(
            {0: steps(TraceStep(compute_cycles=10, ref=MemRef(0)))},
            flat_memory(5),
        )
        assert eng.run() == 15
        stats = eng.core_stats[0]
        assert stats.busy_cycles == 11  # compute + the L1 cycle
        assert stats.stall_cycles == 4

    def test_two_cores_run_concurrently(self):
        eng = SimulationEngine(
            {
                0: steps(TraceStep(compute_cycles=100)),
                1: steps(TraceStep(compute_cycles=60)),
            },
            flat_memory(1),
        )
        assert eng.run() == 100  # max, not sum
        assert eng.core_stats[1].finish_cycle == 60

    def test_memory_accesses_counted(self):
        eng = SimulationEngine(
            {0: steps(
                TraceStep(compute_cycles=1, ref=MemRef(0)),
                TraceStep(compute_cycles=1, ref=MemRef(32)),
            )},
            flat_memory(2),
        )
        eng.run()
        assert eng.core_stats[0].memory_references == 2

    def test_causal_resource_ordering(self):
        """Shared-resource claims happen in global time order."""
        claimed = []

        def access(core, ref, now):
            claimed.append((now, core))
            return 1

        eng = SimulationEngine(
            {
                0: steps(TraceStep(compute_cycles=5, ref=MemRef(0))),
                1: steps(TraceStep(compute_cycles=3, ref=MemRef(0))),
            },
            access,
        )
        eng.run()
        assert claimed == sorted(claimed)

    def test_zero_latency_memory_rejected(self):
        eng = SimulationEngine(
            {0: steps(TraceStep(ref=MemRef(0)))}, flat_memory(0)
        )
        with pytest.raises(SimulationError):
            eng.run()

    def test_no_cores_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine({}, flat_memory(1))

    def test_runaway_guard(self):
        eng = SimulationEngine(
            {0: steps(TraceStep(compute_cycles=10_000),
                      TraceStep(compute_cycles=10_000))},
            flat_memory(1),
            max_cycles=5_000,
        )
        with pytest.raises(SimulationError):
            eng.run()


class TestSafetyValve:
    """``max_cycles`` trips at the same cycle under both schedulers."""

    @staticmethod
    def run_cell(mode, barriers, max_cycles=2_000_000_000):
        traces = SyntheticWorkload("volrend", scale=0.03).trace_blocks(
            sorted(PC4_MB8.active_cores)
        )
        if not barriers:  # the last core's finish is the latest event
            traces = {
                core: [TraceBlock(b.compute_gap, b.addresses, b.is_write,
                                  b.is_instruction)
                       for b in blocks if isinstance(b, TraceBlock)]
                for core, blocks in traces.items()
            }
        return Cluster3D(power_state=PC4_MB8).run(
            traces, max_cycles=max_cycles, engine_mode=mode
        )

    @pytest.mark.parametrize("barriers", [True, False])
    @pytest.mark.parametrize("mode", ["auto", "legacy"])
    def test_valve_at_execution_cycles(self, mode, barriers):
        cycles = self.run_cell("legacy", barriers).execution_cycles
        with pytest.raises(SimulationError):
            self.run_cell(mode, barriers, max_cycles=cycles - 1)
        run = self.run_cell(mode, barriers, max_cycles=cycles)
        assert run.execution_cycles == cycles

    @pytest.mark.parametrize("mode", ["auto", "legacy"])
    def test_endless_trace_stops(self, mode):
        """An endless trace raises instead of running (or, in the L1
        pass, collecting its stream) forever."""
        traces = {
            core: itertools.repeat(TraceStep(compute_cycles=10, ref=MemRef(0)))
            for core in PC4_MB8.active_cores
        }
        with pytest.raises(SimulationError):
            Cluster3D(power_state=PC4_MB8).run(
                traces, max_cycles=5_000, engine_mode=mode
            )


class TestBarriers:
    def test_barrier_synchronizes(self):
        eng = SimulationEngine(
            {
                0: steps(TraceStep(compute_cycles=100, barrier=0),
                         TraceStep(compute_cycles=10)),
                1: steps(TraceStep(compute_cycles=20, barrier=0),
                         TraceStep(compute_cycles=10)),
            },
            flat_memory(1),
        )
        assert eng.run() == 110  # both resume at t=100
        assert eng.core_stats[1].barrier_cycles == 80
        assert eng.core_stats[0].barrier_cycles == 0

    def test_multiple_barriers(self):
        eng = SimulationEngine(
            {
                0: steps(TraceStep(compute_cycles=10, barrier=0),
                         TraceStep(compute_cycles=10, barrier=1)),
                1: steps(TraceStep(compute_cycles=30, barrier=0),
                         TraceStep(compute_cycles=5, barrier=1)),
            },
            flat_memory(1),
        )
        assert eng.run() == 40
        assert eng.core_stats[0].barrier_cycles == 20 + 0
        assert eng.core_stats[1].barrier_cycles == 5

    def test_unreleased_barrier_detected(self):
        eng = SimulationEngine(
            {
                0: steps(TraceStep(compute_cycles=10, barrier=0)),
                1: steps(TraceStep(compute_cycles=10)),  # never arrives
            },
            flat_memory(1),
        )
        with pytest.raises(SimulationError):
            eng.run()

    def test_single_core_barrier_passes_through(self):
        eng = SimulationEngine(
            {0: steps(TraceStep(compute_cycles=10, barrier=0),
                      TraceStep(compute_cycles=5))},
            flat_memory(1),
        )
        assert eng.run() == 15


class TestEngineModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine(
                {0: steps(TraceStep(compute_cycles=1))}, flat_memory(1),
                mode="warp",
            )

    def test_fast_mode_requires_split_memory(self):
        with pytest.raises(SimulationError):
            SimulationEngine(
                {0: steps(TraceStep(compute_cycles=1))}, flat_memory(1),
                mode="fast",
            )

    def test_fast_mode_requires_miss_streams(self):
        cluster = Cluster3D(power_state=PC4_MB8)
        with pytest.raises(SimulationError):
            SimulationEngine(
                {core: steps(TraceStep(compute_cycles=1))
                 for core in PC4_MB8.active_cores},
                cluster.memory_access, memory_system=cluster, mode="fast",
            )

    def test_auto_defaults_to_legacy_for_plain_callbacks(self):
        eng = SimulationEngine(
            {0: steps(TraceStep(compute_cycles=1))}, flat_memory(1)
        )
        assert eng.mode == "legacy"

    def test_legacy_engine_consumes_trace_blocks(self):
        """Array-backed blocks expand to the exact per-step actions."""
        import numpy as np

        from repro.sim.trace import TraceBlock

        block = TraceBlock(
            compute_gap=2,
            addresses=np.array([0, 32, 64], dtype=np.int64),
        )
        eng = SimulationEngine({0: steps(block)}, flat_memory(3))
        # Per reference: 2 compute + 3 latency = 5 cycles.
        assert eng.run() == 15
        assert eng.core_stats[0].memory_references == 3
        assert eng.core_stats[0].busy_cycles == 3 * 3  # gap + L1 cycle
        assert eng.core_stats[0].stall_cycles == 3 * 2
