"""Tests of the assembled 3-D cluster (memory-system flow)."""

import pytest

from repro.errors import ConfigurationError
from repro.mem.dram import WIDE_IO_3D
from repro.mot import reconfigurator
from repro.mot.fabric import MoTFabric
from repro.mot.power_state import (
    FULL_CONNECTION,
    PAPER_POWER_STATES,
    PC16_MB8,
    PC4_MB8,
    PowerState,
)
from repro.noc.mesh3d import True3DMesh
from repro.noc.mot_adapter import MoTInterconnect
from repro.scenario import Scenario
from repro.sim.cluster import Cluster3D
from repro.sim.trace import MemRef, TraceStep
from repro.workloads import build_traces

from tests.conftest import FAST_SCALE


@pytest.fixture
def cluster() -> Cluster3D:
    return Cluster3D(power_state=FULL_CONNECTION)


class TestMemoryFlow:
    def test_l1_hit_is_one_cycle(self, cluster):
        ref = MemRef(0x1000)
        cluster.memory_access(0, ref, 0)       # cold miss fills
        assert cluster.memory_access(0, ref, 500) == 1

    def test_l1_miss_l2_hit_pays_mot_latency(self, cluster):
        ref = MemRef(0x1000)
        cluster.memory_access(0, ref, 0)                       # warm L2
        cluster.memory_access(0, MemRef(0x1000 + 64 * 1024), 100)  # evict? no: same set far apart
        # Force an L1 miss on a line that is still in L2: use another
        # core's L1.
        latency = cluster.memory_access(1, ref, 1000)
        assert latency == 1 + 12  # L1 cycle + Table I hit latency

    def test_cold_miss_pays_dram(self, cluster):
        latency = cluster.memory_access(0, MemRef(0x9000_0000), 0)
        assert latency > 200  # DRAM-bound

    def test_faster_dram_shrinks_miss_penalty(self):
        slow = Cluster3D(power_state=FULL_CONNECTION)
        fast = Cluster3D(power_state=FULL_CONNECTION, dram=WIDE_IO_3D)
        l_slow = slow.memory_access(0, MemRef(0x9000_0000), 0)
        l_fast = fast.memory_access(0, MemRef(0x9000_0000), 0)
        assert l_fast < l_slow

    def test_instruction_refs_use_l1i(self, cluster):
        cluster.memory_access(0, MemRef(0x4000_0000, is_instruction=True), 0)
        assert cluster.l1i[0].stats.accesses == 1
        assert cluster.l1d[0].stats.accesses == 0

    def test_writes_dirty_l1_then_drain(self, cluster):
        # Fill a set with writes, then overflow it: the victim drains to
        # L2 as a posted write (core not stalled).
        set_stride = 32 * cluster.l1d[0].cache.n_sets
        for way in range(5):  # 4-way set: the 5th evicts a dirty victim
            cluster.memory_access(0, MemRef(way * set_stride, is_write=True), way * 400)
        assert cluster.l2.total_stats().writes >= 1


class TestPowerStates:
    def test_only_active_cores_have_l1s(self):
        cl = Cluster3D(power_state=PC4_MB8)
        assert set(cl.l1d) == set(PC4_MB8.active_cores)

    def test_l2_remap_installed(self):
        cl = Cluster3D(power_state=PC16_MB8)
        out = cl.l2.access(0)
        assert out.physical_bank in PC16_MB8.active_banks

    def test_traces_must_match_active_cores(self):
        cl = Cluster3D(power_state=PC4_MB8)
        bad = {0: iter([TraceStep(compute_cycles=1)])}  # core 0 is gated
        with pytest.raises(ConfigurationError):
            cl.run(bad)

    @staticmethod
    def count_applies(monkeypatch, mot):
        applied = []
        apply = mot._apply

        def counted(state):
            applied.append(state)
            apply(state)

        monkeypatch.setattr(mot, "_apply", counted)
        return applied

    def test_mot_built_for_the_state_is_not_reconfigured(self, monkeypatch):
        """An equal state (here an equal copy, not the same object) is
        not applied a second time."""
        mot = MoTInterconnect(state=PC4_MB8)
        applied = self.count_applies(monkeypatch, mot)
        cl = Cluster3D(
            interconnect=mot,
            power_state=PowerState.from_counts("PC4-MB8", 4, 8),
        )
        assert applied == []
        assert cl.interconnect.zero_load_latency(0, 0) == 7  # Table I

    def test_mot_in_another_state_is_reconfigured(self, monkeypatch):
        mot = MoTInterconnect(state=FULL_CONNECTION)
        applied = self.count_applies(monkeypatch, mot)
        Cluster3D(interconnect=mot, power_state=PC4_MB8)
        assert applied == [PC4_MB8]
        assert mot.power_state == PC4_MB8
        assert mot.zero_load_latency(0, 0) == 7

    @pytest.mark.parametrize("state", PAPER_POWER_STATES, ids=lambda s: s.name)
    def test_a_mot_cell_plans_its_power_state_once(self, monkeypatch, state):
        """The fabric is built in the cell's state and the L2 takes the
        fabric's plan; the cell is as if each had planned and applied
        it.  (The pinned Fig 7 digests check the reports.)"""
        planned = []
        plan_modes = reconfigurator.compute_routing_modes

        def counted(*args):
            planned.append(args)
            return plan_modes(*args)

        monkeypatch.setattr(reconfigurator, "compute_routing_modes", counted)
        cl = Scenario(workload="fft", power_state=state.name).build_cluster()
        assert len(planned) == 1
        monkeypatch.undo()

        plan = reconfigurator.plan_reconfiguration(state)
        assert cl.l2.plan == plan
        reference = MoTFabric(16, 32)
        reference.apply_power_state(state)
        fabric = cl.interconnect.fabric
        assert fabric.plan == plan
        assert fabric._gated_arb == reference._gated_arb
        assert [
            {pos: switch.mode for pos, switch in tree.switches.items()}
            for tree in fabric.routing_trees
        ] == [
            {pos: switch.mode for pos, switch in tree.switches.items()}
            for tree in reference.routing_trees
        ]


class TestEndToEnd:
    def test_small_run_produces_consistent_report(self, cluster):
        traces = build_traces("fft", range(16), scale=FAST_SCALE)
        report = cluster.run(traces, "fft")
        assert report.execution_cycles > 0
        assert len(report.cores) == 16
        assert report.l1_accesses > 0
        assert 0 <= report.l1_miss_rate <= 1
        assert 0 <= report.l2_miss_rate <= 1
        assert report.l2_accesses >= report.l2_misses
        assert report.dram_accesses > 0
        assert report.mean_l2_latency_cycles >= 12

    def test_determinism(self):
        results = []
        for _ in range(2):
            cl = Cluster3D(power_state=FULL_CONNECTION)
            traces = build_traces("volrend", range(16), scale=FAST_SCALE, seed=7)
            results.append(cl.run(traces, "volrend").execution_cycles)
        assert results[0] == results[1]

    def test_seed_changes_timing(self):
        runs = []
        for seed in (1, 2):
            cl = Cluster3D(power_state=FULL_CONNECTION)
            traces = build_traces("volrend", range(16), scale=FAST_SCALE, seed=seed)
            runs.append(cl.run(traces, "volrend").execution_cycles)
        assert runs[0] != runs[1]

    def test_packet_interconnect_slower_than_mot(self):
        t = {}
        for name, ic in (("mot", None), ("mesh", True3DMesh())):
            cl = Cluster3D(interconnect=ic, power_state=FULL_CONNECTION)
            traces = build_traces("fft", range(16), scale=FAST_SCALE)
            t[name] = cl.run(traces, "fft").execution_cycles
        assert t["mot"] < t["mesh"]

    def test_report_summary_keys(self, cluster):
        traces = build_traces("water-nsquared", range(16), scale=FAST_SCALE)
        report = cluster.run(traces, "water-nsquared")
        summary = report.summary()
        assert {"execution_cycles", "l1_miss_rate", "l2_miss_rate"} <= set(summary)
