"""Tests of the private-L1 pass and of miss streams shared across cells.

A core's L1 hits, misses and dirty victims depend only on its trace and
the L1 geometry, so one pass serves every cell that differs only in the
interconnect, the power state's banks or the DRAM.  The legacy
scheduler, which looks each reference up at its simulated time, is the
oracle every shared stream is checked against.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import ConfigurationError
from repro.mem.dram import DDR3_OFFCHIP, WIDE_IO_3D
from repro.mem.l1 import L1Config, make_l1_pair
from repro.mot.power_state import PC4_MB8
from repro.scenario import Scenario
from repro.sim import session
from repro.sim.cluster import Cluster3D
from repro.sim.l1pass import MissStream, miss_stream, miss_streams
from repro.sim.session import SweepTraceCache, run_scenario, run_sweep
from repro.sim.trace import MemRef, TraceBlock, TraceStep

SCALE = 0.03


def hand_trace():
    """One core's trace whose L1 outcome is worked out by hand below
    (Table I L1: 32 sets, so addresses 1024 bytes apart share a set)."""
    return [
        TraceStep(compute_cycles=3, ref=MemRef(0, is_write=True)),  # miss
        TraceStep(compute_cycles=2, ref=MemRef(8)),  # hit, same line
        TraceStep(compute_cycles=5, barrier=7),  # compute, then barrier
        # Four more lines into set 0: the last evicts the dirty line 0.
        TraceBlock(compute_gap=1,
                   addresses=np.array([1024, 2048, 3072, 4096])),
        TraceStep(ref=MemRef(0x4000_0000, is_instruction=True)),  # L1I miss
        # An empty block's gap applies to no reference: no compute.
        TraceBlock(compute_gap=9, barrier=8),
    ]


class TestMissStream:
    def test_events_and_totals(self):
        stream = miss_streams({0: iter(hand_trace())}, L1Config())[0]
        assert stream.gaps == [3, 8, 1, 1, 1, 1, 0, 0, 0]
        assert stream.addresses == [
            0, None, 1024, 2048, 3072, 4096, 0x4000_0000, None, None,
        ]
        assert stream.victims == [None] * 5 + [0] + [None] * 3
        assert stream.barriers == {1: 7, 7: 8}
        assert (stream.references, stream.misses) == (7, 6)
        # Gaps plus the L1 cycle of every reference; 1-cycle hits add
        # no stall.
        assert stream.busy_cycles == (3 + 1) + (2 + 1) + 5 + 4 * 2 + 1
        assert stream.stall_cycles == 0

    def test_slower_l1_hits_stall(self):
        config = L1Config(hit_latency_cycles=3)
        stream = miss_streams({0: iter(hand_trace())}, config)[0]
        assert stream.gaps[1] == 2 + 3 + 5  # the hit now takes 3 cycles
        assert stream.stall_cycles == 2  # one hit, two cycles past the first

    @pytest.mark.parametrize("trace", [
        hand_trace,
        lambda: [item for block in hand_trace()
                 for item in (block.steps() if isinstance(block, TraceBlock)
                              else [block])],
    ], ids=["mixed", "steps"])
    def test_walk_matches_legacy(self, trace):
        """Steps, blocks, barriers, instruction fetches and an empty
        block give the legacy scheduler's report exactly."""
        reports = {}
        for mode in ("legacy", "auto"):
            cluster = Cluster3D(power_state=PC4_MB8)
            traces = {core: iter(trace()) for core in PC4_MB8.active_cores}
            reports[mode] = asdict(cluster.run(traces, engine_mode=mode))
        assert reports["auto"] == reports["legacy"]
        assert reports["auto"]["l1_misses"] == 4 * 6

    def test_negative_address_in_a_block_raises_at_that_reference(self):
        """A block changed after construction to hold a negative address
        stops where per-reference ``access`` calls would: the fetch and
        the load before it are applied, nothing after it."""
        block = TraceBlock(
            compute_gap=1,
            addresses=np.array([0, 1024, 64, 2048]),
            is_instruction=np.array([False, True, False, False]),
        )
        block.addresses[2] = -64
        icache, dcache = make_l1_pair(0, L1Config())
        with pytest.raises(ConfigurationError):
            miss_stream(iter([block]), icache.cache, dcache.cache, L1Config())
        ref_i, ref_d = make_l1_pair(0, L1Config())
        ref_d.cache.access(0)
        ref_i.cache.access(1024)
        for cache, ref in ((icache, ref_i), (dcache, ref_d)):
            assert cache.stats == ref.stats
            assert cache.cache._sets == ref.cache._sets


class TestClusterRun:
    def test_stream_for_another_l1_rejected(self):
        streams = miss_streams(
            {core: iter(hand_trace()) for core in PC4_MB8.active_cores},
            L1Config(capacity_bytes=8 * 1024),
        )
        with pytest.raises(ConfigurationError):
            Cluster3D(power_state=PC4_MB8).run(streams)

    def test_raw_traces_leave_the_l1s_as_legacy_does(self):
        """The pass runs in the cluster's own L1s: their contents and
        counters end as the per-reference legacy walk leaves them."""
        scenario = Scenario(workload="volrend", power_state="PC4-MB8", scale=SCALE)
        clusters = {}
        for mode in ("legacy", "auto"):
            clusters[mode] = scenario.build_cluster()
            clusters[mode].run(scenario.build_traces(), engine_mode=mode)
        for core in PC4_MB8.active_cores:
            for side in ("l1i", "l1d"):
                legacy = getattr(clusters["legacy"], side)[core].cache
                fast = getattr(clusters["auto"], side)[core].cache
                assert fast.stats == legacy.stats
                assert fast._sets == legacy._sets
                assert fast.dirty_lines() == legacy.dirty_lines()
        assert all(l1.stats.writebacks for l1 in clusters["auto"].l1d.values())

    def test_legacy_mode_rejects_streams(self):
        streams = miss_streams(
            {core: iter(hand_trace()) for core in PC4_MB8.active_cores},
            L1Config(),
        )
        with pytest.raises(ConfigurationError):
            Cluster3D(power_state=PC4_MB8).run(streams, engine_mode="legacy")

    def test_given_stream_equals_own_pass(self):
        """A prebuilt stream leaves the cluster's own L1s unused and
        reports what the cluster's own pass would."""
        scenario = Scenario(workload="volrend", power_state="PC4-MB8",
                            scale=SCALE)
        streams = miss_streams(scenario.build_traces(), L1Config())
        own = scenario.build_cluster().run(scenario.build_traces())
        shared = scenario.build_cluster()
        assert shared.run(streams) == own
        assert all(l1.stats.accesses == 0 for l1 in shared.l1d.values())


class TestSweepSharing:
    """Fig 6's fabrics and Fig 7's power states, at two DRAM latencies,
    share L1 passes; every cell still equals its legacy run alone."""

    def cells(self):
        base = Scenario(workload="volrend", scale=SCALE, seed=5)
        cells = []
        for dram in (DDR3_OFFCHIP, WIDE_IO_3D):
            for interconnect in ("mesh", "bus-mesh", "bus-tree", "mot"):
                cells.append(replace(base, interconnect=interconnect,
                                     dram=dram))
            for state in ("PC16-MB8", "PC4-MB32", "PC4-MB8"):
                cells.append(replace(base, power_state=state, dram=dram))
        big_l1 = replace(DEFAULT_CONFIG, l1=L1Config(capacity_bytes=8 * 1024))
        cells.append(replace(base, config=big_l1))
        return cells

    def test_cells_equal_legacy_and_share_passes(self, monkeypatch):
        passes = []

        def counted(traces, l1_config, max_cycles):
            passes.append((tuple(sorted(traces)), l1_config))
            return miss_streams(traces, l1_config, max_cycles)

        monkeypatch.setattr(session, "miss_streams", counted)
        cells = self.cells()
        results = run_sweep(cells)
        # All 16 cores, cores 6-9, and all 16 cores with the 8 KB L1.
        assert len(passes) == 3
        for cell, result in zip(cells, results):
            alone = run_scenario(replace(cell, engine_mode="legacy"))
            assert asdict(result.report) == asdict(alone.report), cell.label()
            assert result.energy == alone.energy, cell.label()
        default, big = results[3], results[-1]
        assert default.scenario.active_cores() == big.scenario.active_cores()
        assert big.report.l1_misses != default.report.l1_misses

    def test_legacy_cells_get_raw_traces(self):
        cache = SweepTraceCache()
        scenario = Scenario(workload="volrend", scale=SCALE,
                            engine_mode="legacy")
        traces = cache.traces(scenario)
        assert not any(isinstance(t, MissStream) for t in traces.values())
        assert not cache._streams
