"""Reference checks of the shared miss path, below ``finish_miss``.

The fast-vs-legacy differential suite cannot see a fault here: both
schedulers charge every L1 miss through the same
:meth:`~repro.sim.cluster.Cluster3D.finish_miss`.  So the pieces under
it are checked against slower, independent references instead:

* each packet fabric's ``access`` (precomputed routes, flat
  reservations) against its own contended reference model,
  ``_access_cycles(..., contended=True)``, which walks the topology
  afresh on every request;
* the whole of ``finish_miss`` against a reference composed from the
  general public calls — ``BankedL2.access``/``writeback``,
  ``MissBus.request`` and ``DRAMModel.access`` — over whole cells.
"""

import random
from dataclasses import asdict

import pytest

from repro.analysis.energy import EnergyModel
from repro.config import ClusterConfig
from repro.mem.l2 import L2Config
from repro.noc.bus_mesh import HybridBusMesh
from repro.noc.bus_tree import HybridBusTree
from repro.noc.mesh3d import True3DMesh
from repro.scenario import Scenario
from repro.sim.cluster import Cluster3D

PACKET_CLASSES = [True3DMesh, HybridBusMesh, HybridBusTree]


def request_stream(seed, n, n_cores=16, n_banks=32):
    """``n`` random requests at non-decreasing times, bunched enough
    that links, ports and buses queue."""
    rng = random.Random(seed)
    now = 0
    for _ in range(n):
        now += rng.choice((0, 0, 0, 1, 2, 3, 7, 25))
        yield (rng.randrange(n_cores), rng.randrange(n_banks), now,
               rng.random() < 0.3)


def bus_stats(ic):
    """Every vertical bus's counters (none for the True 3-D Mesh)."""
    buses = getattr(ic, "pillars", None) or getattr(ic, "buses", {})
    return {key: bus.stats for key, bus in buses.items()}


class TestFabricAgainstReference:
    @pytest.mark.parametrize("factory", PACKET_CLASSES,
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_access_matches_contended_reference(self, factory, seed):
        fast, ref = factory(), factory()
        accesses = latency_sum = queued_sum = 0
        energy = 0.0
        for core, bank, now, is_write in request_stream(seed, 3000):
            completion, queued = ref._access_cycles(
                core, bank, now, is_write, contended=True
            )[:2]
            latency = completion - now
            assert fast.access(core, bank, now, is_write) == latency
            accesses += 1
            latency_sum += latency
            queued_sum += queued
            energy += ref._access_energy(core, bank, is_write)
        stats = fast.stats
        assert (stats.accesses, stats.total_latency_cycles,
                stats.queueing_cycles) == (accesses, latency_sum, queued_sum)
        assert stats.energy_j == energy  # same terms, same order
        assert queued_sum > 0  # the stream did contend
        assert bus_stats(fast) == bus_stats(ref)

    @pytest.mark.parametrize("factory", PACKET_CLASSES,
                             ids=lambda f: f.__name__)
    def test_reset_contention_matches_a_fresh_fabric(self, factory):
        used, fresh = factory(), factory()
        for core, bank, now, is_write in request_stream(3, 500):
            used.access(core, bank, now, is_write)
        used.reset_contention()
        for core, bank, now, is_write in request_stream(4, 500):
            assert used.access(core, bank, now, is_write) == fresh.access(
                core, bank, now, is_write
            )
        assert bus_stats(used) == bus_stats(fresh)


class ReferenceCluster(Cluster3D):
    """``finish_miss`` composed from the general public calls."""

    def finish_miss(self, core, address, victim, now):
        if victim is not None:
            drained = self.l2.writeback(victim)
            self.interconnect.access(core, drained.physical_bank, now, True)
            if not drained.hit:
                self.dram.access(victim, now, True)
        l1_latency = self.l1_hit_latency_cycles
        t = now + l1_latency
        demand = self.l2.access(address, is_write=False)
        latency = self.interconnect.access(core, demand.physical_bank, t, False)
        if not demand.hit:
            grant = self.miss_bus.request(core, t + latency)
            latency = (grant - t) + self.dram.access(address, grant, False) \
                + self.miss_bus.transfer_cycles
        if demand.writeback is not None:
            self.dram.access(demand.writeback, t, True)
        return l1_latency + latency


def run_cell(cluster_cls, scenario):
    power_state = scenario.resolved_power_state()
    cluster = cluster_cls.from_config(
        scenario.config,
        interconnect=scenario.build_interconnect(power_state),
        power_state=power_state,
        dram=scenario.resolved_dram(),
    )
    report = cluster.run(scenario.build_traces(),
                         workload_name=scenario.workload,
                         max_cycles=scenario.max_cycles,
                         engine_mode=scenario.engine_mode)
    energy = EnergyModel(
        dram=scenario.resolved_dram(),
        frequency_hz=scenario.config.frequency_hz,
    ).breakdown(report, cluster.interconnect.leakage_w())
    return cluster, report, energy


#: 1 KB banks: a small cell fills the L2, so the L2's dirty victims
#: and the victims forwarded past it reach DRAM.
SMALL_L2 = ClusterConfig(l2=L2Config(bank_capacity_bytes=1024))

CELLS = [
    ("mot", "Full connection"),
    ("mesh", "Full connection"),
    ("bus-mesh", "Full connection"),
    ("bus-tree", "Full connection"),
    ("mot", "PC16-MB8"),
    ("mot", "PC4-MB32"),
    ("mot", "PC4-MB8"),
]


class TestFinishMissAgainstReference:
    @pytest.mark.parametrize("interconnect,state", CELLS,
                             ids=["-".join(c) for c in CELLS])
    @pytest.mark.parametrize("config", [ClusterConfig(), SMALL_L2],
                             ids=["table1-l2", "small-l2"])
    def test_cell_matches_reference(self, interconnect, state, config):
        scenario = Scenario(workload="radix", interconnect=interconnect,
                            power_state=state, config=config, scale=0.02)
        fast, report, energy = run_cell(Cluster3D, scenario)
        ref, ref_report, ref_energy = run_cell(ReferenceCluster, scenario)
        assert asdict(report) == asdict(ref_report)
        assert energy == ref_energy
        assert fast.miss_bus.stats == ref.miss_bus.stats
        assert fast.dram.stats == ref.dram.stats
        assert fast.l2.bank_accesses == ref.l2.bank_accesses
        assert fast.interconnect.stats == ref.interconnect.stats
        if config is SMALL_L2:
            assert report.l2_writebacks > 0
            assert fast.dram.stats.writes > 0
