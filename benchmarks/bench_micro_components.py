"""Microbenchmarks of the core components (proper multi-round timing).

These are conventional pytest-benchmark measurements: switch routing,
fabric reconfiguration, cache access (a general access, the private-L1
pass of one core's trace, an L2 bank's demand reads), arbitration and
the simulation engine's event loop.  They track the *library's* performance so
regressions in the substrate show up independently of the figure
sweeps.
"""

import random

import pytest

from repro.mem.cache import SetAssociativeCache
from repro.mem.l1 import L1Config, make_l1_pair
from repro.mot.fabric import FabricSimulator, MoTFabric
from repro.mot.power_state import PC16_MB8, FULL_CONNECTION
from repro.mot.reconfigurator import plan_reconfiguration
from repro.mot.signals import Request
from repro.sim.engine import SimulationEngine
from repro.sim.l1pass import miss_stream
from repro.sim.trace import MemRef, TraceStep
from repro.workloads.base import SyntheticWorkload


def test_switch_select_port(benchmark):
    fabric = MoTFabric(16, 32)
    switch = fabric.routing_trees[0].switch_at(0, 0)
    req = Request(core_id=0, bank_index=21)
    benchmark(switch.select_port, req)


def test_fabric_resolve_bank(benchmark):
    fabric = MoTFabric(16, 32)
    fabric.apply_power_state(PC16_MB8)
    benchmark(fabric.resolve_bank, 0, 7)


def test_plan_reconfiguration(benchmark):
    benchmark(plan_reconfiguration, PC16_MB8)


def test_apply_power_state(benchmark):
    fabric = MoTFabric(16, 32)

    def flip():
        fabric.apply_power_state(PC16_MB8)
        fabric.apply_power_state(FULL_CONNECTION)

    benchmark(flip)


def test_cache_access_throughput(benchmark):
    cache = SetAssociativeCache(64 * 1024, 32, 8, name="bank")
    addrs = [(i * 1667) % (1 << 20) for i in range(512)]

    def run():
        for a in addrs:
            cache.access(a)

    benchmark(run)


def test_l1_pass_of_one_core_trace(benchmark):
    """One generated core trace through a fresh L1 pair per round."""
    trace = list(SyntheticWorkload("fft", scale=0.05).trace_blocks([0])[0])
    config = L1Config()

    def run():
        icache, dcache = make_l1_pair(0, config)
        return miss_stream(iter(trace), icache.cache, dcache.cache, config)

    benchmark(run)


def test_l2_bank_read_allocate(benchmark):
    """Demand reads on one Table I L2 bank (64 KB, 8-way, stride 32):
    a fixed random run of 4096 reads over 1.5x its capacity of its own
    lines, about 70% hits once warm, the rest evicting misses."""
    bank = SetAssociativeCache(64 * 1024, 32, 8, name="bank", index_stride_lines=32)
    rng = random.Random(7)
    addrs = [rng.randrange(3 * 1024) * 32 * 32 for _ in range(4096)]

    def run():
        for a in addrs:
            bank.read_allocate(a)

    benchmark(run)


def test_fabric_simulator_step(benchmark):
    fabric = MoTFabric(16, 32)
    sim = FabricSimulator(fabric)
    requests = {c: (c * 7) % 32 for c in range(16)}
    benchmark(sim.step, requests)


def test_engine_event_throughput(benchmark):
    def traces():
        return {
            core: iter(
                TraceStep(compute_cycles=3, ref=MemRef((i * 64) % 4096))
                for i in range(500)
            )
            for core in range(4)
        }

    def run():
        SimulationEngine(traces(), lambda c, r, t: 5).run()

    benchmark(run)
