"""Differential fuzzing of the fast path against the legacy scheduler.

Random multi-core traces — per-reference steps and array blocks mixed,
zero and nonzero compute gaps, writes, instruction fetches, empty
barrier-only blocks, and barriers every core reaches — on random power
states, all four fabrics, random L1 geometries and DRAM latencies.
Three runs of each must agree to full precision: the legacy scheduler
on the raw traces, the fast scheduler on the same raw traces (its own
L1 pass), and the fast scheduler on miss streams built beforehand (the
sweep path).  Both schedulers must also stop at the same safety valve,
and each core's miss stream must list the misses and dirty victims of
a plain LRU model of its two L1s.
"""

from collections import OrderedDict
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.energy import EnergyModel
from repro.errors import SimulationError
from repro.mem.dram import DRAMTimings
from repro.mem.l1 import L1Config
from repro.mot.power_state import PowerState
from repro.noc.bus_mesh import HybridBusMesh
from repro.noc.bus_tree import HybridBusTree
from repro.noc.mesh3d import True3DMesh
from repro.noc.mot_adapter import MoTInterconnect
from repro.sim.cluster import Cluster3D
from repro.sim.l1pass import miss_streams
from repro.sim.trace import MemRef, TraceBlock, TraceStep

FABRICS = {
    "mot": lambda state: MoTInterconnect(state=state),
    "mesh": lambda state: True3DMesh(),
    "bus-mesh": lambda state: HybridBusMesh(),
    "bus-tree": lambda state: HybridBusTree(),
}

#: 2,048 lines: small L1s thrash, and the L2 both hits and misses.
addresses = st.integers(0, 2047).map(lambda line: line * 32) | st.integers(
    0, 1 << 16
)
gaps = st.sampled_from([0, 0, 1, 3, 17])


@st.composite
def references(draw):
    """``(address, is_write, is_instruction)``; fetches never write."""
    kind = draw(st.sampled_from(["load", "store", "fetch"]))
    return draw(addresses), kind == "store", kind == "fetch"


def step(gap, ref, barrier=None):
    return TraceStep(
        compute_cycles=gap,
        ref=None if ref is None else MemRef(*ref),
        barrier=barrier,
    )


@st.composite
def phase(draw, barrier):
    """One core's items up to (and carrying) ``barrier``, which may be
    ``None`` for the tail after the last barrier."""
    items = []
    for _ in range(draw(st.integers(0, 4))):
        refs = draw(st.lists(references(), min_size=1, max_size=12))
        gap = draw(gaps)
        if draw(st.booleans()):
            items.append(TraceBlock(
                compute_gap=gap,
                addresses=np.array([r[0] for r in refs], dtype=np.int64),
                is_write=np.array([r[1] for r in refs], dtype=bool),
                is_instruction=np.array([r[2] for r in refs], dtype=bool),
            ))
        else:
            items.extend(step(gap, ref) for ref in refs)
    if barrier is not None:
        carrier = draw(st.sampled_from(["step", "ref-step", "empty-block"]))
        gap = draw(gaps)
        if carrier == "empty-block":  # barrier-only block, its gap unused
            items.append(TraceBlock(compute_gap=gap, barrier=barrier))
        elif carrier == "ref-step":
            items.append(step(gap, draw(references()), barrier))
        else:
            items.append(step(gap, None, barrier))
    elif not items:
        items.append(step(draw(gaps) + 1, None))  # a trace needs a step
    return items


@st.composite
def cells(draw):
    n_cores = draw(st.sampled_from([1, 2, 4, 8, 16]))
    n_banks = draw(st.sampled_from([2, 8, 16, 32]))
    state = PowerState.from_counts(f"PC{n_cores}-MB{n_banks}", n_cores, n_banks)
    line = 32
    assoc = draw(st.sampled_from([1, 2, 4]))
    capacity = line * assoc * draw(st.sampled_from([1, 2, 8, 32]))
    l1 = L1Config(capacity_bytes=capacity, line_bytes=line, associativity=assoc)
    dram = DRAMTimings("fuzz", float(draw(st.integers(1, 300))))
    fabric = draw(st.sampled_from(sorted(FABRICS)))
    n_barriers = draw(st.integers(0, 3))
    traces = {}
    for core in sorted(state.active_cores):
        items = []
        for barrier in [*range(n_barriers), None]:
            items.extend(draw(phase(barrier)))
        traces[core] = items
    return state, l1, dram, fabric, traces


def run(cell, source, max_cycles=2_000_000_000):
    """``source``: ``"legacy"``, ``"fast"`` (raw traces) or
    ``"streams"`` (miss streams built beforehand)."""
    state, l1, dram, fabric, traces = cell
    cluster = Cluster3D(
        interconnect=FABRICS[fabric](state), power_state=state, dram=dram,
        l1_config=l1,
    )
    feed = {core: iter(items) for core, items in traces.items()}
    if source == "streams":
        feed = miss_streams(feed, l1, max_cycles)
    report = cluster.run(
        feed, max_cycles=max_cycles,
        engine_mode="legacy" if source == "legacy" else "auto",
    )
    energy = EnergyModel(dram=dram).breakdown(
        report, cluster.interconnect.leakage_w()
    )
    return asdict(report), energy


def lru_misses(items, l1):
    """``(address, dirty victim or None)`` of each L1 miss of one
    core, from a plain LRU model: per cache, one ``OrderedDict`` per
    set, least recently used first, line -> dirty."""
    n_sets = l1.capacity_bytes // (l1.line_bytes * l1.associativity)
    caches = {kind: [OrderedDict() for _ in range(n_sets)]
              for kind in (False, True)}  # keyed by is_instruction
    misses = []
    for item in items:
        if isinstance(item, TraceBlock):
            refs = zip(item.addresses.tolist(), item.is_write.tolist(),
                       item.is_instruction.tolist())
        elif item.ref is not None:
            refs = [(item.ref.address, item.ref.is_write,
                     item.ref.is_instruction)]
        else:
            refs = []
        for address, is_write, is_instruction in refs:
            line = address // l1.line_bytes
            ways = caches[is_instruction][line % n_sets]
            if line in ways:
                ways.move_to_end(line)
                ways[line] = ways[line] or is_write
                continue
            victim = None
            if len(ways) == l1.associativity:
                old, dirty = ways.popitem(last=False)
                victim = old * l1.line_bytes if dirty else None
            ways[line] = is_write
            misses.append((address, victim))
    return misses


class TestFastPathAgainstLegacy:
    @given(cells())
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_reports_energy_and_safety_valve_agree(self, cell):
        legacy = run(cell, "legacy")
        assert run(cell, "fast") == legacy
        assert run(cell, "streams") == legacy
        _state, l1, _dram, _fabric, traces = cell
        streams = miss_streams(
            {core: iter(items) for core, items in traces.items()}, l1
        )
        for core, items in traces.items():
            stream = streams[core]
            assert [
                (address, victim)
                for address, victim in zip(stream.addresses, stream.victims)
                if address is not None
            ] == lru_misses(items, l1)
        # The last core finishes at the execution time, so one cycle
        # less trips the safety valve in every mode.
        valve = legacy[0]["execution_cycles"] - 1
        for source in ("legacy", "fast", "streams"):
            with pytest.raises(SimulationError):
                run(cell, source, max_cycles=valve)
