"""Tests of the precomputed interconnect latency/energy tables."""

import pickle

import pytest

from repro.mot.power_state import FULL_CONNECTION, PC4_MB8
from repro.noc.bus_mesh import HybridBusMesh
from repro.noc.bus_tree import HybridBusTree
from repro.noc.mesh3d import True3DMesh
from repro.noc.mot_adapter import MoTInterconnect
from repro.noc.router import RouterTiming

PACKET_CLASSES = [True3DMesh, HybridBusMesh, HybridBusTree]


class TestLatencyEnergyTable:
    @pytest.mark.parametrize("factory", PACKET_CLASSES,
                             ids=lambda f: f.__name__)
    def test_table_matches_analytical_model(self, factory):
        ic = factory()
        table = ic.latency_energy_table(4, 8)
        for (core, bank), (latency, energy) in table.items():
            assert latency == ic.zero_load_latency(core, bank)
            assert energy == ic.access_energy_j(core, bank)
            assert latency > 0 and energy > 0

    @pytest.mark.parametrize("factory", PACKET_CLASSES,
                             ids=lambda f: f.__name__)
    def test_access_uses_cached_routes(self, factory):
        """First access builds the pair's entry; the table then serves
        every later access of the pair."""
        ic = factory()
        assert not ic._route_table
        ic.access(0, 5, 0)
        assert (0, 5) in ic._route_table
        entry = ic._route_table[(0, 5)]
        ic.access(0, 5, 100)
        assert ic._route_table[(0, 5)] is entry  # reused, not rebuilt

    @pytest.mark.parametrize("factory", PACKET_CLASSES,
                             ids=lambda f: f.__name__)
    def test_static_entries_shared_per_parameter_set(self, factory):
        """Entries are built once per (class, parameters) and shared;
        each instance keeps its own table of used pairs, which
        invalidation clears for that instance alone."""
        a, b = factory(), factory()
        a.access(0, 5, 0)
        b.access(0, 5, 0)
        assert a._route_table[(0, 5)] is b._route_table[(0, 5)]
        a.invalidate_tables()
        assert not a._route_table
        assert (0, 5) in b._route_table
        slower = factory(timing=RouterTiming(pipeline_cycles=4))
        assert slower.access(0, 5, 0) > factory().access(0, 5, 0)

    @pytest.mark.parametrize("factory", PACKET_CLASSES,
                             ids=lambda f: f.__name__)
    def test_used_fabric_pickles(self, factory):
        """A fabric holding the shared table still pickles, and the
        copy carries on exactly like the original."""
        ic = factory()
        for t in range(50):
            ic.access(t % 16, (7 * t) % 32, t, t % 3 == 0)
        clone = pickle.loads(pickle.dumps(ic))
        for t in range(50, 100):
            args = (t % 16, (5 * t) % 32, t // 2, t % 4 == 0)
            assert clone.access(*args) == ic.access(*args)
        assert clone.stats == ic.stats

    def test_contention_stays_dynamic(self):
        """Tables carry only static data: back-to-back same-bank
        accesses still queue at the bank port."""
        ic = True3DMesh()
        first = ic.access(0, 0, 0)
        second = ic.access(0, 0, 0)
        assert second > first

    def test_mot_table_uniform(self):
        ic = MoTInterconnect(state=FULL_CONNECTION)
        table = ic.latency_energy_table(4, 8)
        assert len({v for v in table.values()}) == 1  # balanced placement

    def test_mot_invalidated_on_power_state(self):
        """Reconfiguration recomputes the latency surface (Table I:
        12 cycles at Full connection vs 7 at PC4-MB8)."""
        ic = MoTInterconnect(state=FULL_CONNECTION)
        full = ic.latency_energy_table(4, 8)[(0, 0)]
        assert ic._route_table  # populated by the table build
        ic.set_power_state(PC4_MB8)
        assert not ic._route_table  # dropped on reconfiguration
        gated = ic.latency_energy_table(4, 8)[(0, 0)]
        assert gated[0] < full[0]
        assert gated[1] < full[1]
