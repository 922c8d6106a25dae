"""Tests of scenario execution (run_scenario / run_sweep)."""

import pytest

from repro.mem.dram import DRAMTimings
from repro.scenario import Scenario, SweepGrid
from repro.sim.session import (
    ScenarioResult,
    SweepTraceCache,
    run_scenario,
    run_sweep,
)

SCALE = 0.03


class TestRunScenario:
    def test_returns_result(self):
        result = run_scenario(Scenario(workload="volrend", scale=SCALE))
        assert isinstance(result, ScenarioResult)
        assert result.report.workload_name == "volrend"
        assert result.execution_cycles > 0
        assert result.edp > 0

    def test_spec_is_applied(self):
        result = run_scenario(
            Scenario(
                workload="fft",
                interconnect="bus-tree",
                power_state="PC4-MB8",
                dram=DRAMTimings("custom", 150.0),
                scale=SCALE,
            )
        )
        assert result.report.interconnect_name == "3-D Hybrid Bus-Tree"
        assert result.report.power_state_name == "PC4-MB8"
        assert result.report.dram_name == "custom"

    def test_engine_modes_agree(self):
        fast = run_scenario(Scenario(workload="volrend", scale=SCALE))
        legacy = run_scenario(
            Scenario(workload="volrend", scale=SCALE, engine_mode="legacy")
        )
        assert fast.report == legacy.report

    def test_to_dict_round_trips_scenario(self):
        result = run_scenario(Scenario(workload="volrend", scale=SCALE))
        payload = result.to_dict()
        assert Scenario.from_dict(payload["scenario"]) == result.scenario
        assert payload["report"]["execution_cycles"] == result.execution_cycles
        assert payload["energy"]["edp"] == result.edp


class TestScenarioResultRoundTrip:
    """from_dict is the exact inverse of to_dict (store rehydration)."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(
            Scenario(workload="volrend", power_state="PC4-MB8", scale=SCALE)
        )

    def test_json_round_trip_is_bit_identical(self, result):
        import json

        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = ScenarioResult.from_dict(payload)
        assert rebuilt == result
        assert rebuilt.report == result.report
        assert rebuilt.energy == result.energy

    def test_nested_dataclasses_rehydrate_as_objects(self, result):
        """asdict flattens CoreStats / EnergyBreakdown to dicts; the
        inverse must hand back the real objects with working derived
        properties."""
        from repro.analysis.energy import EnergyBreakdown
        from repro.sim.stats import CoreStats, SimReport

        rebuilt = ScenarioResult.from_dict(result.to_dict())
        assert isinstance(rebuilt.report, SimReport)
        assert rebuilt.report.cores and all(
            isinstance(core, CoreStats) for core in rebuilt.report.cores
        )
        assert isinstance(rebuilt.energy, EnergyBreakdown)
        assert rebuilt.edp == result.edp
        assert rebuilt.report.l2_miss_rate == result.report.l2_miss_rate
        assert rebuilt.report.cores[0].total_cycles == (
            result.report.cores[0].total_cycles
        )

    def test_unknown_schema_rejected(self, result):
        from repro.errors import ConfigurationError

        payload = result.to_dict()
        payload["schema"] = "repro-result/999"
        with pytest.raises(ConfigurationError):
            ScenarioResult.from_dict(payload)

    def test_missing_section_rejected(self, result):
        from repro.errors import ConfigurationError

        payload = result.to_dict()
        del payload["energy"]
        with pytest.raises(ConfigurationError):
            ScenarioResult.from_dict(payload)


class TestRunSweep:
    def test_empty(self):
        assert run_sweep([]) == []

    def test_grid_order(self):
        grid = SweepGrid.over(
            Scenario(workload="volrend", scale=SCALE),
            workload=["volrend", "fft"],
            power_state=["Full connection", "PC4-MB8"],
        )
        results = run_sweep(grid)
        assert [r.report.workload_name for r in results] == [
            "volrend", "volrend", "fft", "fft"
        ]
        assert [r.report.power_state_name for r in results] == [
            "Full connection", "PC4-MB8"
        ] * 2

    def test_trace_cache_replay_is_equivalent(self):
        """Cached-block replay (the sweep path) == fresh generation."""
        scenario = Scenario(workload="volrend", scale=SCALE)
        cache = SweepTraceCache()
        cached = run_scenario(scenario, traces=cache.traces(scenario))
        again = run_scenario(scenario, traces=cache.traces(scenario))
        fresh = run_scenario(scenario)
        assert cached.report == fresh.report == again.report

    def test_trace_cache_bounds_memory(self):
        """Completed workloads' streams are evicted (LRU by workload),
        and eviction never changes results (regeneration is
        deterministic)."""
        cache = SweepTraceCache(keep_workloads=1)
        a = Scenario(workload="volrend", scale=SCALE)
        b = Scenario(workload="fft", scale=SCALE)
        first = run_scenario(a, traces=cache.traces(a))
        run_scenario(b, traces=cache.traces(b))  # evicts volrend
        assert len(cache._streams) == 1
        evicted_rerun = run_scenario(a, traces=cache.traces(a))
        assert evicted_rerun.report == first.report

    def test_serial_sweep_runs_cells_grouped_by_stream_key(self, monkeypatch):
        """Cells whose stream keys interleave still get one L1 pass per
        key: they run grouped (groups in first-appearance order, cell
        order within a group), come back in cell order, and are
        persisted in cell order."""
        from repro.sim import session
        from repro.store import MemoryStore

        passes, ran, saved = [], [], []
        miss_streams, run_one = session.miss_streams, session.run_scenario

        def counted_passes(*args, **kwargs):
            passes.append(args)
            return miss_streams(*args, **kwargs)

        def recorded(scenario, *args, **kwargs):
            ran.append(scenario)
            return run_one(scenario, *args, **kwargs)

        monkeypatch.setattr(session, "miss_streams", counted_passes)
        monkeypatch.setattr(session, "run_scenario", recorded)
        cells = [
            Scenario(workload="volrend", scale=SCALE),  # key A: 16 cores
            Scenario(workload="fft", scale=SCALE),  # key B
            Scenario(workload="volrend", power_state="PC4-MB8",
                     scale=SCALE),  # key C: cores 6-9
            Scenario(workload="volrend", interconnect="mesh",
                     scale=SCALE),  # key A
            Scenario(workload="fft", power_state="PC16-MB8",
                     scale=SCALE),  # key B
            Scenario(workload="volrend", power_state="PC4-MB32",
                     scale=SCALE),  # key C
        ]
        grouped = [cells[i] for i in (0, 3, 1, 4, 2, 5)]
        results = run_sweep(cells)
        assert len(passes) == 3
        assert ran == grouped
        assert [r.scenario for r in results] == cells

        store = MemoryStore()
        store_save = store.save
        monkeypatch.setattr(
            store, "save",
            lambda result: (saved.append(result.scenario), store_save(result)),
        )
        passes.clear()
        ran.clear()
        stored = run_sweep(cells, store=store)
        assert len(passes) == 3
        assert ran == grouped
        assert saved == cells
        assert stored == results
        for cell, result in zip(cells, results):
            assert result.report == run_scenario(cell).report

    def test_custom_scenario_parallel_matches_serial(self):
        """Acceptance: a non-Table-I scenario (custom DRAM latency,
        custom seed) through jobs=2 is bit-identical to its serial
        run."""
        scenarios = [
            Scenario(
                workload="volrend",
                dram=DRAMTimings("custom", 150.0),
                seed=7,
                scale=SCALE,
            ),
            Scenario(
                workload="fft",
                power_state="PC8-MB16",
                dram=DRAMTimings("custom", 99.0, energy_per_access_j=5e-9),
                seed=31,
                scale=SCALE,
            ),
        ]
        serial = run_sweep(scenarios, jobs=None)
        parallel = run_sweep(scenarios, jobs=2)
        for s, p in zip(serial, parallel):
            assert s.report == p.report
            assert s.energy == p.energy
        assert serial[0].scenario.dram.access_latency_ns == 150.0
        assert serial[1].report.power_state_name == "PC8-MB16"
