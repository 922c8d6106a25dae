"""Differential tests of store-memoized execution.

The acceptance contract of the result store: a sweep run cold (empty
store), warm (fully populated store), and store-less must produce
bit-identical ``ScenarioResult``s — and a warm run must do zero
simulation.
"""

import pytest

from repro.analysis.experiments import experiment_fig7
from repro.scenario import Scenario, SweepGrid
from repro.sim.session import run_scenario, run_sweep
from repro.store import MemoryStore, SqliteStore, open_store

SCALE = 0.03


def _grid() -> SweepGrid:
    return SweepGrid.over(
        Scenario(workload="volrend", scale=SCALE),
        workload=["volrend", "fft"],
        power_state=["Full connection", "PC4-MB8"],
    )


@pytest.fixture(scope="module")
def plain_results():
    """The store-less reference run (4 cells)."""
    return run_sweep(_grid())


def _make_store(kind, tmp_path):
    if kind == "memory":
        return MemoryStore()
    if kind == "sharded":
        return open_store(tmp_path / "store", shards=2)
    return SqliteStore(tmp_path / "store.sqlite")


class TestSweepMemoization:
    @pytest.mark.parametrize("kind", ["memory", "sqlite", "sharded"])
    def test_cold_warm_storeless_bit_identical(
        self, kind, tmp_path, plain_results
    ):
        """Acceptance: cold, warm and store-less sweeps are equal to
        full precision, and the warm pass is all hits."""
        with _make_store(kind, tmp_path) as store:
            cold = run_sweep(_grid(), store=store)
            assert (store.hits, store.misses) == (0, 4)
            warm = run_sweep(_grid(), store=store)
            assert (store.hits, store.misses) == (4, 4)
        assert cold == plain_results
        assert warm == plain_results

    def test_partially_warm_store_fills_the_gaps(
        self, tmp_path, plain_results
    ):
        """Only the missing cells simulate; results stay in cell order
        and bit-identical."""
        with SqliteStore(tmp_path / "store.sqlite") as store:
            cells = list(_grid().scenarios())
            run_scenario(cells[2], store=store)  # pre-populate one cell
            results = run_sweep(_grid(), store=store)
            assert results == plain_results
            # 1 miss from the pre-population, then 1 hit + 3 misses.
            assert (store.hits, store.misses) == (1, 4)
            assert len(store) == 4

    def test_parallel_memoized_matches_serial(self, tmp_path, plain_results):
        """Workers compute the misses, the parent persists them; the
        second parallel run is served entirely from the store."""
        with SqliteStore(tmp_path / "store.sqlite") as store:
            cold = run_sweep(_grid(), jobs=2, store=store)
            warm = run_sweep(_grid(), jobs=2, store=store)
            assert (store.hits, store.misses) == (4, 4)
        assert cold == plain_results
        assert warm == plain_results

    def test_duplicate_cells_simulate_and_persist_once(self, monkeypatch):
        """Regression: a sweep naming the same cell twice used to miss
        twice, simulate twice and save twice.  Misses are deduplicated
        by fingerprint, so it simulates and persists once and every
        duplicate index shares the bit-identical result."""
        import repro.sim.session as session

        scenario = Scenario(workload="volrend", scale=SCALE)
        reference = run_scenario(scenario)

        simulated = []
        original_run = session.run_scenario

        def counting_run(s, *args, **kwargs):
            simulated.append(s)
            return original_run(s, *args, **kwargs)

        monkeypatch.setattr(session, "run_scenario", counting_run)
        store = MemoryStore()
        saves = []
        original_save = store.save
        monkeypatch.setattr(
            store, "save",
            lambda result: (saves.append(result), original_save(result))[1],
        )

        results = run_sweep([scenario, scenario, scenario], store=store)
        assert len(simulated) == 1
        assert len(saves) == 1
        assert len(store) == 1
        assert (store.hits, store.misses) == (0, 3)
        assert results == [reference, reference, reference]

    def test_hit_serves_without_simulating(self, monkeypatch):
        """A stored cell never touches the engine again."""
        scenario = Scenario(workload="volrend", scale=SCALE)
        store = MemoryStore()
        expected = run_scenario(scenario, store=store)

        def boom(self, *args, **kwargs):
            raise AssertionError("simulated despite a store hit")

        monkeypatch.setattr(Scenario, "build_cluster", boom)
        assert run_scenario(scenario, store=store) == expected
        assert run_sweep([scenario], store=store) == [expected]

    def test_fig7_rerenders_from_warm_store(self, monkeypatch):
        """The figure presets re-render from a warm store with zero
        simulation (the `repro fig7 --store` warm path)."""
        store = MemoryStore()
        first = experiment_fig7(
            scale=SCALE, benchmarks=["volrend"], store=store
        )

        def boom(self, *args, **kwargs):
            raise AssertionError("simulated despite a warm store")

        monkeypatch.setattr(Scenario, "build_cluster", boom)
        again = experiment_fig7(
            scale=SCALE, benchmarks=["volrend"], store=store
        )
        assert again == first
