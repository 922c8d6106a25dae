"""Tests of the result-store backends (contract + backend edge cases)."""

import json
import re
import threading
from pathlib import Path

import pytest

from repro.analysis.energy import EnergyBreakdown
from repro.errors import ConfigurationError
from repro.scenario import Scenario, scenario_fingerprint
from repro.sim.stats import CoreStats, SimReport
from repro.store import MemoryStore, ResultStore, SqliteStore, open_store


@pytest.fixture(params=["memory", "sqlite", "sharded"])
def store(request, tmp_path):
    if request.param == "memory":
        backend = MemoryStore()
    elif request.param == "sqlite":
        backend = SqliteStore(tmp_path / "store.sqlite")
    else:
        backend = open_store(tmp_path / "store", shards=2)
    yield backend
    backend.close()


class TestResultStoreContract:
    """Behaviour every backend must share."""

    def test_save_load_rehydrates_full_result(self, store, volrend_result):
        fingerprint = store.save(volrend_result)
        assert fingerprint == scenario_fingerprint(volrend_result.scenario)
        loaded = store.load(volrend_result.scenario)
        assert loaded == volrend_result
        # Real objects, not dicts: derived properties must keep working.
        assert isinstance(loaded.scenario, Scenario)
        assert isinstance(loaded.report, SimReport)
        assert all(isinstance(c, CoreStats) for c in loaded.report.cores)
        assert isinstance(loaded.energy, EnergyBreakdown)
        assert loaded.edp == volrend_result.edp
        assert loaded.report.l1_miss_rate == volrend_result.report.l1_miss_rate

    def test_unknown_scenario_misses(self, store):
        assert store.load(Scenario(workload="fft", seed=12345)) is None
        assert (store.hits, store.misses) == (0, 1)

    def test_hit_and_miss_accounting(self, store, volrend_result):
        store.save(volrend_result)
        store.load(volrend_result.scenario)
        store.load(Scenario(workload="fft", seed=999))
        assert (store.hits, store.misses) == (1, 1)

    def test_contains_len_delete(self, store, volrend_result):
        fingerprint = store.save(volrend_result)
        assert fingerprint in store and len(store) == 1
        assert store.delete(fingerprint) is True
        assert fingerprint not in store and len(store) == 0
        assert store.delete(fingerprint) is False

    def test_overwrite_keeps_one_record(self, store, volrend_result):
        store.save(volrend_result)
        store.save(volrend_result)
        assert len(store) == 1

    def test_query_filters(self, store, volrend_result, fft_result):
        store.save(volrend_result)
        store.save(fft_result)
        assert len(store.query()) == 2
        records = store.query(workload="fft", power_state="PC4-MB8")
        assert [r["workload"] for r in records] == ["fft"]
        assert records[0]["seed"] == 7
        assert store.query(workload="radix") == []

    def test_query_rejects_unknown_column(self, store):
        with pytest.raises(ConfigurationError):
            store.query(nonsense=1)

    def test_schema_tag_mismatch_forces_miss(self, store, volrend_result):
        """A stored payload from an older engine (different schema tag)
        must never be served — it reads as a miss and gc drops it."""
        payload = volrend_result.to_dict()
        payload["schema"] = "repro-result/0"
        fingerprint = scenario_fingerprint(volrend_result.scenario)
        store.put(fingerprint, payload, scenario=volrend_result.scenario)
        assert store.get(fingerprint) is None
        assert store.load(volrend_result.scenario) is None
        assert store.misses == 2 and store.hits == 0
        # Consistency with get(): not "in" the store, not listed.
        assert fingerprint not in store
        assert store.query() == []
        assert store.gc() == 1
        assert len(store) == 0

    def test_bytes_used_counts_live_payloads(self, store, volrend_result,
                                             fft_result):
        """``bytes_used`` is an int on every backend: the canonical
        payload bytes of the live records, back to 0 once they go."""
        assert store.bytes_used() == 0
        first = store.save(volrend_result)
        one = store.bytes_used()
        assert isinstance(one, int) and one > 0
        second = store.save(fft_result)
        assert store.bytes_used() > one
        store.delete(first)
        store.delete(second)
        assert store.bytes_used() == 0

    def test_payloads_are_isolated(self, store, volrend_result):
        """Mutating a returned payload must not corrupt the store."""
        fingerprint = store.save(volrend_result)
        first = store.get(fingerprint)
        first["report"]["execution_cycles"] = -1
        assert store.get(fingerprint)["report"]["execution_cycles"] == (
            volrend_result.report.execution_cycles
        )


class TestOpenStore:
    def test_dispatch_by_suffix(self, tmp_path):
        assert isinstance(open_store(":memory:"), MemoryStore)
        for name in ("a.sqlite", "a.db", "a"):
            sqlite = open_store(tmp_path / name)
            assert isinstance(sqlite, SqliteStore)
            sqlite.close()

    def test_store_instance_passes_through(self):
        backend = MemoryStore()
        assert open_store(backend) is backend

    def test_creates_missing_parent_directories(self, tmp_path):
        store = open_store(tmp_path / "deep/dirs/a.sqlite")
        store.close()
        assert (tmp_path / "deep/dirs/a.sqlite").exists()
        sharded = open_store(tmp_path / "deep/dirs/b", shards=2)
        sharded.close()
        assert (tmp_path / "deep/dirs/b/shard-001.sqlite").exists()

    @pytest.mark.parametrize("name", ["old.jsonl", "old.ndjson"])
    def test_json_lines_path_is_refused_and_creates_nothing(
        self, tmp_path, name
    ):
        """JSON-lines stores are gone: the path is refused with a
        pointer to SQLite, and no file (no SQLite database under the
        old name either) or parent directory is created."""
        path = tmp_path / "deep" / name
        with pytest.raises(ConfigurationError) as excinfo:
            open_store(path)
        message = str(excinfo.value)
        assert str(path) in message and ".sqlite" in message
        assert not (tmp_path / "deep").exists()
        with pytest.raises(ConfigurationError):
            open_store(tmp_path / name, shards=2)
        assert list(tmp_path.iterdir()) == []

    def test_only_the_final_suffix_is_refused(self, tmp_path):
        """A SQLite path whose name merely contains ``.jsonl`` opens."""
        store = open_store(tmp_path / "results.jsonl.sqlite")
        assert isinstance(store, SqliteStore)
        store.close()
        assert (tmp_path / "results.jsonl.sqlite").exists()

    def test_bytes_used_is_required_of_every_backend(self):
        """``bytes_used`` has no default: a backend that does not
        report its live bytes cannot be instantiated."""

        class NoBytes(MemoryStore):
            bytes_used = ResultStore.bytes_used

        with pytest.raises(TypeError, match="bytes_used"):
            NoBytes()


class TestSqliteStore:
    def test_persists_across_reopen(self, tmp_path, volrend_result):
        path = tmp_path / "store.sqlite"
        with SqliteStore(path) as store:
            store.save(volrend_result)
        with SqliteStore(path) as reopened:
            assert reopened.load(volrend_result.scenario) == volrend_result

    def test_concurrent_readers(self, tmp_path, volrend_result, fft_result):
        """Reader connections (as a service frontend would hold) keep
        serving while the single writer appends."""
        path = tmp_path / "store.sqlite"
        writer = SqliteStore(path)
        writer.save(volrend_result)

        errors = []

        def read_loop():
            reader = SqliteStore(path)
            try:
                for _ in range(50):
                    loaded = reader.load(volrend_result.scenario)
                    if loaded != volrend_result:
                        errors.append("reader saw a wrong/missing record")
                        return
            finally:
                reader.close()

        threads = [threading.Thread(target=read_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        writer.save(fft_result)  # concurrent append
        for thread in threads:
            thread.join()
        assert errors == []
        late_reader = SqliteStore(path)
        assert late_reader.load(fft_result.scenario) == fft_result
        late_reader.close()
        writer.close()

    def test_usable_from_second_thread(self, tmp_path, volrend_result):
        """Regression: the connection used to be bound to the opening
        thread (``check_same_thread``), so any access from another
        thread raised ``sqlite3.ProgrammingError``."""
        with SqliteStore(tmp_path / "store.sqlite") as store:
            store.save(volrend_result)
            outcome = []

            def read():
                try:
                    outcome.append(store.load(volrend_result.scenario))
                except Exception as exc:  # pragma: no cover - fail path
                    outcome.append(exc)

            thread = threading.Thread(target=read)
            thread.start()
            thread.join()
            assert outcome == [volrend_result]

    def test_record_meta_reads_the_columns(self, tmp_path, volrend_result):
        """schema_tag/_record_meta come from the indexed columns, with
        the base-class contract: live = (tag, columns), stale =
        (tag, {}), absent = None."""
        from repro.store.base import record_columns

        with SqliteStore(tmp_path / "store.sqlite") as store:
            fingerprint = store.save(volrend_result)
            schema, columns = store._record_meta(fingerprint)
            assert schema == "repro-result/1"
            assert columns == record_columns(volrend_result.scenario)
            assert store.schema_tag(fingerprint) == schema

            stale = volrend_result.to_dict()
            stale["schema"] = "repro-result/0"
            store.put(fingerprint, stale)
            assert store._record_meta(fingerprint) == ("repro-result/0", {})
            assert store._record_meta("f" * 64) is None

    def test_resolve_prefix_uses_key_range(
        self, tmp_path, volrend_result, fft_result
    ):
        """The indexed override matches the base-class semantics:
        literal prefixes only (LIKE wildcards must not act as
        wildcards), same no-match/ambiguity errors."""
        with SqliteStore(tmp_path / "store.sqlite") as store:
            fp_a = store.save(volrend_result)
            fp_b = store.save(fft_result)
            assert store.resolve_prefix(fp_a[:16]) == fp_a
            assert store.resolve_prefix(fp_b) == fp_b
            with pytest.raises(ConfigurationError, match="no stored result"):
                store.resolve_prefix("zzzz")
            with pytest.raises(ConfigurationError, match="no stored result"):
                store.resolve_prefix("%")  # literal, not a wildcard
            with pytest.raises(ConfigurationError, match="ambiguous"):
                store.resolve_prefix("")  # matches both
            plan = store._read_conn.execute(
                "EXPLAIN QUERY PLAN SELECT fingerprint FROM results "
                "WHERE fingerprint >= ? AND fingerprint < ? "
                "ORDER BY fingerprint LIMIT 2",
                (fp_a[:8], fp_a[:8] + "g"),
            ).fetchall()
            detail = " ".join(row[-1].upper() for row in plan)
            assert "SEARCH" in detail and "INDEX" in detail, detail

    def test_reader_connections_of_dead_threads_are_reaped(
        self, tmp_path, volrend_result
    ):
        """Regression: a store serving short-lived handler threads
        must not keep one connection (and fd) per retired thread."""
        with SqliteStore(tmp_path / "store.sqlite") as store:
            store.save(volrend_result)
            for _ in range(20):
                thread = threading.Thread(
                    target=lambda: store.load(volrend_result.scenario)
                )
                thread.start()
                thread.join()
            # trigger a reap from a fresh thread and count what's left
            final = threading.Thread(target=lambda: len(store))
            final.start()
            final.join()
            assert len(store._readers) <= 3  # main + final thread, not 21

    def test_shared_instance_concurrent_readers_and_writer(
        self, tmp_path, volrend_result, fft_result
    ):
        """One instance shared by reader threads while another thread
        writes — the service frontend's access pattern (handler
        threads read, the batch executor persists)."""
        with SqliteStore(tmp_path / "store.sqlite") as store:
            store.save(volrend_result)
            errors = []

            def read_loop():
                try:
                    for _ in range(50):
                        if store.load(volrend_result.scenario) != volrend_result:
                            errors.append("reader saw a wrong/missing record")
                            return
                        store.query(workload="volrend")
                        len(store)
                except Exception as exc:
                    errors.append(exc)

            readers = [threading.Thread(target=read_loop) for _ in range(4)]
            for thread in readers:
                thread.start()
            for _ in range(25):
                store.save(fft_result)  # concurrent writes, same instance
            for thread in readers:
                thread.join()
            assert errors == []
            assert store.load(fft_result.scenario) == fft_result
            assert len(store) == 2


class TestStoreFaultInjection:
    """The fault harness driving the stores' own failure paths."""

    def test_sqlite_retries_transient_locked_writes(
        self, tmp_path, volrend_result
    ):
        """Regression: transient `database is locked` on the writer
        path is retried (with backoff) instead of failing the write."""
        from repro.faults import STORE_WRITE, FaultPlan, FaultRule

        plan = FaultPlan(
            [FaultRule(STORE_WRITE, "sqlite-locked", times=3)]
        )
        with SqliteStore(tmp_path / "locked.sqlite", faults=plan) as store:
            store.save(volrend_result)  # survives 3 injected lock errors
            assert store.load(volrend_result.scenario) == volrend_result
            assert store.write_retries == 3 and plan.exhausted()

    def test_sqlite_gives_up_after_retry_budget(
        self, tmp_path, volrend_result
    ):
        import sqlite3

        from repro.faults import STORE_WRITE, FaultPlan, FaultRule
        from repro.store.sqlite import WRITE_RETRIES

        plan = FaultPlan([FaultRule(STORE_WRITE, "sqlite-locked")])
        with SqliteStore(tmp_path / "stuck.sqlite", faults=plan) as store:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                store.save(volrend_result)
            assert store.write_retries == WRITE_RETRIES  # bounded, not forever

    def test_sqlite_connections_carry_busy_timeout(self, tmp_path):
        from repro.store.sqlite import BUSY_TIMEOUT_MS

        with SqliteStore(tmp_path / "busy.sqlite") as store:
            assert store._write_conn.execute(
                "PRAGMA busy_timeout"
            ).fetchone()[0] == BUSY_TIMEOUT_MS
            assert store._read_conn.execute(
                "PRAGMA busy_timeout"
            ).fetchone()[0] == BUSY_TIMEOUT_MS


OPERATIONS_DOC = Path(__file__).resolve().parents[2] / "docs" / "operations.md"


@pytest.fixture(scope="module")
def load_recipe():
    """The docs' recipe that loads an old JSON-lines store into SQLite."""
    text = OPERATIONS_DOC.read_text()
    section = text.split("## Loading an old JSONL store into SQLite", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _jsonl_line(result=None, fingerprint=None, deleted=False) -> bytes:
    """One line of the old JSON-lines store format."""
    if deleted:
        record = {"fingerprint": fingerprint, "deleted": True}
    else:
        payload = result if isinstance(result, dict) else result.to_dict()
        scenario = payload["scenario"]
        record = {
            "fingerprint": fingerprint or scenario_fingerprint(
                Scenario.from_dict(scenario)
            ),
            "workload": scenario["workload"],
            "result": payload,
        }
    return (json.dumps(record) + "\n").encode()


class TestJsonlLoadRecipe:
    """``docs/operations.md``'s loader keeps exactly the records an
    old JSON-lines store served: the last line per fingerprint, minus
    tombstones and a torn tail."""

    def _load(self, load_recipe, tmp_path, monkeypatch, data: bytes):
        (tmp_path / "results.jsonl").write_bytes(data)
        monkeypatch.chdir(tmp_path)
        exec(compile(load_recipe, str(OPERATIONS_DOC), "exec"), {})
        return SqliteStore(tmp_path / "results.sqlite")

    def test_loads_every_record(self, load_recipe, tmp_path, monkeypatch,
                                volrend_result, fft_result):
        data = _jsonl_line(volrend_result) + _jsonl_line(fft_result)
        with self._load(load_recipe, tmp_path, monkeypatch, data) as store:
            assert len(store) == 2
            assert store.load(volrend_result.scenario) == volrend_result
            assert store.load(fft_result.scenario) == fft_result

    def test_last_line_per_fingerprint_wins(
        self, load_recipe, tmp_path, monkeypatch, volrend_result
    ):
        older = volrend_result.to_dict()
        older["report"]["execution_cycles"] = -1
        data = _jsonl_line(older) + _jsonl_line(volrend_result)
        with self._load(load_recipe, tmp_path, monkeypatch, data) as store:
            assert len(store) == 1
            assert store.load(volrend_result.scenario) == volrend_result

    def test_tombstones_drop_records(self, load_recipe, tmp_path,
                                     monkeypatch, volrend_result, fft_result):
        gone = scenario_fingerprint(fft_result.scenario)
        data = (_jsonl_line(volrend_result) + _jsonl_line(fft_result)
                + _jsonl_line(fingerprint=gone, deleted=True))
        with self._load(load_recipe, tmp_path, monkeypatch, data) as store:
            assert store.fingerprints() == [
                scenario_fingerprint(volrend_result.scenario)
            ]
            assert store.load(fft_result.scenario) is None

    def test_torn_last_line_is_dropped(self, load_recipe, tmp_path,
                                       monkeypatch, volrend_result,
                                       fft_result):
        """A crash mid-append left the fft line without its tail."""
        data = _jsonl_line(volrend_result) + _jsonl_line(fft_result)[:-7]
        with self._load(load_recipe, tmp_path, monkeypatch, data) as store:
            assert len(store) == 1
            assert store.load(volrend_result.scenario) == volrend_result
            assert store.load(fft_result.scenario) is None

    def test_blank_lines_are_skipped(self, load_recipe, tmp_path,
                                     monkeypatch, volrend_result):
        data = b"\n" + _jsonl_line(volrend_result) + b"  \n"
        with self._load(load_recipe, tmp_path, monkeypatch, data) as store:
            assert store.load(volrend_result.scenario) == volrend_result

    def test_stale_schema_records_go_with_results_gc(
        self, load_recipe, tmp_path, monkeypatch, capsys, volrend_result,
        fft_result
    ):
        """A record from an older engine loads as a stored row, is
        never served, and ``repro results gc`` drops it."""
        from repro.cli import main

        stale = fft_result.to_dict()
        stale["schema"] = "repro-result/0"
        data = _jsonl_line(volrend_result) + _jsonl_line(stale)
        with self._load(load_recipe, tmp_path, monkeypatch, data) as store:
            assert len(store) == 2
            assert store.load(fft_result.scenario) is None
        assert main(["results", "gc", "results.sqlite"]) == 0
        assert "removed 1 stale record(s); 1 live" in capsys.readouterr().out
        with SqliteStore(tmp_path / "results.sqlite") as store:
            assert store.fingerprints() == [
                scenario_fingerprint(volrend_result.scenario)
            ]
