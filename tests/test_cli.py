"""Tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig7_dram_choices(self):
        args = build_parser().parse_args(["fig7", "--dram", "63"])
        assert args.dram == 63
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--dram", "100"])

    def test_benchmark_whitelist(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--benchmarks", "linpack"])

    def test_fig_commands_take_seed(self):
        for fig in ("fig6", "fig7", "fig8"):
            args = build_parser().parse_args([fig, "--seed", "7"])
            assert args.seed == 7

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fft"])
        assert args.workload == "fft"
        assert args.interconnect == "mot"
        assert args.state == "Full connection"
        assert args.dram_ns is None and args.seed == 2016

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "fft", "--interconnect", "mesh", "--state", "PC4-MB8",
             "--dram-ns", "150", "--seed", "7", "--json", "out.json"]
        )
        assert args.interconnect == "mesh" and args.state == "PC4-MB8"
        assert args.dram_ns == 150.0 and args.seed == 7
        assert str(args.json) == "out.json"

    def test_sweep_axes(self):
        args = build_parser().parse_args(
            ["sweep", "--workloads", "fft", "volrend",
             "--state", "Full connection", "PC4-MB8",
             "--dram-ns", "200", "63", "--jobs", "2"]
        )
        assert args.workloads == ["fft", "volrend"]
        assert args.states == ["Full connection", "PC4-MB8"]
        assert args.dram_ns == [200.0, 63.0]
        assert args.jobs == 2


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "12 cycles" in out and "PC4-MB8" in out

    def test_config(self, capsys):
        assert main(["config"]) == 0
        assert "64 KB x 32 banks" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        assert "wire lengths" in capsys.readouterr().out

    def test_fabric_rendering(self, capsys):
        assert main(["fabric", "--state", "PC4-MB8", "--core", "6"]) == 0
        out = capsys.readouterr().out
        assert "PC4-MB8" in out
        assert "core 6 routing tree" in out

    def test_fabric_unknown_state(self):
        from repro.errors import PowerStateError

        with pytest.raises(PowerStateError):
            main(["fabric", "--state", "PC2-MB1"])

    def test_fig6_small_run(self, capsys):
        assert main(
            ["fig6", "--scale", "0.05", "--benchmarks", "volrend"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig 6a" in out and "3-D MoT" in out

    def test_fig7_small_run(self, capsys):
        assert main(
            ["fig7", "--scale", "0.05", "--benchmarks", "volrend",
             "--dram", "42"]
        ) == 0
        assert "EDP" in capsys.readouterr().out

    def test_run_smoke(self, capsys):
        assert main(
            ["run", "volrend", "--state", "PC4-MB8", "--dram-ns", "150",
             "--scale", "0.03"]
        ) == 0
        out = capsys.readouterr().out
        assert "PC4-MB8" in out and "150 ns" in out and "EDP" in out

    def test_run_json(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        assert main(
            ["run", "volrend", "--scale", "0.03", "--json", str(out_path)]
        ) == 0
        import json

        payload = json.loads(out_path.read_text())
        assert payload["scenario"]["workload"] == "volrend"
        assert payload["report"]["execution_cycles"] > 0

    def test_run_unknown_workload(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "linpack", "--scale", "0.03"])

    def test_sweep_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--workloads", "volrend", "--state",
             "Full connection", "PC4-MB8", "--scale", "0.03",
             "--json", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out and "PC4-MB8" in out
        import json

        payload = json.loads(out_path.read_text())
        assert len(payload) == 2


class TestStoreCLI:
    SWEEP = ["sweep", "--workloads", "volrend", "--state",
             "Full connection", "PC4-MB8", "--scale", "0.03"]

    def test_parser_accepts_store(self):
        for argv in (["run", "fft", "--store", "s.sqlite"],
                     self.SWEEP + ["--store", "s.sqlite"],
                     ["fig7", "--store", "s.sqlite"]):
            assert build_parser().parse_args(argv).store is not None

    def test_sweep_cold_then_warm_identical_json(self, capsys, tmp_path):
        store = str(tmp_path / "store.sqlite")
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        assert main(
            self.SWEEP + ["--store", store, "--json", str(cold_json)]
        ) == 0
        cold_out = capsys.readouterr().out
        assert "hits: 0, misses: 2" in cold_out
        assert main(
            self.SWEEP + ["--store", store, "--json", str(warm_json)]
        ) == 0
        warm_out = capsys.readouterr().out
        assert "hits: 2, misses: 0" in warm_out
        assert cold_json.read_text() == warm_json.read_text()

    def test_run_store_hit(self, capsys, tmp_path):
        argv = ["run", "volrend", "--scale", "0.03",
                "--store", str(tmp_path / "store.sqlite")]
        assert main(argv) == 0
        assert "misses: 1" in capsys.readouterr().out
        assert main(argv) == 0
        assert "hits: 1, misses: 0" in capsys.readouterr().out

    def test_results_list_show_export_gc(self, capsys, tmp_path):
        store = str(tmp_path / "store.sqlite")
        assert main(self.SWEEP + ["--store", store]) == 0
        capsys.readouterr()

        assert main(["results", "list", store, "--state", "PC4-MB8"]) == 0
        out = capsys.readouterr().out
        assert "1 result(s)" in out and "PC4-MB8" in out

        import json

        assert main(["results", "export", store]) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert len(payloads) == 2
        assert {p["scenario"]["power_state"] for p in payloads} == {
            "Full connection", "PC4-MB8"
        }

        from repro.scenario import Scenario, scenario_fingerprint

        prefix = scenario_fingerprint(
            Scenario.from_dict(payloads[0]["scenario"])
        )[:12]
        assert main(["results", "show", store, prefix]) == 0
        out = capsys.readouterr().out
        assert "fingerprint:" in out and "EDP" in out

        assert main(["results", "gc", store]) == 0
        assert "removed 0 stale record(s); 2 live" in capsys.readouterr().out

    def test_results_show_unknown_fingerprint(self, tmp_path):
        from repro.errors import ConfigurationError

        store = str(tmp_path / "store.sqlite")
        assert main(self.SWEEP + ["--store", store]) == 0
        with pytest.raises(ConfigurationError):
            main(["results", "show", store, "ffffffffffff"])

    def test_parser_accepts_serve(self):
        args = build_parser().parse_args(
            ["serve", "--store", "s.sqlite", "--port", "0", "--jobs", "2"]
        )
        assert args.store == "s.sqlite"
        assert args.port == 0 and args.jobs == 2
        assert args.host == "127.0.0.1"
        with pytest.raises(SystemExit):  # --store is required
            build_parser().parse_args(["serve"])

    def test_results_show_stale_schema_names_tag_and_gc(self, tmp_path):
        """A prefix matching a stale-schema record must say which tag
        the record carries and point at `repro results gc` — not claim
        there is no stored result."""
        from repro.errors import ConfigurationError
        from repro.store import open_store

        store_path = str(tmp_path / "store.sqlite")
        assert main(self.SWEEP + ["--store", store_path]) == 0
        with open_store(store_path) as store:
            fingerprint = store.fingerprints()[0]
            stale = store.get(fingerprint)
            stale["schema"] = "repro-result/0"
            store.put(fingerprint, stale)
        with pytest.raises(ConfigurationError) as excinfo:
            main(["results", "show", store_path, fingerprint[:12]])
        message = str(excinfo.value)
        assert "stale schema 'repro-result/0'" in message
        assert "results gc" in message
        assert "no stored result" not in message

    def test_results_refuses_missing_store_path(self, tmp_path):
        """A typo'd path must error, not fabricate an empty store."""
        from repro.errors import ConfigurationError

        missing = tmp_path / "nope.sqlite"
        with pytest.raises(ConfigurationError):
            main(["results", "list", str(missing)])
        assert not missing.exists()


class TestPaperCli:
    def _manifest(self, tmp_path):
        from repro.paper import default_manifest

        path = tmp_path / "paper.json"
        default_manifest(benchmarks=("fft",), scale=0.02).save(path)
        return str(path)

    def test_parser_accepts_paper_commands(self):
        args = build_parser().parse_args(
            ["paper", "run", "--manifest", "m.json", "--jobs", "2",
             "--scale", "0.05", "--no-pin"]
        )
        assert args.paper_command == "run"
        assert args.manifest == "m.json" and args.jobs == 2
        assert args.scale == 0.05 and args.no_pin
        args = build_parser().parse_args(
            ["paper", "build", "--out", "artifacts"]
        )
        assert args.paper_command == "build"
        assert str(args.out) == "artifacts"
        with pytest.raises(SystemExit):  # subcommand is required
            build_parser().parse_args(["paper"])

    def test_plan_run_build_lifecycle(self, capsys, tmp_path):
        manifest = self._manifest(tmp_path)

        assert main(["paper", "plan", "--manifest", manifest]) == 0
        out = capsys.readouterr().out
        assert "does not exist yet" in out and "16 to compute" in out

        assert main(["paper", "run", "--manifest", manifest]) == 0
        out = capsys.readouterr().out
        assert "computed: 16 cells" in out and "pinned:" in out

        assert main(["paper", "plan", "--manifest", manifest]) == 0
        assert "0 to compute" in capsys.readouterr().out

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out_dir in (out_a, out_b):
            assert main(["paper", "build", "--manifest", manifest,
                         "--out", str(out_dir)]) == 0
            printed = capsys.readouterr().out
            assert "misses: 0" in printed
            assert "PAPER_GENERATED.md" in printed
        files_a = {p.name: p.read_bytes() for p in out_a.iterdir()}
        files_b = {p.name: p.read_bytes() for p in out_b.iterdir()}
        assert files_a == files_b

    def test_build_cold_store_errors(self, capsys, tmp_path):
        from repro.errors import PaperError

        manifest = self._manifest(tmp_path)
        with pytest.raises(PaperError, match="repro paper run"):
            main(["paper", "build", "--manifest", manifest,
                  "--out", str(tmp_path / "out")])

    def test_scale_env_override(self, capsys, tmp_path, monkeypatch):
        """REPRO_BENCH_SCALE rescales the whole manifest, as it does
        the examples — the CI smoke knob."""
        manifest = self._manifest(tmp_path)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        assert main(["paper", "run", "--manifest", manifest]) == 0
        capsys.readouterr()
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        # Without the env the manifest's own scale (0.02) applies, and
        # those cells were never computed.
        assert main(["paper", "plan", "--manifest", manifest]) == 0
        assert "16 to compute" in capsys.readouterr().out
