"""Workload ``paper``: cold and warm paper builds from a SQLite store.

The default manifest (Figs 6, 7, 8a and 8b: 128 cells, plus Table I,
Fig 5 and the prose) at smoke scale.  A round opens an empty store;
its cold phase is ``run_paper`` plus the first ``build_paper``, and its
warm phase ``WARM_BUILDS`` more ``build_paper`` calls into fresh
directories.  The run repeats whole rounds (at least ``MIN_ROUNDS``)
until ``seconds`` have passed.  Host times are calibrated by the loop
timed around each cell of the cold phase and around each warm build
(see ``common.SpanClock``).  An operation is one warm build.
Pinning is off and the manifest has no path, so no manifest file is
ever written.
"""

from __future__ import annotations

import shutil
import time
from collections import Counter
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Tuple

from checks import EngineChecker, fig6a_problems, report_counts, table1_problems
from common import (CellRecorder, Outcome, SpanClock, end_to_end, metric,
                    peak_rss_mb, scratch_dir, sqlite_bytes)
import layers

#: Smoke scale, as in CI: small cells, so per-cell costs weigh most.
SCALE = 0.05
MIN_ROUNDS = 3
WARM_BUILDS = 30
#: Warm builds and ``plan_paper`` calls in a traced run.
TRACED_WARM = 20
TRACED_PLANS = 5


def _cells(manifest) -> Dict[str, object]:
    """Distinct manifest cells: fingerprint -> scenario."""
    return {fp: scenario for artifact in manifest.resolve()
            for fp, scenario in zip(artifact.fingerprints, artifact.scenarios)}


def _tree(path: Path) -> Dict[str, bytes]:
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def _results(store, cells: Dict[str, object]) -> List:
    from repro.sim.session import ScenarioResult

    payloads = store.get_many(list(cells))
    return [ScenarioResult.from_dict(payloads[fp]) for fp in cells
            if fp in payloads]


def _check_results(results: List, cells: Dict, outcome: Outcome,
                   rounds: int = 1) -> None:
    """Engine checks on every stored cell, counted once per round (the
    rounds' results are checked to be identical)."""
    from repro.scenario import scenario_fingerprint

    checker = EngineChecker()
    stored = {scenario_fingerprint(r.scenario) for r in results}
    outcome.check(stored == set(cells),
                  f"store holds {len(stored)} of {len(cells)} manifest cells")
    for result in results:
        problems = checker.problems(result.scenario, result.report)
        outcome.ops(rounds, rounds if problems else 0,
                    f"{result.scenario.label()}: {problems}")
    fig6 = [r for r in results if r.scenario.interconnect != "mot"]
    for problem in fig6a_problems(fig6) + table1_problems():
        outcome.check(False, problem)


def _check_simulated(recorder: CellRecorder, cells: Dict,
                     outcome: Outcome) -> None:
    from repro.scenario import scenario_fingerprint

    once = Counter(scenario_fingerprint(s) for s in recorder.scenarios)
    outcome.check(recorder.runs == len(cells)
                  and once == dict.fromkeys(cells, 1),
                  f"cold phase made {recorder.runs} Cluster3D.run calls for "
                  f"{len(cells)} distinct cells")


def _round(manifest, tmp: Path, recorder: CellRecorder, cells: Dict,
           outcome: Outcome) -> Tuple[float, List[float], List]:
    """One cold phase and its warm builds, checked: the cold phase's
    calibrated seconds, each warm build's, and the store's results."""
    from repro.paper import build, generate
    from repro.store import open_store

    recorder.reset()
    store = open_store(str(tmp / "paper.sqlite"))
    try:
        recorder.clock = cold = SpanClock()
        cold.start()
        generate.run_paper(manifest, store, pin=False)
        build.build_paper(manifest, store, out_dir=tmp / "cold")
        cold.stop()
        recorder.clock = None
        _check_simulated(recorder, cells, outcome)
        recorder.reset()
        cold_tree = _tree(tmp / "cold")
        outcome.op(bool(cold_tree), "cold build wrote nothing")
        warm = SpanClock()
        for index in range(WARM_BUILDS):
            out = tmp / f"warm{index}"
            warm.start()
            build.build_paper(manifest, store, out_dir=out)
            warm.stop()
            outcome.op(_tree(out) == cold_tree,
                       f"warm build {index} differs from the cold build")
            shutil.rmtree(out)
        outcome.check(recorder.runs == 0,
                      f"warm builds made {recorder.runs} Cluster3D.run calls")
        results = _results(store, cells)
    finally:
        store.close()
    for child in tmp.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()
    return sum(cold.spans), warm.spans, results


def run(seed: int, seconds: float,
        setup: Callable[[], float]) -> Tuple[Dict, Outcome]:
    from repro.paper.manifest import default_manifest

    manifest = default_manifest(scale=SCALE, seed=seed)
    cells = _cells(manifest)
    outcome = Outcome()
    colds: List[float] = []
    warms: List[float] = []
    with scratch_dir("paper") as tmp:
        recorder = CellRecorder()
        setup_s = setup()
        started = time.perf_counter()
        first = None
        replayed = True
        while len(colds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
            cold_s, warm_s, results = _round(manifest, tmp, recorder, cells,
                                             outcome)
            colds.append(cold_s)
            warms.extend(warm_s)
            first = first or results
            replayed = replayed and results == first
        recorder.uninstall()
    rss = peak_rss_mb()
    outcome.check(replayed, "a later round's results differ from the first")
    _check_results(first, cells, outcome, len(colds))
    return end_to_end(
        setup_s, sum(r.report.l1_accesses for r in first) / median(colds),
        rss, median(warms), len(warms) / sum(warms),
    ), outcome


def run_traced(seed: int) -> Tuple[Dict, Outcome]:
    """An untraced cold phase for reference counts, then a traced cold
    phase, warm builds and plans into a second store."""
    from repro.paper import build, generate
    from repro.paper.manifest import default_manifest
    from repro.store import open_store

    manifest = default_manifest(scale=SCALE, seed=seed)
    cells = _cells(manifest)
    outcome = Outcome()
    with scratch_dir("paper") as tmp:
        with open_store(str(tmp / "reference.sqlite")) as store:
            began = time.perf_counter()
            generate.run_paper(manifest, store, pin=False)
            plain_s = time.perf_counter() - began
            reference = report_counts(r.report for r in _results(store, cells))
        path = tmp / "traced.sqlite"
        store = open_store(str(path))
        tracer = layers.install(stack=True, paper=True)
        try:
            began = time.perf_counter()
            generate.run_paper(manifest, store, pin=False)
            traced_s = time.perf_counter() - began
            build.build_paper(manifest, store, out_dir=tmp / "cold")
            for index in range(TRACED_WARM):
                build.build_paper(manifest, store, out_dir=tmp / f"warm{index}")
            for _ in range(TRACED_PLANS):
                generate.plan_paper(manifest, store)
        finally:
            tracer.uninstall()
        try:
            results = _results(store, cells)
            records = len(store)
        finally:
            store.close()
        size = sqlite_bytes(path)
        tree = _tree(tmp / "cold")
        for index in range(TRACED_WARM):
            outcome.op(_tree(tmp / f"warm{index}") == tree,
                       f"traced warm build {index} differs from the cold build")
    _check_results(results, cells, outcome)
    timings, counts = layers.engine_layers(tracer, [r.report for r in results])
    for problem in layers.count_problems(tracer, counts, reference):
        outcome.check(False, problem)

    builds = tracer.spans_named("paper.build_paper")
    children = tracer.children()
    warm = builds[1:]
    get_many = [children[b[0]].get("store.get_many", 0.0) for b in warm]
    render = [(b[3] - b[2]) - g for b, g in zip(warm, get_many)]
    layers.save(tracer, "paper", {
        "untraced_run_paper_s": plain_s, "traced_run_paper_s": traced_s,
    })
    return {
        **timings,
        "analysis.render_ms": metric(median(render) * 1e3, "ms"),
        "scenario.fingerprint_us": metric(
            layers.per_call(tracer, "scenario.fingerprint", 1e6), "us"),
        "scenario.encode_us": metric(layers.encode_us(tracer), "us"),
        "scenario.decode_us": metric(
            layers.per_call(tracer, "scenario.from_dict", 1e6), "us"),
        "store.put_ms": metric(layers.per_call(tracer, "store.save", 1e3), "ms"),
        "store.get_many_ms": metric(median(get_many) * 1e3, "ms"),
        "store.bytes": metric(size, "bytes"),
        "paper.run_s": metric(tracer.net_total("paper.run_paper"), "s"),
        "paper.build_cold_ms": metric(
            (builds[0][3] - builds[0][2]) * 1e3, "ms"),
        "paper.plan_ms": metric(
            layers.per_call(tracer, "paper.plan_paper", 1e3), "ms"),
        **counts,
        "store.records": metric(records, "count"),
    }, outcome
