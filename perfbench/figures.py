"""Workload ``figures``: the Fig 6 and Fig 7 grids as serial sweeps.

Fig 6 is 8 SPLASH-2 programs x the 4 interconnects at Full connection;
Fig 7 is 8 programs x the 4 power states on the MoT; both at 200 ns
DRAM.  Each grid runs as one serial ``run_sweep`` without a store, so
the engine's per-reference layers do nearly all the work.  A round is
both sweeps; the run repeats whole rounds (at least ``MIN_ROUNDS``)
until ``seconds`` have passed.  Each cell's host time is calibrated by
the loop timed around it (see ``common.SpanClock``).  An operation is
one cell.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from checks import EngineChecker, fig6a_problems, report_counts, table1_problems
from common import CellRecorder, Outcome, SpanClock, end_to_end, peak_rss_mb
import layers

#: Engine scale of every cell: per-reference work is about 70% of a
#: round (5 to 8 s for 64 cells on a 2-core host), per-cell set-up the rest.
SCALE = 0.05
MIN_ROUNDS = 3


def grids(seed: int):
    from repro.analysis.experiments import fig6_grid, fig7_grid

    return (list(fig6_grid(scale=SCALE, seed=seed).scenarios()),
            list(fig7_grid(scale=SCALE, seed=seed).scenarios()))


def _round(sweeps, clock: Optional[SpanClock] = None) -> Tuple[List, float]:
    """Run both sweeps: their results and host seconds.  With a clock
    (and a :class:`CellRecorder` marking each cell) the round is also
    split into calibrated spans: one per cell, then the rest of the
    round after the last cell."""
    from repro.sim import session

    results = []
    started = time.perf_counter()
    if clock is not None:
        clock.start()
    for cells in sweeps:
        results.extend(session.run_sweep(cells))
    if clock is not None:
        clock.stop()
    return results, time.perf_counter() - started


def _check(results, rounds: int, outcome: Outcome) -> None:
    checker = EngineChecker()
    for result in results:
        problems = checker.problems(result.scenario, result.report)
        outcome.ops(rounds, rounds if problems else 0,
                    f"{result.scenario.label()}: {problems}")
    fig6 = [r for r in results if r.scenario.power_state == "Full connection"
            and r.scenario.interconnect != "mot"]
    for problem in fig6a_problems(fig6) + table1_problems():
        outcome.check(False, problem)


def run(seed: int, seconds: float,
        setup: Callable[[], float]) -> Tuple[Dict, Outcome]:
    sweeps = grids(seed)
    recorder = CellRecorder()
    recorder.clock = clock = SpanClock()
    setup_s = setup()
    started = time.perf_counter()
    first = None
    replayed = True
    cells_s: List[float] = []
    rounds_s: List[float] = []
    while len(rounds_s) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        before = len(clock.spans)
        results, _ = _round(sweeps, clock)
        spans = clock.spans[before:]
        cells_s.extend(spans[:-1])
        rounds_s.append(sum(spans))
        first = first or results
        replayed = replayed and results == first
    recorder.uninstall()
    rss = peak_rss_mb()
    outcome = Outcome()
    outcome.check(replayed, "a later round's results differ from the first")
    _check(first, len(rounds_s), outcome)
    round_s = median(rounds_s)
    return end_to_end(
        setup_s, sum(r.report.l1_accesses for r in first) / round_s, rss,
        median(cells_s), len(first) / round_s,
    ), outcome


def run_traced(seed: int) -> Tuple[Dict, Outcome]:
    """One untraced round for reference counts, then one traced round."""
    sweeps = grids(seed)
    reference, plain_s = _round(sweeps)
    tracer = layers.install()
    try:
        traced, traced_s = _round(sweeps)
    finally:
        tracer.uninstall()
    outcome = Outcome()
    outcome.check(traced == reference, "traced results differ from untraced")
    _check(traced, 1, outcome)
    timings, counts = layers.engine_layers(tracer, [r.report for r in traced])
    for problem in layers.count_problems(
            tracer, counts, report_counts(r.report for r in reference)):
        outcome.check(False, problem)
    layers.save(tracer, "figures", {
        "untraced_round_s": plain_s, "traced_round_s": traced_s,
    })
    return {**timings, **counts}, outcome
