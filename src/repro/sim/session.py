"""Scenario execution: one generic path from spec to result.

:func:`run_scenario` turns one :class:`~repro.scenario.Scenario` into a
:class:`ScenarioResult` (simulation report + energy breakdown);
:func:`run_sweep` executes a :class:`~repro.scenario.SweepGrid` (or any
scenario sequence) serially or across worker processes.  Every public
surface — the ``experiment_fig6/7/8`` presets, the ``repro run`` /
``repro sweep`` CLI, and user code — funnels through these two
functions, so one improvement here (caching, sharding, a result store)
reaches everything.

Determinism contract: a scenario's result depends only on its spec
(replay determinism, ROADMAP Performance invariant 4), so the serial
and parallel paths are bit-identical.  The serial path additionally
runs each core's private-L1 pass once and replays the resulting miss
streams across cells that share ``(workload, scale, seed, active
cores, L1 config)`` — a core's L1 behaviour depends on nothing else,
so the replay is exactly equivalent to redoing it.  It runs the cells
grouped by that key, so each group's pass runs once however the cells
are ordered, and returns them in cell order.

The same determinism makes results perfectly cacheable: both functions
accept ``store=`` (any :class:`repro.store.ResultStore`), serve
previously computed cells straight from the store without simulating,
and persist fresh misses.  Worker processes never touch the store —
the parent writes every miss exactly once after collecting it, so no
backend needs cross-process locking.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.tracing import trace
from repro.sim.l1pass import MissStream, miss_streams
from repro.sim.stats import SimReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guards (scenario
    # pulls in the workloads package, which imports repro.sim; the
    # analysis package imports experiments, which imports this module;
    # repro.store imports this module for ScenarioResult)
    from repro.analysis.energy import EnergyBreakdown
    from repro.scenario import Scenario, SweepGrid
    from repro.store.base import ResultStore

#: Schema tag stamped into every serialized result.  Bump together
#: with :data:`repro.scenario.FINGERPRINT_SCHEMA` when the payload
#: layout changes; stores treat any other tag as a miss.
RESULT_SCHEMA = "repro-result/1"


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one executed scenario produced."""

    scenario: "Scenario"
    report: SimReport
    energy: "EnergyBreakdown"

    @property
    def execution_cycles(self) -> int:
        """Wall-clock of the simulated program (cycles)."""
        return self.report.execution_cycles

    @property
    def edp(self) -> float:
        """Cluster energy-delay product (J*s)."""
        return self.energy.edp

    def to_dict(self) -> Dict[str, object]:
        """JSON-able result payload (spec + report + energy);
        inverse of :meth:`from_dict`."""
        return {
            "schema": RESULT_SCHEMA,
            "scenario": self.scenario.to_dict(),
            "report": self.report.to_dict(),
            "energy": {
                **asdict(self.energy),
                "cluster_j": self.energy.cluster_j,
                "total_j": self.energy.total_j,
                "edp": self.energy.edp,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioResult":
        """Rehydrate a stored payload into a full result.

        The nested pieces come back as the real objects —
        :class:`~repro.scenario.Scenario`, :class:`SimReport` (with
        :class:`~repro.sim.stats.CoreStats` entries) and
        :class:`~repro.analysis.energy.EnergyBreakdown` — so a
        rehydrated result compares equal to the originally computed
        one and every derived property (``edp``, miss rates, ...)
        keeps working.
        """
        from repro.analysis.energy import EnergyBreakdown
        from repro.scenario import Scenario

        schema = data.get("schema", RESULT_SCHEMA)
        if schema != RESULT_SCHEMA:
            raise ConfigurationError(
                f"unsupported result schema {schema!r} "
                f"(expected {RESULT_SCHEMA!r})"
            )
        missing = {"scenario", "report", "energy"} - set(data)
        if missing:
            raise ConfigurationError(
                f"result payload missing {sorted(missing)}"
            )
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            report=SimReport.from_dict(data["report"]),
            energy=EnergyBreakdown.from_dict(data["energy"]),
        )


def run_scenario(
    scenario: "Scenario",
    traces: Optional[Dict[int, object]] = None,
    store: Optional["ResultStore"] = None,
) -> ScenarioResult:
    """Execute one scenario; safe to call in any process.

    ``traces`` optionally supplies pre-built per-core trace iterators
    or miss streams (they must match the scenario's active cores);
    sweeps use this to run a workload's L1 pass once and replay its
    streams across cells that share the same core set.

    ``store`` memoizes the call: a stored result for this scenario's
    fingerprint is rehydrated and returned without simulating (replay
    determinism makes the two indistinguishable), and a fresh result
    is persisted before returning.
    """
    from repro.analysis.energy import EnergyModel

    if store is not None:
        cached = store.load(scenario)
        if cached is not None:
            return cached

    cluster = scenario.build_cluster()
    if traces is None:
        with trace("engine.trace_gen", workload=scenario.workload):
            traces = scenario.build_traces()
    with trace("engine.simulate", workload=scenario.workload):
        report = cluster.run(
            traces,
            workload_name=scenario.workload,
            max_cycles=scenario.max_cycles,
            engine_mode=scenario.engine_mode,
        )
        energy = EnergyModel(
            dram=scenario.resolved_dram(),
            frequency_hz=scenario.config.frequency_hz,
        ).breakdown(report, cluster.interconnect.leakage_w())
    result = ScenarioResult(scenario=scenario, report=report, energy=energy)
    if store is not None:
        with trace("engine.persist", workload=scenario.workload):
            store.save(result)
    return result


def _stream_key(scenario: "Scenario") -> Tuple:
    """What a cell's miss streams depend on (see :class:`SweepTraceCache`)."""
    return (
        scenario.workload,
        scenario.scale,
        scenario.seed,
        scenario.active_cores(),
        scenario.config.l1,
    )


class SweepTraceCache:
    """Per-core miss streams, replayable across sweep cells.

    Keyed by ``(workload, scale, seed, active cores, L1 config)`` — the
    exact tuple a core's private-L1 behaviour depends on (see
    :mod:`repro.sim.l1pass`).  The interconnect, power state's banks
    and DRAM do not enter it, so Fig 6's four fabrics share one L1
    pass per program and Fig 7's four power states share two (all 16
    cores, and cores 6-9).  A stream is never modified by a run, so
    every cell gets the same one.  Legacy-mode cells get freshly
    generated traces instead: that scheduler is the oracle the
    streams are checked against.

    Peak memory is bounded: streams are kept for at most
    ``keep_workloads`` distinct workloads (LRU).  The serial
    :func:`run_sweep` asks for the cells of one key together, so a
    key's streams are never needed again once its group is done.
    """

    def __init__(self, keep_workloads: int = 2) -> None:
        if keep_workloads < 1:
            raise ValueError("keep_workloads must be >= 1")
        self._keep_workloads = keep_workloads
        self._streams: Dict[Tuple, Dict[int, MissStream]] = {}
        self._workload_order: List[str] = []  # LRU, most recent last

    def _touch(self, workload: str) -> None:
        order = self._workload_order
        if workload in order:
            order.remove(workload)
        order.append(workload)
        while len(order) > self._keep_workloads:
            evicted = order.pop(0)
            for key in [k for k in self._streams if k[0] == evicted]:
                del self._streams[key]

    def traces(self, scenario: "Scenario") -> Dict[int, object]:
        """The cell's per-core miss streams (raw traces in legacy mode)."""
        if scenario.engine_mode == "legacy":
            return scenario.build_traces()
        key = _stream_key(scenario)
        self._touch(scenario.workload)
        streams = self._streams.get(key)
        if streams is None:
            lazy = scenario.build_workload().trace_blocks(scenario.active_cores())
            streams = self._streams[key] = miss_streams(
                lazy, scenario.config.l1, scenario.max_cycles
            )
        return dict(streams)


def _cached_traces(cache: SweepTraceCache, scenario: "Scenario") -> Dict[int, object]:
    """Cache lookup timed as the sweep's trace-generation phase.

    Hits return in microseconds, misses pay trace generation plus the
    L1 pass — the ``repro_engine_trace_gen_seconds`` histogram shows
    both modes.
    """
    with trace("engine.trace_gen", workload=scenario.workload):
        return cache.traces(scenario)


def _run_serial(scenarios: List["Scenario"]) -> List[ScenarioResult]:
    """Run cells in-process, grouped by stream key; results in cell order.

    Groups run in the order of their first cell, and a group's cells in
    cell order (a stable sort), so each group's streams are built once
    and the cache never has to hold more than the group at hand.
    """
    first: Dict[Tuple, int] = {}
    group = [first.setdefault(_stream_key(s), i) for i, s in enumerate(scenarios)]
    cache = SweepTraceCache()
    results: List[Optional[ScenarioResult]] = [None] * len(scenarios)
    for index in sorted(range(len(scenarios)), key=group.__getitem__):
        scenario = scenarios[index]
        results[index] = run_scenario(
            scenario, traces=_cached_traces(cache, scenario)
        )
    return results


def run_sweep(
    sweep: Union["SweepGrid", Iterable["Scenario"]],
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
    pool: Optional[ProcessPoolExecutor] = None,
) -> List[ScenarioResult]:
    """Execute every cell of a sweep; results in cell order.

    ``jobs=None``/``0``/``1`` runs serially in-process (with miss-stream
    reuse across cells sharing a workload); ``jobs=N`` ships pickled
    scenarios to N worker processes; ``jobs<0`` uses one worker per
    CPU.  ``pool`` supplies a live :class:`ProcessPoolExecutor` to use
    instead (long-running callers — the service's queue consumer —
    amortize worker startup across many sweeps this way; it overrides
    ``jobs``).  Results are bit-identical across all modes.

    ``store`` memoizes the sweep: cells already present are rehydrated
    without simulating, only the misses run (serially or in workers),
    and every miss is persisted.  Misses are deduplicated by
    fingerprint before dispatch — a sweep naming the same cell twice
    simulates and persists it once, with every duplicate index sharing
    the computed result (the service batcher leans on this too).
    Workers compute, the parent writes — each miss is stored exactly
    once from this process, so the store needs no cross-process
    locking.  A sweep run against a cold store, a warm store, or no
    store at all returns bit-identical results.
    """
    from repro.scenario import SweepGrid, scenario_fingerprint

    scenarios = list(sweep.scenarios() if isinstance(sweep, SweepGrid) else sweep)
    if not scenarios:
        return []
    if jobs is not None and jobs < 0:
        jobs = os.cpu_count() or 1
    serial = pool is None and (jobs is None or jobs <= 1)

    def _in_workers(cells: List["Scenario"]) -> List[ScenarioResult]:
        if pool is not None:
            return list(pool.map(run_scenario, cells))
        with ProcessPoolExecutor(max_workers=jobs) as fresh_pool:
            return list(fresh_pool.map(run_scenario, cells))

    if store is None:
        return _run_serial(scenarios) if serial else _in_workers(scenarios)

    # Fingerprint each cell once, driving both the store lookup and
    # the miss grouping (store.load would hash every cell again).
    fingerprints = [scenario_fingerprint(s) for s in scenarios]
    results: List[Optional[ScenarioResult]] = []
    for fingerprint in fingerprints:
        payload = store.get(fingerprint)
        results.append(
            None if payload is None else ScenarioResult.from_dict(payload)
        )
    # One computation per distinct missing cell: fingerprint -> every
    # sweep index waiting on it, in first-miss order.
    miss_groups: Dict[str, List[int]] = {}
    for index, result in enumerate(results):
        if result is None:
            miss_groups.setdefault(fingerprints[index], []).append(index)
    misses = [scenarios[indices[0]] for indices in miss_groups.values()]
    if misses:
        computed = _run_serial(misses) if serial else _in_workers(misses)
        for indices, result in zip(miss_groups.values(), computed):
            with trace("engine.persist", workload=result.scenario.workload):
                store.save(result)
            for index in indices:
                results[index] = result
    return results
