"""Which callables a traced run wraps, and the per-layer numbers.

The span names below are the layer boundaries of the README's table:
``workloads`` (trace generation and replay), ``sim`` (cluster
construction, the timed engine, the shared miss path), ``noc``/``mot``
(each interconnect's ``access``), ``analysis`` (energy), ``scenario``
(fingerprint, encode, decode), ``store``, ``paper`` and ``service``.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Sequence, Tuple

from checks import report_counts
from common import OUT_DIR, metric
from spans import Tracer


def install(stack: bool = False, paper: bool = False,
            service: bool = False) -> Tracer:
    """Wrap the engine's layers (and optionally the stack's)."""
    from repro.analysis.energy import EnergyModel
    from repro.noc.bus_mesh import HybridBusMesh
    from repro.noc.bus_tree import HybridBusTree
    from repro.noc.mesh3d import True3DMesh
    from repro.noc.mot_adapter import MoTInterconnect
    from repro.scenario import Scenario
    from repro.sim.cluster import Cluster3D
    from repro.sim.session import ScenarioResult, SweepTraceCache

    tracer = Tracer()
    tracer.function("repro.sim.session", "run_scenario", "sim.run_scenario",
                    opens_cell=True)
    tracer.method(SweepTraceCache, "traces", "workloads.traces")
    tracer.method(Scenario, "build_cluster", "sim.build_cluster")
    tracer.method(Cluster3D, "run", "sim.run")
    tracer.method(Cluster3D, "finish_miss", "sim.finish_miss", rollup=True)
    for cls in (MoTInterconnect, True3DMesh, HybridBusMesh, HybridBusTree):
        tracer.method(cls, "access", "noc.access", rollup=True)
    tracer.method(EnergyModel, "breakdown", "analysis.breakdown")
    if stack:
        from repro.store.base import ResultStore
        from repro.store.sqlite import SqliteStore

        tracer.function("repro.sim.session", "run_sweep", "sim.run_sweep")
        tracer.function("repro.scenario", "scenario_fingerprint",
                        "scenario.fingerprint")
        tracer.function("repro.scenario", "canonical_json",
                        "scenario.canonical_json")
        tracer.method(ScenarioResult, "to_dict", "scenario.to_dict")
        tracer.method(ScenarioResult, "from_dict", "scenario.from_dict")
        tracer.method(ResultStore, "save", "store.save")
        tracer.method(SqliteStore, "get_raw", "store.get_raw")
        tracer.method(SqliteStore, "get_many", "store.get_many")
    if paper:
        tracer.function("repro.paper.generate", "run_paper", "paper.run_paper")
        tracer.function("repro.paper.generate", "plan_paper", "paper.plan_paper")
        tracer.function("repro.paper.build", "build_paper", "paper.build_paper")
    if service:
        from repro.service.server import ScenarioServer

        tracer.function("repro.service.spec", "scenario_from_request",
                        "service.scenario_from_request")
        tracer.method(ScenarioServer, "serve_scenario", "service.serve_scenario")
    return tracer


def engine_layers(tracer: Tracer, reports: Sequence) -> Tuple[Dict, Dict]:
    """Engine self times (host seconds) and the exact counts."""
    layers = {
        "workloads.trace_gen_s": tracer.total("workloads.traces"),
        "sim.cluster_build_s": tracer.total("sim.build_cluster"),
        # Rolled-up wrappers' own cost is taken off (Tracer.wrapper_cost).
        "sim.run_s": tracer.net_total("sim.run"),
        # The run's own time: private L1 lookups plus the scheduler.
        "sim.l1_pass_s": tracer.self_total("sim.run"),
        "sim.miss_path_s": tracer.net_total("sim.finish_miss"),
        "noc.access_s": tracer.total("noc.access"),
        # The miss path's own time: L2 banks, Miss bus, DRAM, victims.
        "mem.shared_s": tracer.self_total("sim.finish_miss"),
        "analysis.energy_s": tracer.total("analysis.breakdown"),
    }
    counts = report_counts(reports)
    counts["noc.accesses"] = tracer.count("noc.access")
    return (
        {name: metric(value, "s") for name, value in layers.items()},
        {name: metric(value, "count") for name, value in counts.items()},
    )


def count_problems(tracer: Tracer, counts: Dict, reference: Dict) -> List[str]:
    """Cross-check the counts taken at the wrappers against the reports
    and against the same cells run untraced."""
    value = {name: entry["value"] for name, entry in counts.items()}
    out = []
    if tracer.count("sim.finish_miss") != value["sim.l1_misses"]:
        out.append(f"finish_miss calls {tracer.count('sim.finish_miss')} "
                   f"!= l1_misses {value['sim.l1_misses']}")
    if tracer.count("noc.access") != value["mem.l2_accesses"]:
        out.append(f"interconnect access calls {tracer.count('noc.access')} "
                   f"!= l2_accesses {value['mem.l2_accesses']}")
    if tracer.count("sim.run") != value["sim.cells"]:
        out.append(f"Cluster3D.run calls {tracer.count('sim.run')} "
                   f"!= cells {value['sim.cells']}")
    for name, expected in reference.items():
        if value[name] != expected:
            out.append(f"traced {name} {value[name]} != untraced {expected}")
    return out


def per_call(tracer: Tracer, name: str, scale: float) -> float:
    """Median duration of one call, in units of ``1/scale`` seconds."""
    return median(tracer.durations(name)) * scale


def encode_us(tracer: Tracer) -> float:
    """Median per ``ResultStore.save``: ``to_dict`` plus the store's
    ``canonical_json`` (the encode half of a save)."""
    children = tracer.children()
    per_save = [
        children[span[0]].get("scenario.to_dict", 0.0)
        + children[span[0]].get("scenario.canonical_json", 0.0)
        for span in tracer.spans_named("store.save")
    ]
    return median(per_save) * 1e6


def save(tracer: Tracer, workload: str, extra: Dict) -> None:
    tracer.write(OUT_DIR / f"trace-{workload}.jsonl", extra)
