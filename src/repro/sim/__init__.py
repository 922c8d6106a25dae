"""Graphite-like transaction-level system simulator (DESIGN.md S16)."""

from repro.sim.trace import (
    CoreTrace,
    MemRef,
    TraceBlock,
    TraceStep,
    expand_steps,
)
from repro.sim.stats import CoreStats, SimReport
from repro.sim.engine import FastMemorySystem, SimulationEngine
from repro.sim.cluster import Cluster3D
from repro.sim.session import (
    ScenarioResult,
    SweepTraceCache,
    run_scenario,
    run_sweep,
)

__all__ = [
    "CoreTrace",
    "MemRef",
    "TraceBlock",
    "TraceStep",
    "expand_steps",
    "CoreStats",
    "SimReport",
    "FastMemorySystem",
    "SimulationEngine",
    "Cluster3D",
    "ScenarioResult",
    "SweepTraceCache",
    "run_scenario",
    "run_sweep",
]
