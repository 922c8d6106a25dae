"""repro — reproduction of "A Power-Efficient 3-D On-Chip Interconnect
for Multi-Core Accelerators with Stacked L2 Cache" (Kang, Park, Lee,
Benini, De Micheli — DATE 2016).

Quick start::

    from repro import Scenario, SweepGrid, run_sweep

    result = Scenario(workload="fft", power_state="PC16-MB8").run()
    print(result.report.execution_cycles, result.energy.edp)

    grid = SweepGrid.over(                       # Fig 7-style sweep
        Scenario(workload="fft", scale=0.2),
        workload=["fft", "volrend"],
        power_state=["Full connection", "PC4-MB8"],
    )
    for cell in run_sweep(grid, jobs=2):         # bit-identical to serial
        print(cell.scenario.label(), cell.energy.edp)

Subpackages:

* ``repro.mot``       — the contribution: reconfigurable circuit-switched
  3-D Mesh-of-Tree fabric with power gating;
* ``repro.noc``       — packet-switched 3-D baselines (True Mesh,
  Hybrid Bus-Mesh, Hybrid Bus-Tree);
* ``repro.mem``       — L1/L2/DRAM substrate;
* ``repro.phys``      — Elmore/TSV/SRAM/power physical models;
* ``repro.sim``       — transaction-level system simulator;
* ``repro.store``     — persistent content-addressed result cache
  (fingerprint-keyed; SQLite on disk, a dict in memory);
* ``repro.service``   — HTTP frontend + distributed sweep coordination
  (``repro serve`` / ``repro worker``; ``ServiceClient`` is the
  matching client, ``WorkQueue`` the lease/complete coordinator);
* ``repro.workloads`` — synthetic SPLASH-2 suite;
* ``repro.analysis``  — energy/EDP and per-figure experiment harness.
"""

from repro.config import ClusterConfig, DEFAULT_CONFIG
from repro.scenario import (
    Scenario,
    SweepGrid,
    register_dram_preset,
    register_interconnect,
    register_workload,
    resolve_dram,
    resolve_power_state,
    scenario_fingerprint,
)
from repro.mot import (
    FULL_CONNECTION,
    PC16_MB8,
    PC4_MB32,
    PC4_MB8,
    PAPER_POWER_STATES,
    MoTFabric,
    MoTLatencyModel,
    MoTPowerModel,
    PowerGatingController,
    PowerState,
)
from repro.noc import (
    HybridBusMesh,
    HybridBusTree,
    MoTInterconnect,
    True3DMesh,
)
from repro.sim import (
    Cluster3D,
    ScenarioResult,
    SimReport,
    run_scenario,
    run_sweep,
)
from repro.store import (
    MemoryStore,
    ResultStore,
    SqliteStore,
    open_store,
)
from repro.workloads import SPLASH2_NAMES, SyntheticWorkload, build_traces
from repro.analysis import (
    EnergyModel,
    experiment_fig5,
    experiment_fig6,
    experiment_fig7,
    experiment_fig8,
    experiment_table1,
    headline_edp,
    run_benchmark,
)

__version__ = "1.0.0"

#: Lazy top-level exports (PEP 562): the service stack (http.server,
#: urllib) loads only when asked for — `import repro` in spawned sweep
#: workers and non-serve CLI paths must not pay for it.
_LAZY_EXPORTS = {
    "ScenarioServer": "server",
    "ServiceClient": "client",
    "SweepWorker": "worker",
    "WorkQueue": "queue",
}


def __getattr__(name: str):
    submodule = _LAZY_EXPORTS.get(name)
    if submodule is not None:
        import importlib

        return getattr(
            importlib.import_module(f"repro.service.{submodule}"), name
        )
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

__all__ = [
    "ClusterConfig",
    "DEFAULT_CONFIG",
    "Scenario",
    "SweepGrid",
    "ScenarioResult",
    "run_scenario",
    "run_sweep",
    "scenario_fingerprint",
    "ResultStore",
    "MemoryStore",
    "SqliteStore",
    "open_store",
    "ScenarioServer",
    "ServiceClient",
    "SweepWorker",
    "WorkQueue",
    "register_dram_preset",
    "register_interconnect",
    "register_workload",
    "resolve_dram",
    "resolve_power_state",
    "FULL_CONNECTION",
    "PC16_MB8",
    "PC4_MB32",
    "PC4_MB8",
    "PAPER_POWER_STATES",
    "MoTFabric",
    "MoTLatencyModel",
    "MoTPowerModel",
    "PowerGatingController",
    "PowerState",
    "HybridBusMesh",
    "HybridBusTree",
    "MoTInterconnect",
    "True3DMesh",
    "Cluster3D",
    "SimReport",
    "SPLASH2_NAMES",
    "SyntheticWorkload",
    "build_traces",
    "EnergyModel",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_fig7",
    "experiment_fig8",
    "experiment_table1",
    "headline_edp",
    "run_benchmark",
    "__version__",
]
