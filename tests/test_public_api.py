"""API-contract tests: the public surface a downstream user codes to.

These tests pin the names exported at package level so refactors that
would break user code fail loudly here first.
"""

import pytest

import repro
from repro.errors import (
    ArbitrationError,
    ConfigurationError,
    PowerStateError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
    WorkloadError,
)


class TestTopLevelExports:
    ESSENTIALS = (
        "MoTFabric",
        "PowerState",
        "PAPER_POWER_STATES",
        "FULL_CONNECTION",
        "PC16_MB8",
        "PC4_MB32",
        "PC4_MB8",
        "MoTLatencyModel",
        "MoTPowerModel",
        "PowerGatingController",
        "True3DMesh",
        "HybridBusMesh",
        "HybridBusTree",
        "MoTInterconnect",
        "Cluster3D",
        "SimReport",
        "SyntheticWorkload",
        "build_traces",
        "SPLASH2_NAMES",
        "EnergyModel",
        "run_benchmark",
        "experiment_table1",
        "experiment_fig5",
        "experiment_fig6",
        "experiment_fig7",
        "experiment_fig8",
        "headline_edp",
        "ClusterConfig",
    )

    @pytest.mark.parametrize("name", ESSENTIALS)
    def test_name_exported(self, name):
        assert hasattr(repro, name), f"repro.{name} missing"
        assert name in repro.__all__

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_entries_resolvable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, TopologyError, RoutingError, ArbitrationError,
        PowerStateError, SimulationError, WorkloadError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_catchable_as_one(self):
        with pytest.raises(ReproError):
            raise RoutingError("x")


class TestSubpackageSurfaces:
    def test_mot_exports_extensions(self):
        from repro import mot

        for name in ("PowerStateGovernor", "MoTAreaModel", "render_fabric"):
            assert hasattr(mot, name)

    def test_analysis_exports_sweeps(self):
        from repro import analysis

        for name in ("seed_study", "sweep_power_states", "export_fig6"):
            assert hasattr(analysis, name)

    def test_noc_factory(self):
        from repro.noc import paper_interconnects

        fabrics = paper_interconnects()
        assert [f.name for f in fabrics] == [
            "True 3-D Mesh",
            "3-D Hybrid Bus-Mesh",
            "3-D Hybrid Bus-Tree",
            "3-D MoT",
        ]
        # Fresh instances each call (contention state must not leak).
        assert fabrics[0] is not paper_interconnects()[0]
