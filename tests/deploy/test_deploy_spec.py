"""DeploymentSpec validation and serialization round-trips."""

import pytest

from repro.deploy import DEPLOYMENT_KIND, DeploymentSpec, PlacementSpec, RadioSpec
from repro.errors import SpecError
from repro.experiments.spec import SchedulerSpec
from repro.obs.config import ObsConfig
from repro.resilience.faults import FaultPlan, WorkerCrashFault
from repro.sim.config import SimulationConfig


def demo_spec(**overrides):
    base = dict(
        name="t",
        placement=PlacementSpec("ppp", {"num_cells": 4, "area_m": 500.0}),
        ues_per_cell=3,
        wifi_per_cell=2,
        sim=SimulationConfig(num_subframes=100),
        seed=5,
    )
    base.update(overrides)
    return DeploymentSpec(**base)


class TestPlacementSpec:
    def test_grid_cell_count(self):
        spec = PlacementSpec("grid", {"rows": 3, "cols": 4, "spacing_m": 100.0})
        assert spec.num_cells == 12

    def test_ppp_cell_count(self):
        assert PlacementSpec("ppp", {"num_cells": 7}).num_cells == 7

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="placement kind"):
            PlacementSpec("hex", {})

    def test_unknown_param_rejected(self):
        with pytest.raises(SpecError, match="unknown field"):
            PlacementSpec.from_dict(
                {"kind": "grid", "params": {"rows": 2, "radius": 1}}
            )

    def test_round_trip(self):
        spec = PlacementSpec("ppp", {"num_cells": 5, "area_m": 300.0})
        assert PlacementSpec.from_dict(spec.to_dict()) == spec


class TestRadioSpec:
    def test_activity_range_validated(self):
        with pytest.raises(SpecError, match="activity range"):
            RadioSpec(activity_low=0.6, activity_high=0.2)

    def test_uplink_activity_validated(self):
        with pytest.raises(SpecError, match="ue_uplink_activity"):
            RadioSpec(ue_uplink_activity=1.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown field"):
            RadioSpec.from_dict({"tx_power": 20.0})


class TestDeploymentSpec:
    def test_round_trip_json(self):
        spec = demo_spec(
            obs=ObsConfig(enabled=True),
            faults=FaultPlan((WorkerCrashFault(cells=(0,)),)),
        )
        again = DeploymentSpec.from_json(spec.to_json())
        assert again == spec

    def test_retired_fast_path(self):
        data = demo_spec().to_dict()
        assert "fast_path" not in data
        data["fast_path"] = True
        assert DeploymentSpec.from_dict(data) == demo_spec()
        data["fast_path"] = False
        with pytest.raises(SpecError, match="scalar engine path was removed"):
            DeploymentSpec.from_dict(data)

    def test_kind_marker_serialized(self):
        assert demo_spec().to_dict()["kind"] == DEPLOYMENT_KIND

    def test_non_deployment_kind_rejected(self):
        data = demo_spec().to_dict()
        data["kind"] = "experiment"
        with pytest.raises(SpecError, match="not a deployment spec"):
            DeploymentSpec.from_dict(data)

    def test_unknown_top_level_field_rejected(self):
        data = demo_spec().to_dict()
        data["extra"] = 1
        with pytest.raises(SpecError, match="unknown field"):
            DeploymentSpec.from_dict(data)

    def test_unknown_sim_field_rejected(self):
        data = demo_spec().to_dict()
        data["sim"]["warp_boards"] = 4
        with pytest.raises(SpecError, match="unknown field"):
            DeploymentSpec.from_dict(data)

    def test_missing_required_fields(self):
        with pytest.raises(SpecError, match="missing required field"):
            DeploymentSpec.from_dict({"kind": DEPLOYMENT_KIND, "name": "x"})

    def test_validation(self):
        with pytest.raises(SpecError, match="ues_per_cell"):
            demo_spec(ues_per_cell=0)
        with pytest.raises(SpecError, match="coupling_margin_db"):
            demo_spec(coupling_margin_db=-1.0)
        with pytest.raises(SpecError, match="cell_radius_m"):
            demo_spec(cell_radius_m=0.0)

    def test_counts(self):
        spec = demo_spec()
        assert spec.num_cells == 4
        assert spec.total_ues == 12

    def test_replace(self):
        spec = demo_spec()
        assert spec.replace(seed=9).seed == 9
        assert spec.seed == 5

    def test_default_scheduler_is_pf(self):
        assert demo_spec().scheduler == SchedulerSpec("pf")
