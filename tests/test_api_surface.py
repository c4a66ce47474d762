"""Library-surface tests: exports, error hierarchy, docstring hygiene."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors
from repro.deploy import DeploymentSpec
from repro.experiments import ExperimentPlan, ExperimentSpec
from repro.sim import CellSimulation


PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.core.blueprint",
    "repro.core.joint",
    "repro.core.measurement",
    "repro.core.scheduling",
    "repro.deploy",
    "repro.dynamics",
    "repro.experiments",
    "repro.lte",
    "repro.obs",
    "repro.resilience",
    "repro.sim",
    "repro.spectrum",
    "repro.topology",
    "repro.traces",
]


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if inspect.isclass(obj) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_specific_errors_distinct(self):
        assert not issubclass(errors.SchedulingError, errors.TopologyError)
        assert not issubclass(errors.TraceError, errors.InferenceError)

    def test_resilience_errors_nested(self):
        assert issubclass(errors.CheckpointError, errors.ResilienceError)
        assert issubclass(errors.WorkerFailure, errors.ResilienceError)
        assert not issubclass(errors.ResilienceError, errors.SimulationError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.MeasurementError("x")


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} lacks a module docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_top_level_all_sorted_classes_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name)


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_public_callables_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{package}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestSingleEnginePath:
    """One production engine; the scalar reference lives in tests/."""

    @pytest.mark.parametrize(
        "target",
        [
            CellSimulation,
            ExperimentPlan.simulation,
            ExperimentSpec,
            DeploymentSpec,
        ],
        ids=lambda target: target.__qualname__,
    )
    def test_no_fast_path_parameter(self, target):
        assert "fast_path" not in inspect.signature(target).parameters

    def test_stage_exports_name_one_substrate(self):
        from repro.sim import stages

        flavoured = [
            name
            for name in stages.__all__
            if name.startswith(("Legacy", "Vectorized"))
        ]
        assert not flavoured

    def test_running_a_spec_never_imports_the_reference(self):
        root = Path(__file__).resolve().parent.parent
        script = (
            "import sys\n"
            "from repro.experiments import ExperimentSpec, run_experiment\n"
            "spec = ExperimentSpec.from_dict({\n"
            "    'name': 'imports', 'seed': 1,\n"
            "    'scenario': {'kind': 'testbed', 'params': {'num_ues': 3,\n"
            "        'hts_per_ue': 1, 'seed': 2}, 'snr': {'kind': 'uniform'}},\n"
            "    'sim': {'num_subframes': 60, 'num_rbs': 4},\n"
            "    'schedulers': {'pf': {'kind': 'pf'}}})\n"
            "assert run_experiment(spec)['pf'].num_subframes == 60\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'tests'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert completed.stdout.strip() == "[]"


class TestOneRunApi:
    """Experiments run through the spec layer only; ``repro.sim`` is the
    engine and its result types."""

    def test_top_level_run_entry_points_are_the_spec_runners(self):
        runners = {name for name in repro.__all__ if name.startswith("run_")}
        assert runners == {
            "run_chaos",
            "run_experiment",
            "run_experiment_grid",
            "run_experiment_replications",
            "run_experiment_sweep",
        }

    def test_sim_exports_engine_and_result_types(self):
        import repro.sim

        assert sorted(repro.sim.__all__) == [
            "CellSimulation",
            "CompositeHooks",
            "DownlinkSimulation",
            "PhaseTimerHooks",
            "ReplicatedMetric",
            "SimHooks",
            "SimulationConfig",
            "SimulationResult",
            "SubframeContext",
            "SubframePipeline",
            "SubframeStage",
            "SweepPoint",
            "gain_over",
        ]

    def test_result_types_live_in_sim_results(self):
        import repro.sim
        from repro.sim import results

        for name in ("ReplicatedMetric", "SweepPoint", "gain_over"):
            assert getattr(repro.sim, name) is getattr(results, name)

    def test_sim_has_no_runner_module(self):
        import repro.sim

        modules = {info.name for info in pkgutil.iter_modules(repro.sim.__path__)}
        assert modules == {"config", "downlink", "engine", "results", "stages"}
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"{repro.sim.__name__}.runner")


class TestArrayReception:
    """Reception is decided on arrays; per-RB objects are an API view."""

    def test_only_the_lazy_view_builds_rb_receptions(self):
        src = Path(repro.__file__).resolve().parent
        users = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if "rb_receptions" in path.read_text()
        )
        assert users == ["lte/enb.py"]

    def test_receive_subframe_wraps_the_array_decode(self):
        from repro.lte.enb import ENodeB, SubframeReception
        from repro.lte.resources import SubframeSchedule, UplinkGrant
        from tests.reference import receive_subframe

        assert not hasattr(ENodeB, "receive_subframe")
        schedule = SubframeSchedule(num_rbs=1)
        schedule.add_grant(UplinkGrant(ue_id=0, rb=0, rate_bps=1e5))
        reception = receive_subframe(
            ENodeB(num_antennas=1, num_rbs=1), 0, schedule, [0], {0: [25.0]}
        )
        assert isinstance(reception, SubframeReception)
        assert isinstance(
            inspect.getattr_static(SubframeReception, "rb_receptions"), property
        )
