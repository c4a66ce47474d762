"""A kernel-library build failure is reported once, not swallowed, and
the pure paths that take over give the same results."""

import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.scheduling import _kernel
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.experiments import ExperimentSpec, build_experiment
from repro.sim.config import SimulationConfig
from repro.sim.engine import CellSimulation
from repro.topology.scenarios import testbed_topology as make_testbed_topology
from repro.topology.scenarios import uniform_snrs


def forget_kernel(monkeypatch, tmp_path):
    """Make the process one that has not tried the kernel yet and has no
    cached build."""
    monkeypatch.setattr(_kernel, "_kernel", None)
    monkeypatch.setattr(_kernel, "_kernel_tried", False)
    monkeypatch.setattr(
        _kernel, "_cache_path", lambda: str(tmp_path / "greedy.so")
    )
    monkeypatch.delenv("REPRO_DISABLE_KERNEL", raising=False)


@pytest.fixture
def unbuilt_kernel(monkeypatch, tmp_path):
    forget_kernel(monkeypatch, tmp_path)
    return tmp_path


def test_missing_compiler_warns_once(unbuilt_kernel, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent")
    with pytest.warns(RuntimeWarning, match="'/nonexistent'") as caught:
        assert _kernel.kernel() is None
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kernel.kernel() is None


@pytest.mark.skipif(sys.platform == "win32", reason="needs a shell script")
def test_compiler_error_output_is_quoted(unbuilt_kernel, monkeypatch):
    compiler = unbuilt_kernel / "failing-cc"
    compiler.write_text(
        "#!/bin/sh\necho 'greedy.c:1:1: error: no luck today' >&2\nexit 1\n"
    )
    os.chmod(compiler, 0o755)
    monkeypatch.setenv("CC", str(compiler))
    with pytest.warns(RuntimeWarning, match="status 1: .*error: no luck today"):
        assert _kernel.kernel() is None


def test_disabled_kernel_stays_silent(unbuilt_kernel, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent")
    monkeypatch.setenv("REPRO_DISABLE_KERNEL", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kernel.kernel() is None


def run_cell():
    """A short MU-MIMO PF cell: greedy_fill schedules it, and its channel
    bank refills three fading blocks."""
    topology = make_testbed_topology(6, hts_per_ue=2, seed=2)
    simulation = CellSimulation(
        topology=topology,
        mean_snr_db=uniform_snrs(topology.num_ues, seed=2),
        scheduler=ProportionalFairScheduler(),
        config=SimulationConfig(num_subframes=300, num_rbs=8, num_antennas=2),
        seed=5,
    )
    return simulation.run()


def test_cell_run_falls_back_to_equal_results(monkeypatch, tmp_path):
    compiled = run_cell()
    forget_kernel(monkeypatch, tmp_path)
    monkeypatch.setenv("CC", "/nonexistent")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = run_cell()
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1, [str(w.message) for w in runtime]
    assert "fading_block" in str(runtime[0].message)
    assert fallback == compiled


def run_adaptive_cell():
    """A shortened ``specs/dynamics_hidden_node.json`` blu-adaptive cell:
    a hidden node arrives mid-run, the drift monitor flags it and the
    controller re-measures and re-infers.  Returns the cell result and
    the controller."""
    spec = json.loads(
        (Path(__file__).resolve().parents[2] / "specs"
         / "dynamics_hidden_node.json").read_text()
    )
    spec["sim"]["num_subframes"] = 4000
    spec["timeline"]["params"]["arrive_at"] = 1500
    spec["schedulers"] = {"blu-adaptive": spec["schedulers"]["blu-adaptive"]}
    simulation = build_experiment(
        ExperimentSpec.from_dict(spec)
    ).simulation("blu-adaptive")
    return simulation.run(), simulation.scheduler


def feedback_state(controller):
    """The estimator's and the drift monitor's arrays, as bytes."""
    estimator, monitor = controller.estimator, controller.monitor
    arrays = (
        estimator.n, estimator.clear, estimator.n_pair, estimator.clear_pair,
        monitor.ue_count, monitor.ue_state, monitor.pair_count,
        monitor.pair_state,
    )
    return [np.ascontiguousarray(array).tobytes() for array in arrays]


def test_adaptive_cell_falls_back_to_equal_results(monkeypatch, tmp_path):
    """Access feedback runs its Python loop after a failed build: the
    drift detection, re-measurement and every count come out the same."""
    compiled, compiled_controller = run_adaptive_cell()
    assert compiled_controller.metrics.detections >= 1
    if _kernel.kernel_available():
        assert compiled_controller.estimator._compiled is not None
    forget_kernel(monkeypatch, tmp_path)
    monkeypatch.setenv("CC", "/nonexistent")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback, fallback_controller = run_adaptive_cell()
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1, [str(w.message) for w in runtime]
    assert "access_feedback" in str(runtime[0].message)
    assert fallback_controller.estimator._compiled is None
    assert fallback == compiled
    assert fallback_controller.metrics == compiled_controller.metrics
    assert feedback_state(fallback_controller) == feedback_state(
        compiled_controller
    )
