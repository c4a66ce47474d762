"""A kernel-library build failure is reported once, not swallowed, and
the pure paths that take over give the same results."""

import os
import sys
import warnings

import pytest

from repro.core.scheduling import _kernel
from repro.core.scheduling.pf import ProportionalFairScheduler
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
