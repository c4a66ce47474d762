"""Edge cases of experiment fan-out: ``supervised_map`` and the spec entry
points run with ``n_jobs > 1``.

The parallel contract: every work item carries its own seed, so worker
count can never change a result, and results come back in input order.
"""

import pytest

from repro.experiments import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    run_experiment,
    run_experiment_replications,
)
from repro.resilience import supervised_map
from repro.sim.config import SimulationConfig


def _square(x: int) -> int:
    return x * x


class TestMapJobs:
    def test_serial_and_parallel_agree(self):
        items = list(range(8))
        serial = supervised_map(_square, items, n_jobs=1, fail_fast=True)
        parallel = supervised_map(_square, items, n_jobs=4, fail_fast=True)
        assert serial.results == parallel.results == [x * x for x in items]

    def test_order_preserved(self):
        assert supervised_map(_square, [3, 1, 2], n_jobs=2).results == [9, 1, 4]

    def test_empty_items(self):
        assert supervised_map(_square, [], n_jobs=4).results == []


def cell_spec(num_subframes, schedulers):
    """A 4-UE testbed cell with 40% hidden-terminal activity."""
    return ExperimentSpec(
        name="edges",
        scenario=ScenarioSpec(
            kind="testbed",
            params={"num_ues": 4, "hts_per_ue": 1, "activity": 0.4, "seed": 3},
            snr={"kind": "uniform", "seed": 2},
        ),
        sim=SimulationConfig(num_subframes=num_subframes),
        schedulers={name: SchedulerSpec(name) for name in schedulers},
        seed=5,
    )


class TestRunnerParallelEquivalence:
    def test_comparison_parallel_matches_serial(self):
        spec = cell_spec(150, ("pf", "oracle"))
        serial = run_experiment(spec, n_jobs=1)
        parallel = run_experiment(spec, n_jobs=2)
        for name in ("pf", "oracle"):
            assert (
                serial[name].delivered_bits_by_ue
                == parallel[name].delivered_bits_by_ue
            )

    def test_replications_parallel_matches_serial(self):
        spec = cell_spec(100, ("pf",))
        kwargs = dict(seeds=(0, 1, 2), metrics=("throughput_mbps",))
        serial = run_experiment_replications(spec, n_jobs=1, **kwargs)
        parallel = run_experiment_replications(spec, n_jobs=2, **kwargs)
        assert serial["pf"]["throughput_mbps"].mean == pytest.approx(
            parallel["pf"]["throughput_mbps"].mean
        )
        assert serial["pf"]["throughput_mbps"].std == pytest.approx(
            parallel["pf"]["throughput_mbps"].std
        )
