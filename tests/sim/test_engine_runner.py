"""Tests for the simulation engine and spec-driven experiment runs."""

import numpy as np
import pytest

from repro.core.scheduling.oracle import OracleScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    run_experiment,
    run_experiment_replications,
    run_experiment_sweep,
)
from repro.sim import CellSimulation, SimulationConfig, SimulationResult, gain_over
from repro.spectrum.activity import BernoulliActivity, ExclusiveGroupActivity
from repro.topology.graph import InterferenceTopology
from repro.topology.scenarios import uniform_snrs
from repro.topology.scenarios import testbed_topology as make_testbed_topology


def snrs(n, value=25.0):
    return {u: value for u in range(n)}


class TestCellSimulation:
    def test_subframe_accounting(self):
        topology = InterferenceTopology.build(2, [(0.3, [0])])
        config = SimulationConfig(num_subframes=400, num_rbs=4)
        simulation = CellSimulation(
            topology, snrs(2), ProportionalFairScheduler(), config, seed=0
        )
        result = simulation.run()
        assert result.num_subframes == 400
        assert (
            result.ul_subframes + result.dl_subframes + result.idle_subframes
            == 400
        )
        assert result.ul_subframes > 0

    def test_interference_free_cell_fully_utilized(self):
        topology = InterferenceTopology.build(2, [])
        config = SimulationConfig(num_subframes=400, num_rbs=4)
        simulation = CellSimulation(
            topology, snrs(2, 30.0), ProportionalFairScheduler(), config, seed=0
        )
        result = simulation.run()
        assert result.grants_blocked == 0
        assert result.rb_utilization > 0.9  # only rare fading outages

    def test_blocking_reduces_utilization(self):
        blocked = InterferenceTopology.build(2, [(0.5, [0]), (0.5, [1])])
        free = InterferenceTopology.build(2, [])
        config = SimulationConfig(num_subframes=600, num_rbs=4)
        result_blocked = CellSimulation(
            blocked, snrs(2), ProportionalFairScheduler(), config, seed=1
        ).run()
        result_free = CellSimulation(
            free, snrs(2), ProportionalFairScheduler(), config, seed=1
        ).run()
        assert result_blocked.rb_utilization < result_free.rb_utilization - 0.2
        assert result_blocked.grants_blocked > 0

    def test_enb_busy_creates_idle_subframes(self):
        topology = InterferenceTopology.build(2, [])
        config = SimulationConfig(
            num_subframes=500, num_rbs=2, enb_busy_probability=0.5
        )
        result = CellSimulation(
            topology, snrs(2), ProportionalFairScheduler(), config, seed=2
        ).run()
        assert result.idle_subframes > 50

    def test_snr_coverage_validated(self):
        topology = InterferenceTopology.build(3, [])
        with pytest.raises(ConfigurationError):
            CellSimulation(
                topology, snrs(2), ProportionalFairScheduler(),
                SimulationConfig(num_subframes=10),
            )

    def test_activity_model_size_validated(self):
        topology = InterferenceTopology.build(2, [(0.3, [0])])
        model = ExclusiveGroupActivity([0.3, 0.3], [])
        with pytest.raises(ConfigurationError):
            CellSimulation(
                topology, snrs(2), ProportionalFairScheduler(),
                SimulationConfig(num_subframes=10), activity_model=model,
            )

    def test_both_activity_arguments_rejected(self):
        topology = InterferenceTopology.build(2, [(0.3, [0])])
        with pytest.raises(ConfigurationError):
            CellSimulation(
                topology, snrs(2), ProportionalFairScheduler(),
                SimulationConfig(num_subframes=10),
                activity_processes=[BernoulliActivity(0.3)],
                activity_model=ExclusiveGroupActivity([0.3], []),
            )

    def test_oracle_never_blocked_or_collided(self):
        topology = make_testbed_topology(num_ues=4, hts_per_ue=2, activity=0.4, seed=1)
        config = SimulationConfig(num_subframes=600, num_rbs=4)
        result = CellSimulation(
            topology, snrs(4), OracleScheduler(), config, seed=3
        ).run()
        assert result.grants_blocked == 0
        assert result.grants_collided == 0

    def test_markov_activity_runs(self):
        topology = InterferenceTopology.build(2, [(0.3, [0])])
        config = SimulationConfig(
            num_subframes=300, num_rbs=2, activity_kind="markov"
        )
        result = CellSimulation(
            topology, snrs(2), ProportionalFairScheduler(), config, seed=4
        ).run()
        assert result.ul_subframes > 0

    def test_record_series(self):
        topology = InterferenceTopology.build(2, [(0.3, [0])])
        config = SimulationConfig(num_subframes=300, num_rbs=2)
        result = CellSimulation(
            topology, snrs(2), ProportionalFairScheduler(), config,
            seed=5, record_series=True,
        ).run()
        assert len(result.utilization_series) == result.ul_subframes
        assert all(0.0 <= u <= 1.0 for u in result.utilization_series)

    def test_seed_reproducibility(self):
        topology = make_testbed_topology(num_ues=4, hts_per_ue=1, seed=1)
        config = SimulationConfig(num_subframes=400, num_rbs=4)
        a = CellSimulation(
            topology, snrs(4), ProportionalFairScheduler(), config, seed=9
        ).run()
        b = CellSimulation(
            topology, snrs(4), ProportionalFairScheduler(), config, seed=9
        ).run()
        assert a.total_delivered_bits == pytest.approx(b.total_delivered_bits)
        assert a.grants_blocked == b.grants_blocked


def cell_spec(hts_per_ue=1, num_subframes=300, schedulers=("pf",)):
    """A 4-UE testbed cell at 25 dB, the spec-path twin of ``snrs(4)``."""
    return ExperimentSpec(
        name="runner",
        scenario=ScenarioSpec(
            kind="testbed",
            params={"num_ues": 4, "hts_per_ue": hts_per_ue, "seed": 1},
            snr={"kind": "fixed", "snr_db": 25.0},
        ),
        sim=SimulationConfig(num_subframes=num_subframes, num_rbs=4),
        schedulers={name: SchedulerSpec(name) for name in schedulers},
        seed=0,
    )


class TestRunner:
    def test_comparison_runs_all(self):
        results = run_experiment(cell_spec(schedulers=("pf", "oracle")))
        assert set(results) == {"pf", "oracle"}

    def test_empty_factories_rejected(self):
        with pytest.raises(ConfigurationError, match="scheduler"):
            cell_spec(num_subframes=10).replace(schedulers={})

    def test_oracle_dominates_pf(self):
        topology = make_testbed_topology(num_ues=4, hts_per_ue=2, activity=0.4, seed=1)
        config = SimulationConfig(num_subframes=800, num_rbs=4)
        results = {
            name: CellSimulation(topology, snrs(4), make(), config, seed=0).run()
            for name, make in (
                ("pf", ProportionalFairScheduler), ("oracle", OracleScheduler)
            )
        }
        assert gain_over(results, "oracle", "pf") > 1.0

    def test_gain_over_handles_zero_baseline(self):
        topology = InterferenceTopology.build(2, [])
        results = {
            "pf": CellSimulation(
                topology, snrs(2), ProportionalFairScheduler(),
                SimulationConfig(num_subframes=100, num_rbs=2), seed=0,
            ).run(),
            "zero": SimulationResult(scheduler_name="zero"),
        }
        assert gain_over(results, "pf", "zero") == float("inf")

    def test_experiment_sweep(self):
        points = run_experiment_sweep(
            [cell_spec(hts_per_ue=0, num_subframes=200),
             cell_spec(hts_per_ue=1, num_subframes=200)],
            parameters=[0, 1],
        )
        assert [p.parameter for p in points] == [0, 1]
        assert all("pf" in p.results for p in points)


class TestReplications:
    def test_replicated_metrics_shape(self):
        report = run_experiment_replications(cell_spec(), seeds=(0, 1, 2))
        metric = report["pf"]["throughput_mbps"]
        assert metric.samples == 3
        assert metric.mean > 0
        assert metric.std >= 0

    def test_single_seed_zero_std(self):
        report = run_experiment_replications(
            cell_spec(num_subframes=200), seeds=(7,)
        )
        assert report["pf"]["rb_utilization"].std == 0.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment_replications(
                cell_spec(num_subframes=100), seeds=()
            )
