"""Behavioral tests for the registry and plan layer.

Covers the seams the examples and CLI lean on: scheduler-instance capture
on serial runs, spec-level parallelism matching serial bit-for-bit,
timeline-derived oracle stages, and the registered kind inventories.
"""

import pytest

from repro.dynamics.adapt import AdaptiveBLUController
from repro.errors import ConfigurationError, SpecError
from repro.experiments import (
    BuildContext,
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    TimelineSpec,
    build_experiment,
    build_scheduler,
    build_snrs,
    build_topology,
    resume_checkpoint,
    run_experiment_grid,
    run_experiment_replications,
    run_experiment_sweep,
    scenario_kinds,
    scheduler_kinds,
    timeline_blueprint_stages,
    timeline_kinds,
)
from repro.sim.config import SimulationConfig
from repro.topology.scenarios import (
    hidden_node_churn_timeline,
    testbed_topology as make_testbed_topology,
)


def spec_with(schedulers, *, timeline=None, subframes=200, **overrides):
    base = dict(
        name="plan-test",
        scenario=ScenarioSpec(
            kind="testbed",
            params={"num_ues": 4, "hts_per_ue": 1, "activity": 0.4, "seed": 3},
            snr={"kind": "uniform", "seed": 2},
        ),
        sim=SimulationConfig(num_subframes=subframes),
        schedulers=schedulers,
        timeline=timeline,
        seed=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRegistries:
    def test_kind_inventories(self):
        assert {"testbed", "fig1", "skewed", "generated", "explicit"} <= set(
            scenario_kinds()
        )
        assert {
            "pf",
            "oracle",
            "access-aware",
            "speculative",
            "blu",
            "blu-adaptive",
            "blu-restart",
            "staged-oracle",
        } <= set(scheduler_kinds())
        assert {"hidden-node-churn", "duty-cycle-drift", "client-churn"} <= set(
            timeline_kinds()
        )

    def test_explicit_scenario_matches_literal_topology(self):
        topology = build_topology(
            ScenarioSpec(
                kind="explicit",
                params={
                    "num_ues": 3,
                    "terminals": [[0.5, [0, 1]], [0.2, [2]]],
                },
            )
        )
        assert topology.num_ues == 3
        assert list(topology.q) == [0.5, 0.2]
        assert [sorted(edge) for edge in topology.edges] == [[0, 1], [2]]

    def test_fixed_and_explicit_snrs(self):
        scenario = ScenarioSpec(
            kind="explicit",
            params={"num_ues": 2, "terminals": []},
            snr={"kind": "fixed", "snr_db": 17.5},
        )
        assert build_snrs(scenario, 2) == {0: 17.5, 1: 17.5}
        scenario = ScenarioSpec(
            kind="explicit",
            params={"num_ues": 2, "terminals": []},
            snr={"kind": "explicit", "by_ue": {"0": 30.0, "1": 10.0}},
        )
        assert build_snrs(scenario, 2) == {0: 30.0, 1: 10.0}

    def test_staged_oracle_builder_consumes_context_timeline(self):
        topology = make_testbed_topology(4, hts_per_ue=1, activity=0.4, seed=3)
        timeline = hidden_node_churn_timeline(arrive_at=50, q=0.6, ues=(0, 1))
        ctx = BuildContext(
            num_ues=4,
            topology=topology,
            mean_snr_db={u: 20.0 for u in range(4)},
            timeline=timeline,
        )
        staged = build_scheduler(SchedulerSpec("staged-oracle"), ctx)
        # One stage for the base blueprint, one for the arrival.
        assert [start for start, _ in staged._stages] == [0, 50]


class TestExperimentPlan:
    def test_serial_run_captures_scheduler_instances(self):
        spec = spec_with(
            {
                "blu-adaptive": SchedulerSpec(
                    "blu-adaptive",
                    {"blu": {"inference": {"seed": 0}}},
                ),
            },
            subframes=150,
        )
        plan = build_experiment(spec)
        plan.run(n_jobs=1)
        captured = plan.schedulers["blu-adaptive"]
        assert isinstance(captured, AdaptiveBLUController)
        # Post-run controller state is readable (the dynamics CLI's seam).
        assert captured.metrics.full_measurement_subframes > 0

    def test_parallel_run_matches_serial(self):
        spec = spec_with(
            {"pf": SchedulerSpec("pf"), "blu": SchedulerSpec("speculative")},
        )
        serial = build_experiment(spec).run(n_jobs=1)
        parallel = build_experiment(spec).run(n_jobs=2)
        assert serial.keys() == parallel.keys()
        for name in serial:
            assert (
                serial[name].delivered_bits_by_ue
                == parallel[name].delivered_bits_by_ue
            )

    def test_parallel_run_emits_no_pickle_warning(self):
        # Spec-dict work items always pickle, so a parallel run is silent.
        import warnings

        spec = spec_with(
            {"pf": SchedulerSpec("pf"), "oracle": SchedulerSpec("oracle")},
            subframes=100,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            build_experiment(spec).run(n_jobs=2)

    def test_unknown_scheduler_name_rejected(self):
        plan = build_experiment(spec_with({"pf": SchedulerSpec("pf")}))
        with pytest.raises(SpecError, match="nope"):
            plan.build_scheduler("nope")

    def test_simulation_seed_override(self):
        plan = build_experiment(spec_with({"pf": SchedulerSpec("pf")}))
        a = plan.simulation("pf", seed=1).run()
        b = plan.simulation("pf", seed=1).run()
        c = plan.simulation("pf", seed=2).run()
        assert a.delivered_bits_by_ue == b.delivered_bits_by_ue
        assert a.delivered_bits_by_ue != c.delivered_bits_by_ue


class TestNJobsValidation:
    """Every spec entry point rejects a bad ``n_jobs`` before running,
    whatever the scheduler count or checkpoint state."""

    @pytest.mark.parametrize("n_jobs", [0, -2])
    def test_one_scheduler_plan_rejects(self, n_jobs):
        plan = build_experiment(spec_with({"pf": SchedulerSpec("pf")}))
        with pytest.raises(ConfigurationError, match="n_jobs"):
            plan.run(n_jobs=n_jobs)
        assert not plan.schedulers

    @pytest.mark.parametrize("n_jobs", [0, -2])
    def test_batch_entry_points_reject(self, n_jobs):
        spec = spec_with({"pf": SchedulerSpec("pf")})
        calls = [
            lambda: run_experiment_grid(spec, [0], n_jobs=n_jobs),
            lambda: run_experiment_replications(spec, (0,), n_jobs=n_jobs),
            lambda: run_experiment_sweep([spec], n_jobs=n_jobs),
        ]
        for call in calls:
            with pytest.raises(ConfigurationError, match="n_jobs"):
                call()

    def test_fully_checkpointed_grid_rejects(self, tmp_path):
        spec = spec_with({"pf": SchedulerSpec("pf")}, subframes=60)
        run_experiment_grid(spec, [0], checkpoint_dir=tmp_path)
        with pytest.raises(ConfigurationError, match="n_jobs"):
            run_experiment_grid(spec, [0], n_jobs=0, checkpoint_dir=tmp_path)
        with pytest.raises(ConfigurationError, match="n_jobs"):
            resume_checkpoint(tmp_path, n_jobs=0)


class TestTimelineStages:
    def test_staged_oracle_stages_match_manual_churn(self):
        topology = make_testbed_topology(4, hts_per_ue=1, activity=0.4, seed=3)
        timeline = hidden_node_churn_timeline(
            arrive_at=100, q=0.6, ues=(0, 1), depart_at=300
        )
        stages = timeline_blueprint_stages(topology, timeline)
        assert [at for at, _ in stages] == [0, 100, 300]
        assert stages[0][1] is topology
        arrived = stages[1][1]
        assert arrived.num_terminals == topology.num_terminals + 1
        departed = stages[2][1]
        assert departed.num_terminals == topology.num_terminals

    def test_staged_oracle_runs_from_spec(self):
        spec = spec_with(
            {"oracle": SchedulerSpec("staged-oracle")},
            timeline=TimelineSpec(
                kind="hidden-node-churn",
                params={"arrive_at": 60, "q": 0.6, "ues": [0, 1]},
            ),
            subframes=150,
        )
        results = build_experiment(spec).run()
        assert results["oracle"].total_delivered_bits > 0


class TestAggregates:
    def test_replications_aggregate_and_match_parallel(self):
        spec = spec_with({"pf": SchedulerSpec("pf")}, subframes=100)
        serial = run_experiment_replications(
            spec, seeds=(0, 1, 2), metrics=("throughput_mbps",), n_jobs=1
        )
        parallel = run_experiment_replications(
            spec, seeds=(0, 1, 2), metrics=("throughput_mbps",), n_jobs=2
        )
        metric_s = serial["pf"]["throughput_mbps"]
        metric_p = parallel["pf"]["throughput_mbps"]
        assert metric_s.samples == 3
        assert metric_s.mean == pytest.approx(metric_p.mean)
        assert metric_s.std == pytest.approx(metric_p.std)
        with pytest.raises(SpecError):
            run_experiment_replications(spec, seeds=())

    def test_sweep_pairs_parameters_with_specs(self):
        base = spec_with({"pf": SchedulerSpec("pf")}, subframes=100)
        specs = [base.replace(name=f"sweep-{n}") for n in (1, 2)]
        points = run_experiment_sweep(specs, parameters=("a", "b"))
        assert [p.parameter for p in points] == ["a", "b"]
        assert all("pf" in p.results for p in points)
        with pytest.raises(SpecError):
            run_experiment_sweep(specs, parameters=("a",))
