"""Campaign runner: sharded == serial, checkpoints, faults, obs merge."""

import json

import pytest

from repro.deploy import DeploymentSpec, PlacementSpec, build_deployment, run_campaign
from repro.deploy.runner import resume_campaign
from repro.errors import CheckpointError, ConfigurationError
from repro.experiments import resume_checkpoint
from repro.experiments.spec import SchedulerSpec
from repro.obs.config import ObsConfig
from repro.resilience import SupervisorConfig
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import FaultPlan, WorkerCrashFault
from repro.sim.config import SimulationConfig


def campaign_spec(**overrides):
    # 10 PPP cells at subcritical density: several clusters, at least one
    # with more than one cell (the multi-cluster regression regime).
    base = dict(
        name="campaign",
        placement=PlacementSpec("ppp", {"num_cells": 10, "area_m": 900.0}),
        ues_per_cell=3,
        wifi_per_cell=2,
        sim=SimulationConfig(num_subframes=120),
        seed=3,
    )
    base.update(overrides)
    return DeploymentSpec(**base)


@pytest.fixture(scope="module")
def serial_campaign():
    return run_campaign(campaign_spec(), n_jobs=1)


class TestShardedBitExactness:
    def test_multi_cluster_regime(self, serial_campaign):
        deployment = serial_campaign.deployment
        assert deployment.num_clusters > 1
        assert max(len(c) for c in deployment.clusters) > 1

    def test_sharded_equals_serial(self, serial_campaign):
        sharded = run_campaign(campaign_spec(), n_jobs=4)
        assert sharded.complete and serial_campaign.complete
        for cell_id in range(serial_campaign.num_cells):
            assert (
                sharded.cell_results[cell_id]
                == serial_campaign.cell_results[cell_id]
            ), f"cell {cell_id} diverged under sharding"

    @pytest.mark.parametrize("n_jobs", [0, -2])
    def test_bad_n_jobs_rejected_before_running(self, n_jobs):
        with pytest.raises(ConfigurationError, match="n_jobs"):
            run_campaign(campaign_spec(), n_jobs=n_jobs)

    def test_fresh_scheduler_per_cell(self, serial_campaign):
        names = {
            result.scheduler_name
            for result in serial_campaign.cell_results.values()
        }
        assert names == {"pf"}


class TestCheckpointResume:
    def test_checkpointed_equals_plain(self, tmp_path, serial_campaign):
        checkpointed = run_campaign(
            campaign_spec(), n_jobs=1, checkpoint_dir=tmp_path / "ckpt"
        )
        assert checkpointed.cell_results == serial_campaign.cell_results

    def test_interrupted_resume_equals_fresh(self, tmp_path, serial_campaign):
        directory = tmp_path / "ckpt"
        full = run_campaign(
            campaign_spec(), n_jobs=1, checkpoint_dir=directory
        )
        # Simulate a mid-campaign kill: drop half the cluster files.
        store = CheckpointStore(directory)
        for index in sorted(store.completed())[::2]:
            store.cell_path(index).unlink()
        resumed = resume_campaign(directory, n_jobs=2)
        assert resumed.cell_results == full.cell_results
        assert resumed.cell_results == serial_campaign.cell_results

    def test_manifest_with_retired_fast_path_resumes(
        self, tmp_path, serial_campaign
    ):
        directory = tmp_path / "ckpt"
        run_campaign(campaign_spec(), n_jobs=1, checkpoint_dir=directory)
        store = CheckpointStore(directory)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["spec"]["fast_path"] = True
        store.manifest_path.write_text(json.dumps(manifest))
        for index in sorted(store.completed())[::2]:
            store.cell_path(index).unlink()
        resumed = resume_campaign(directory, n_jobs=1)
        assert resumed.cell_results == serial_campaign.cell_results

    def test_resume_checkpoint_dispatches_deploy(self, tmp_path):
        directory = tmp_path / "ckpt"
        run_campaign(campaign_spec(), n_jobs=1, checkpoint_dir=directory)
        kind, campaign = resume_checkpoint(directory)
        assert kind == "deploy"
        assert campaign.complete

    def test_foreign_manifest_rejected(self, tmp_path):
        directory = tmp_path / "ckpt"
        run_campaign(campaign_spec(), n_jobs=1, checkpoint_dir=directory)
        with pytest.raises(CheckpointError, match="different run"):
            run_campaign(
                campaign_spec(seed=4), n_jobs=1, checkpoint_dir=directory
            )

    def test_resume_requires_deploy_kind(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.initialize({"kind": "grid", "spec": {}, "seeds": [0], "cells": []})
        with pytest.raises(CheckpointError, match="deploy"):
            resume_campaign(tmp_path / "ckpt")


class TestBuildOnce:
    """The parent builds the deployment once per campaign; work items carry
    their cluster's cells, so nothing rebuilds it."""

    @staticmethod
    def count_builds(monkeypatch):
        import repro.deploy.runner as runner

        calls = []
        build = runner.build_deployment

        def counting(spec):
            calls.append(spec)
            return build(spec)

        monkeypatch.setattr(runner, "build_deployment", counting)
        return calls

    # Specs no other test runs, so no per-process cache could hide a build.
    def test_serial_campaign_builds_once(self, monkeypatch):
        calls = self.count_builds(monkeypatch)
        campaign = run_campaign(campaign_spec(seed=5), n_jobs=1)
        assert len(calls) == 1
        assert campaign.complete

    def test_resume_builds_once(self, tmp_path, monkeypatch):
        directory = tmp_path / "ckpt"
        full = run_campaign(
            campaign_spec(seed=6), n_jobs=1, checkpoint_dir=directory
        )
        store = CheckpointStore(directory)
        for index in sorted(store.completed())[::2]:
            store.cell_path(index).unlink()
        calls = self.count_builds(monkeypatch)
        resumed = resume_campaign(directory, n_jobs=1)
        assert len(calls) == 1
        assert resumed.cell_results == full.cell_results

    def test_work_items_carry_their_clusters_cells(self):
        import repro.deploy.runner as runner

        deployment = build_deployment(campaign_spec())
        for index, cluster in enumerate(deployment.clusters):
            spec, cells = runner._cluster_item(deployment, index)
            assert spec is deployment.spec
            assert [cell.cell_id for cell, _ in cells] == list(cluster)
            assert [seed for _, seed in cells] == [
                deployment.cell_sim_seeds[cell_id] for cell_id in cluster
            ]


class TestWorkerFaults:
    def test_crash_retry_is_bit_identical(self, serial_campaign):
        # Every cluster crashes on its first attempt; supervised retries
        # must converge to the exact fault-free results.
        deployment = build_deployment(campaign_spec())
        faults = FaultPlan(
            (
                WorkerCrashFault(
                    cells=tuple(range(deployment.num_clusters)), attempts=1
                ),
            )
        )
        faulted = run_campaign(
            campaign_spec(faults=faults),
            n_jobs=2,
            supervisor=SupervisorConfig(max_retries=2),
        )
        assert not faulted.failed_clusters
        # The faults field differs between the specs, but results must not.
        assert faulted.cell_results == serial_campaign.cell_results

    def test_permanent_failure_quarantines_cluster(self):
        faults = FaultPlan((WorkerCrashFault(cells=(0,), attempts=99),))
        campaign = run_campaign(
            campaign_spec(faults=faults),
            n_jobs=2,
            supervisor=SupervisorConfig(max_retries=1),
        )
        assert list(campaign.failed_clusters) == [0]
        assert not campaign.complete
        lost = set(campaign.deployment.clusters[0])
        assert set(campaign.cell_results) == (
            set(range(campaign.num_cells)) - lost
        )


class TestReportAndObs:
    def test_report_fields(self, serial_campaign):
        report = serial_campaign.report()
        assert report["num_cells"] == 10
        assert report["num_ues"] == 30
        assert report["num_clusters"] == serial_campaign.deployment.num_clusters
        assert 0.0 < report["cell_fairness"] <= 1.0
        assert 0.0 < report["ue_fairness"] <= 1.0
        assert report["aggregate_throughput_mbps"] > 0
        assert set(report["per_metric"]) == {
            "throughput_mbps", "rb_utilization",
        }

    def test_per_ue_throughput_uses_global_ids(self, serial_campaign):
        pooled = serial_campaign.per_ue_throughput_bps()
        assert set(pooled) == set(range(30))

    def test_obs_merge_independent_of_n_jobs(self):
        spec = campaign_spec(obs=ObsConfig(enabled=True))
        serial = run_campaign(spec, n_jobs=1)
        sharded = run_campaign(spec, n_jobs=4)
        a, b = serial.obs_snapshot(), sharded.obs_snapshot()
        assert a is not None and b is not None
        assert a.to_dict() == b.to_dict()

    def test_one_engine_per_cell_with_obs(self, monkeypatch):
        import repro.deploy.runner as runner

        hooks_seen = []

        class CountingSimulation(runner.CellSimulation):
            def __init__(self, *args, **kwargs):
                hooks_seen.append(kwargs.get("hooks"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner, "CellSimulation", CountingSimulation)
        spec = campaign_spec(obs=ObsConfig(enabled=True))
        campaign = run_campaign(spec, n_jobs=1)
        assert campaign.complete
        assert len(hooks_seen) == campaign.num_cells
        assert all(hooks is not None for hooks in hooks_seen)

    def test_no_obs_no_snapshot(self, serial_campaign):
        assert serial_campaign.obs_snapshot() is None


class TestSchedulerVariants:
    def test_blu_controller_per_cell(self):
        spec = campaign_spec(
            placement=PlacementSpec("ppp", {"num_cells": 4, "area_m": 600.0}),
            scheduler=SchedulerSpec(
                "blu", {"samples_per_pair": 10, "inference": {"seed": 0}}
            ),
            sim=SimulationConfig(num_subframes=150),
        )
        campaign = run_campaign(spec, n_jobs=2)
        assert campaign.complete
        assert {
            r.scheduler_name for r in campaign.cell_results.values()
        } == {"blu"}
