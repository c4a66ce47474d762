"""Seeded storage chaos: schedules, fault injection, and round verdicts."""

import json
from pathlib import Path

import pytest

from repro import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    SimulationConfig,
)
from repro.deploy import DeploymentSpec
from repro.errors import ChaosError
from repro.resilience import (
    STORAGE_FAULT_KINDS,
    CheckpointStore,
    SimulatedKill,
    StorageChaos,
    derive_schedule,
    run_chaos,
    use_storage_interceptor,
)
from repro.resilience.chaos import ChaosSchedule, write_verdict
from repro.resilience.storage import atomic_write_json

CHAOS_DEMO_SPEC = (
    Path(__file__).resolve().parents[2] / "specs" / "chaos_demo.json"
)


def grid_spec():
    return ExperimentSpec(
        name="chaos-grid",
        scenario=ScenarioSpec(
            kind="testbed",
            params={"num_ues": 4, "hts_per_ue": 1, "activity": 0.35, "seed": 3},
            snr={"kind": "uniform", "seed": 4},
        ),
        sim=SimulationConfig(num_subframes=300),
        schedulers={"pf": SchedulerSpec("pf")},
        seed=0,
    )


class TestSchedule:
    def test_deterministic_from_seed_and_round(self):
        a = derive_schedule(7, 3, 10)
        b = derive_schedule(7, 3, 10)
        assert a == b

    def test_varies_across_rounds(self):
        schedules = {derive_schedule(0, r, 10) for r in range(20)}
        assert len(schedules) > 1

    def test_kill_point_in_range(self):
        for r in range(50):
            schedule = derive_schedule(1, r, 5)
            if schedule.kill_after_writes is not None:
                assert 0 <= schedule.kill_after_writes < 5
            assert 0 <= schedule.fault_op < 5

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ChaosError, match="unknown storage fault kind"):
            ChaosSchedule(round_index=0, fault_kind="gamma-ray")

    def test_needs_items(self):
        with pytest.raises(ChaosError, match="at least one work item"):
            derive_schedule(0, 0, 0)


class TestStorageChaos:
    def _write(self, directory, index, payload):
        atomic_write_json(
            directory / f"cell-{index:05d}.json", payload, durable=False
        )

    def test_kill_before_write(self, tmp_path):
        chaos = StorageChaos(
            ChaosSchedule(round_index=0, kill_after_writes=1), tmp_path
        )
        with use_storage_interceptor(chaos):
            self._write(tmp_path, 0, {"i": 0})
            with pytest.raises(SimulatedKill):
                self._write(tmp_path, 1, {"i": 1})
        assert (tmp_path / "cell-00000.json").exists()
        assert not (tmp_path / "cell-00001.json").exists()

    def test_torn_write_leaves_prefix(self, tmp_path):
        chaos = StorageChaos(
            ChaosSchedule(round_index=0, fault_kind="torn-write", fault_op=0),
            tmp_path,
        )
        with use_storage_interceptor(chaos):
            self._write(tmp_path, 0, {"payload": "x" * 64})
        torn = (tmp_path / "cell-00000.json").read_text()
        with pytest.raises(json.JSONDecodeError):
            json.loads(torn)

    def test_fsync_loss_leaves_nothing(self, tmp_path):
        chaos = StorageChaos(
            ChaosSchedule(round_index=0, fault_kind="fsync-loss", fault_op=0),
            tmp_path,
        )
        with use_storage_interceptor(chaos):
            self._write(tmp_path, 0, {"i": 0})
        assert not (tmp_path / "cell-00000.json").exists()

    def test_bit_flip_changes_stored_bytes(self, tmp_path):
        clean = tmp_path / "clean"
        clean.mkdir()
        self._write(clean, 0, {"value": 12345})
        chaos = StorageChaos(
            ChaosSchedule(round_index=0, fault_kind="bit-flip", fault_op=0),
            tmp_path,
        )
        with use_storage_interceptor(chaos):
            self._write(tmp_path, 0, {"value": 12345})
        assert (
            (tmp_path / "cell-00000.json").read_bytes()
            != (clean / "cell-00000.json").read_bytes()
        )

    def test_disk_faults_raise_once(self, tmp_path):
        for kind in ("enospc", "eio"):
            directory = tmp_path / kind
            directory.mkdir()
            chaos = StorageChaos(
                ChaosSchedule(round_index=0, fault_kind=kind, fault_op=0),
                directory,
            )
            with use_storage_interceptor(chaos):
                with pytest.raises(OSError):
                    self._write(directory, 0, {"i": 0})
                # The fault fires exactly once; the retry lands.
                self._write(directory, 0, {"i": 0})
            assert (directory / "cell-00000.json").exists()

    def test_other_directories_untouched(self, tmp_path):
        target = tmp_path / "watched"
        target.mkdir()
        other = tmp_path / "other"
        other.mkdir()
        chaos = StorageChaos(
            ChaosSchedule(round_index=0, kill_after_writes=0), target
        )
        with use_storage_interceptor(chaos):
            self._write(other, 0, {"i": 0})  # different directory: no kill
            atomic_write_json(target / "manifest.json", {})  # not a cell
        assert (other / "cell-00000.json").exists()
        assert (target / "manifest.json").exists()


class TestRunChaos:
    def test_grid_rounds_pass_and_reproduce(self, tmp_path):
        spec = grid_spec()
        first = run_chaos(
            spec, rounds=4, seed=5, workdir=tmp_path / "a", seeds=(0, 1)
        )
        assert first.ok
        assert first.kind == "grid"
        assert first.num_items == 2
        second = run_chaos(
            spec, rounds=4, seed=5, workdir=tmp_path / "b", seeds=(0, 1)
        )
        assert first.to_dict() == second.to_dict()

    def test_deploy_rounds_with_quarantine(self, tmp_path):
        spec = DeploymentSpec.from_json(CHAOS_DEMO_SPEC.read_text())
        verdict = run_chaos(
            spec, rounds=8, seed=1, workdir=tmp_path / "wd"
        )
        assert verdict.ok
        assert verdict.kind == "deploy"
        # Seed 1 is known to include quarantine-exercising rounds on this
        # spec (torn writes / bit flips surviving to the resume).
        assert verdict.rounds_with_quarantine >= 1
        for round_ in verdict.rounds:
            assert round_.ok, round_.violations

    def test_quarantined_round_healed_on_disk(self, tmp_path):
        spec = DeploymentSpec.from_json(CHAOS_DEMO_SPEC.read_text())
        verdict = run_chaos(
            spec, rounds=8, seed=1, workdir=tmp_path / "wd"
        )
        struck = next(
            r for r in verdict.rounds if r.quarantined
        ).schedule.round_index
        store = CheckpointStore(tmp_path / "wd" / f"round-{struck:03d}")
        assert store.quarantined_files()
        # After recovery every promised cell is present and intact.
        manifest = store.load_manifest()
        for index in range(len(manifest["clusters"])):
            assert store.load_payload(index) is not None

    def test_verdict_report_round_trips(self, tmp_path):
        verdict = run_chaos(
            grid_spec(), rounds=2, seed=0, workdir=tmp_path / "wd",
            seeds=(0,),
        )
        path = write_verdict(verdict, tmp_path / "report.json")
        data = json.loads(path.read_text())
        assert data == verdict.to_dict()
        assert data["rounds_total"] == 2
        assert '"ts":' not in json.dumps(data)  # timestamp-free by design

    def test_rejects_zero_rounds(self, tmp_path):
        with pytest.raises(ChaosError, match="at least one round"):
            run_chaos(grid_spec(), rounds=0, seed=0, workdir=tmp_path)

    def test_fault_kinds_are_pinned(self):
        assert STORAGE_FAULT_KINDS == (
            "torn-write", "bit-flip", "fsync-loss", "enospc", "eio"
        )
