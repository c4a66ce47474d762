"""Checkpoint/resume: atomic cells, manifest guard, resume-equals-fresh."""

import json

import pytest

from repro import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    SimulationConfig,
)
from repro.errors import CheckpointError
from repro.experiments import (
    resume_checkpoint,
    run_experiment_grid,
    run_experiment_sweep,
)
from repro.resilience import CheckpointStore
from repro.sim.results import SimulationResult


def small_spec(name="ckpt", subframes=400):
    return ExperimentSpec(
        name=name,
        scenario=ScenarioSpec(
            kind="testbed",
            params={"num_ues": 4, "hts_per_ue": 1, "activity": 0.35, "seed": 3},
            snr={"kind": "uniform", "seed": 4},
        ),
        sim=SimulationConfig(num_subframes=subframes),
        schedulers={"pf": SchedulerSpec("pf"), "blu": SchedulerSpec("blu")},
        seed=0,
    )


class TestStore:
    def test_result_state_round_trip(self):
        result = SimulationResult(
            scheduler_name="pf",
            num_subframes=10,
            ul_subframes=8,
            delivered_bits_by_ue={0: 123.5, 3: 0.1 + 0.2},
            grants_issued=40,
            utilization_series=[0.5, 0.75],
        )
        assert SimulationResult.from_state(
            json.loads(json.dumps(result.to_state()))
        ) == result

    def test_save_load_cell(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize({"kind": "grid", "cells": [["pf", 0]]})
        result = SimulationResult(scheduler_name="pf", num_subframes=5)
        store.save_cell(0, ["pf", 0], result)
        assert store.completed() == {0}
        assert store.load_cell(0) == result
        assert store.load_cell(1) is None

    def test_manifest_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize({"kind": "grid", "cells": [["pf", 0]]})
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointStore(tmp_path / "run").initialize(
                {"kind": "grid", "cells": [["pf", 1]]}
            )

    def test_corrupt_cell_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize({"kind": "grid", "cells": []})
        store.cell_path(0).write_text("{ not json")
        with pytest.raises(CheckpointError):
            store.load_cell(0)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path / "nowhere").load_manifest()

    def test_missing_manifest_message_is_actionable(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            CheckpointStore(tmp_path / "nowhere").load_manifest()
        with pytest.raises(CheckpointError, match="--checkpoint-dir"):
            CheckpointStore(tmp_path / "nowhere").load_manifest()

    def test_garbage_manifest_names_path(self, tmp_path):
        directory = tmp_path / "run"
        directory.mkdir()
        (directory / "manifest.json").write_text("{ torn")
        with pytest.raises(CheckpointError, match="manifest.json"):
            CheckpointStore(directory).load_manifest()


class TestIntegrity:
    def test_records_carry_sha256_digest(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize({"kind": "grid", "cells": [["pf", 0]]})
        store.save_cell(
            0, ["pf", 0], SimulationResult(scheduler_name="pf", num_subframes=5)
        )
        record = json.loads(store.cell_path(0).read_text())
        assert len(record["sha256"]) == 64

    def test_silent_tamper_detected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize({"kind": "grid", "cells": [["pf", 0]]})
        store.save_cell(
            0, ["pf", 0], SimulationResult(scheduler_name="pf", num_subframes=5)
        )
        record = json.loads(store.cell_path(0).read_text())
        record["result"]["num_subframes"] = 6  # still valid JSON
        store.cell_path(0).write_text(json.dumps(record))
        with pytest.raises(CheckpointError, match="sha256"):
            store.load_cell(0)

    def test_misfiled_index_detected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize({"kind": "grid", "cells": [["pf", 0], ["pf", 1]]})
        store.save_cell(
            0, ["pf", 0], SimulationResult(scheduler_name="pf", num_subframes=5)
        )
        store.cell_path(1).write_text(store.cell_path(0).read_text())
        with pytest.raises(CheckpointError, match="claims index"):
            store.load_cell(1)

    def test_pre_digest_records_still_load(self, tmp_path):
        # Version-1 cells have no sha256 field; they load without the check.
        store = CheckpointStore(tmp_path / "run")
        store.initialize({"kind": "grid", "cells": [["pf", 0]]})
        result = SimulationResult(scheduler_name="pf", num_subframes=5)
        record = {"index": 0, "label": ["pf", 0], "result": result.to_state()}
        store.cell_path(0).write_text(json.dumps(record))
        assert store.load_cell(0) == result

    def test_version1_manifest_still_resumable(self, tmp_path):
        directory = tmp_path / "run"
        directory.mkdir()
        payload = {"kind": "grid", "cells": [["pf", 0]]}  # no version field
        (directory / "manifest.json").write_text(json.dumps(payload))
        store = CheckpointStore(directory)
        assert store.load_manifest()["kind"] == "grid"
        # Re-initializing under version-2 code accepts the v1 manifest.
        store.initialize(payload)

    def test_manifest_written_as_version2(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize({"kind": "grid", "cells": []})
        data = json.loads(store.manifest_path.read_text())
        assert data["version"] == 2

    def test_unsupported_version_rejected(self, tmp_path):
        directory = tmp_path / "run"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"version": 99, "kind": "grid"})
        )
        with pytest.raises(CheckpointError, match="unsupported version"):
            CheckpointStore(directory).load_manifest()


class TestQuarantine:
    def _store_with_corrupt_cell(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize({"kind": "grid", "cells": [["pf", 0]]})
        store.cell_path(0).write_text("{ torn mid-write")
        return store

    def test_corrupt_cell_quarantined_not_fatal(self, tmp_path):
        store = self._store_with_corrupt_cell(tmp_path)
        assert store.load_cell_or_quarantine(0) is None
        assert not store.cell_path(0).exists()
        assert len(store.quarantined_files()) == 1
        assert store.quarantined[0].index == 0
        assert "quarantined and recomputed" in store.quarantined[0].note()

    def test_absent_cell_is_not_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize({"kind": "grid", "cells": [["pf", 0]]})
        assert store.load_cell_or_quarantine(0) is None
        assert store.quarantined == []

    def test_quarantine_names_do_not_collide(self, tmp_path):
        store = self._store_with_corrupt_cell(tmp_path)
        store.load_cell_or_quarantine(0)
        store.cell_path(0).write_text("{ torn again")
        store.load_payload_or_quarantine(0)
        assert len(store.quarantined_files()) == 2

    def test_grid_resume_heals_corrupt_cell(self, tmp_path):
        spec = small_spec()
        fresh = run_experiment_grid(spec, [0, 1])
        directory = tmp_path / "ck"
        run_experiment_grid(spec, [0, 1], checkpoint_dir=directory)
        store = CheckpointStore(directory)
        store.cell_path(2).write_text("{ bit rot")
        kind, triples = resume_checkpoint(directory)
        assert kind == "grid"
        assert triples == fresh
        healed = CheckpointStore(directory)
        assert healed.load_cell(2) is not None
        assert len(healed.quarantined_files()) == 1


class TestGridCheckpointing:
    def test_checkpointed_equals_plain(self, tmp_path):
        spec = small_spec()
        plain = run_experiment_grid(spec, [0, 1])
        checkpointed = run_experiment_grid(
            spec, [0, 1], checkpoint_dir=tmp_path / "ck"
        )
        assert checkpointed == plain

    def test_rerun_loads_from_disk(self, tmp_path, monkeypatch):
        spec = small_spec()
        first = run_experiment_grid(spec, [0], checkpoint_dir=tmp_path / "ck")
        store = CheckpointStore(tmp_path / "ck")
        assert store.completed() == {0, 1}

        # A complete checkpoint must never recompute: poison the worker.
        def boom(item):
            raise AssertionError("cell recomputed despite checkpoint")

        import repro.experiments.build as build

        monkeypatch.setattr(build, "_run_spec_item", boom)
        again = run_experiment_grid(spec, [0], checkpoint_dir=tmp_path / "ck")
        assert again == first

    def test_interrupted_resume_equals_fresh(self, tmp_path):
        spec = small_spec()
        fresh = run_experiment_grid(spec, [0, 1])
        directory = tmp_path / "ck"
        run_experiment_grid(spec, [0, 1], checkpoint_dir=directory)
        # Simulate a crash that lost two of the four cells.
        store = CheckpointStore(directory)
        store.cell_path(1).unlink()
        store.cell_path(3).unlink()
        assert store.completed() == {0, 2}
        kind, triples = resume_checkpoint(directory)
        assert kind == "grid"
        assert triples == fresh
        assert store.completed() == {0, 1, 2, 3}

    def test_manifest_with_retired_fast_path_resumes(self, tmp_path):
        # Stores written while specs carried "fast_path": true resume
        # without a manifest mismatch, bit-identically.
        spec = small_spec()
        fresh = run_experiment_grid(spec, [0, 1])
        directory = tmp_path / "ck"
        run_experiment_grid(spec, [0, 1], checkpoint_dir=directory)
        store = CheckpointStore(directory)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["spec"]["fast_path"] = True
        store.manifest_path.write_text(json.dumps(manifest))
        store.cell_path(1).unlink()
        kind, triples = resume_checkpoint(directory)
        assert kind == "grid"
        assert triples == fresh

    def test_resume_unknown_kind(self, tmp_path):
        directory = tmp_path / "ck"
        store = CheckpointStore(directory)
        store.initialize({"kind": "mystery"})
        with pytest.raises(CheckpointError, match="unknown kind"):
            resume_checkpoint(directory)


class TestSweepCheckpointing:
    def test_sweep_resume_equals_fresh(self, tmp_path):
        specs = [small_spec(name=f"p{i}", subframes=300 + 100 * i)
                 for i in range(2)]
        fresh = run_experiment_sweep(specs, parameters=[300, 400])
        directory = tmp_path / "ck"
        run_experiment_sweep(
            specs, parameters=[300, 400], checkpoint_dir=directory
        )
        store = CheckpointStore(directory)
        store.cell_path(2).unlink()
        kind, points = resume_checkpoint(directory)
        assert kind == "sweep"
        assert [point.parameter for point in points] == [300, 400]
        for fresh_point, resumed_point in zip(fresh, points):
            assert fresh_point.results == resumed_point.results

    def test_unserializable_parameters_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="JSON-serializable"):
            run_experiment_sweep(
                [small_spec()],
                parameters=[object()],
                checkpoint_dir=tmp_path / "ck",
            )
