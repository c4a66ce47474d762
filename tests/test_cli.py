"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import ExperimentSpec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.ues == 8
        assert args.antennas == 1
        assert not args.with_oracle

    def test_overhead_arguments(self):
        args = build_parser().parse_args(
            ["overhead", "--ues", "12", "--k", "6", "--samples", "10"]
        )
        assert (args.ues, args.k, args.samples) == (12, 6, 10)

    N_JOBS_COMMANDS = [
        ["compare"],
        ["sweep"],
        ["run-spec", "spec.json"],
        ["deploy", "spec.json"],
        ["resume", "ckpt"],
    ]

    @pytest.mark.parametrize("command", N_JOBS_COMMANDS)
    def test_n_jobs_accepts_counts_and_all_cores(self, command):
        for value in (-1, 1, 3):
            args = build_parser().parse_args([*command, "--n-jobs", str(value)])
            assert args.n_jobs == value

    @pytest.mark.parametrize("command", N_JOBS_COMMANDS)
    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_bad_n_jobs_is_a_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exited:
            main([*command, "--n-jobs", value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "argument --n-jobs" in err

    SEEDS_COMMANDS = [["run-spec", "spec.json"], ["chaos", "spec.json"]]

    @pytest.mark.parametrize("command", SEEDS_COMMANDS)
    def test_seeds_parse_to_a_tuple(self, command):
        args = build_parser().parse_args([*command, "--seeds", "0, 3,"])
        assert args.seeds == (0, 3)

    def test_chaos_default_seeds(self):
        assert build_parser().parse_args(["chaos", "x.json"]).seeds == (0, 1)

    @pytest.mark.parametrize("command", SEEDS_COMMANDS)
    @pytest.mark.parametrize("value", ["a,b", ",", "1.5"])
    def test_bad_seeds_is_a_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exited:
            main([*command, "--seeds", value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "argument --seeds" in err


class TestCommands:
    def test_overhead_output(self, capsys):
        assert main(["overhead", "--ues", "12", "--k", "6", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "F_min" in out
        assert "Algorithm 1" in out

    def test_scenario_output(self, capsys):
        assert main(["scenario", "--ues", "6", "--wifi", "14", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "hidden terminals" in out

    def test_infer_output(self, capsys):
        code = main(
            ["infer", "--ues", "5", "--wifi", "12",
             "--trace-subframes", "1500", "--seed", "1"]
        )
        out = capsys.readouterr().out
        if code == 0:
            assert "edge-set accuracy" in out
        else:
            assert "no hidden terminals" in out

    def test_compare_output(self, capsys):
        assert (
            main(
                ["compare", "--ues", "4", "--hts-per-ue", "1",
                 "--subframes", "600", "--seed", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pf" in out
        assert "blu" in out
        assert "throughput_mbps" in out

    def test_compare_with_oracle(self, capsys):
        assert (
            main(
                ["compare", "--ues", "4", "--hts-per-ue", "1",
                 "--subframes", "400", "--seed", "2", "--with-oracle"]
            )
            == 0
        )
        assert "oracle" in capsys.readouterr().out


class TestTraceCommands:
    def test_trace_roundtrip(self, tmp_path, capsys):
        output = tmp_path / "demo"
        assert (
            main(
                ["trace", str(output), "--ues", "5", "--wifi", "12",
                 "--subframes", "400", "--seed", "3"]
            )
            == 0
        )
        assert "recorded 400 subframes" in capsys.readouterr().out
        assert main(["trace-info", str(output) + ".npz"]) == 0
        out = capsys.readouterr().out
        assert "hidden terminals" in out
        assert "400" in out

    def test_trace_no_contention(self, tmp_path, capsys):
        output = tmp_path / "plain"
        assert (
            main(
                ["trace", str(output), "--ues", "4", "--wifi", "10",
                 "--subframes", "200", "--seed", "1", "--no-contention"]
            )
            == 0
        )

    def test_dynamics_output(self, capsys):
        assert (
            main(
                ["dynamics", "--ues", "4", "--subframes", "3000",
                 "--arrive-at", "1200", "--affected", "2", "--seed", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hidden-node churn" in out
        assert "blu-adaptive" in out
        assert "post-change utilization" in out

    def test_dynamics_rejects_bad_affected(self, capsys):
        assert main(["dynamics", "--ues", "4", "--affected", "9"]) == 2

    def test_compare_markdown(self, capsys):
        assert (
            main(
                ["compare", "--ues", "4", "--hts-per-ue", "1",
                 "--subframes", "400", "--seed", "2", "--markdown"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("## ")
        assert "| scheduler |" in out


class TestSpecCommands:
    def test_compare_export_spec_round_trips(self, tmp_path, capsys):
        path = tmp_path / "compare.json"
        assert (
            main(
                ["compare", "--ues", "4", "--hts-per-ue", "1",
                 "--subframes", "400", "--seed", "2",
                 "--export-spec", str(path)]
            )
            == 0
        )
        spec = ExperimentSpec.from_json(path.read_text())
        assert spec.sim.num_subframes == 400
        assert "pf" in spec.scheduler_names and "blu" in spec.scheduler_names

    def test_run_spec_executes_exported_spec(self, tmp_path, capsys):
        path = tmp_path / "exported.json"
        main(
            ["compare", "--ues", "4", "--hts-per-ue", "1",
             "--subframes", "300", "--seed", "2", "--export-spec", str(path)]
        )
        capsys.readouterr()
        assert main(["run-spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pf" in out
        assert "throughput_mbps" in out

    def test_run_spec_missing_file(self, capsys):
        assert main(["run-spec", "/nonexistent/spec.json"]) == 2

    def test_run_spec_invalid_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad"}))
        assert main(["run-spec", str(path)]) == 1
        assert "spec" in capsys.readouterr().err.lower()

    def test_sweep_output(self, capsys):
        assert (
            main(
                ["sweep", "--param", "antennas", "--values", "1,2",
                 "--ues", "4", "--hts-per-ue", "1",
                 "--subframes", "300", "--seed", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "throughput_mbps vs antennas" in out
        assert "pf" in out and "blu" in out

    def test_validate_specs_accepts_committed_specs(self, tmp_path, capsys):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        main(
            ["compare", "--ues", "4", "--subframes", "200",
             "--export-spec", str(spec_dir / "one.json")]
        )
        capsys.readouterr()
        assert main(["validate-specs", str(spec_dir)]) == 0
        assert "1/1" in capsys.readouterr().out

    def test_validate_specs_flags_broken_spec(self, tmp_path, capsys):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        (spec_dir / "broken.json").write_text("{not json")
        assert main(["validate-specs", str(spec_dir)]) == 1

    def test_validate_specs_missing_directory(self, capsys):
        assert main(["validate-specs", "/nonexistent/specdir"]) == 2

    def test_validate_specs_accepts_deployment_spec(self, tmp_path, capsys):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        (spec_dir / "deploy.json").write_text(_deployment_spec().to_json())
        assert main(["validate-specs", str(spec_dir)]) == 0
        out = capsys.readouterr().out
        assert "1/1" in out
        assert "deployment/grid" in out
        assert "clusters" in out

    def test_dynamics_export_spec(self, tmp_path, capsys):
        path = tmp_path / "dynamics.json"
        assert (
            main(
                ["dynamics", "--ues", "4", "--subframes", "2000",
                 "--arrive-at", "800", "--affected", "2", "--seed", "1",
                 "--export-spec", str(path)]
            )
            == 0
        )
        spec = ExperimentSpec.from_json(path.read_text())
        assert spec.timeline is not None
        assert spec.timeline.kind == "hidden-node-churn"
        assert "blu-adaptive" in spec.scheduler_names


def _deployment_spec(**overrides):
    from repro.deploy import DeploymentSpec, PlacementSpec
    from repro.sim.config import SimulationConfig

    base = dict(
        name="cli-deploy",
        placement=PlacementSpec(
            "grid", {"rows": 1, "cols": 2, "spacing_m": 90.0}
        ),
        ues_per_cell=3,
        wifi_per_cell=1,
        sim=SimulationConfig(num_subframes=120),
        seed=0,
    )
    base.update(overrides)
    return DeploymentSpec(**base)


class TestDeployCommand:
    def test_deploy_defaults(self):
        args = build_parser().parse_args(["deploy", "spec.json"])
        assert args.n_jobs == 1
        assert args.checkpoint_dir is None
        assert not args.per_cell

    def test_deploy_output(self, tmp_path, capsys):
        path = tmp_path / "deploy.json"
        path.write_text(_deployment_spec().to_json())
        assert main(["deploy", str(path), "--per-cell"]) == 0
        out = capsys.readouterr().out
        assert "interference cluster" in out
        assert "Per-cell results" in out
        assert "Deployment report: cli-deploy" in out
        assert "cell fairness (Jain)" in out

    def test_deploy_missing_spec(self, capsys):
        assert main(["deploy", "/nonexistent/deploy.json"]) == 2

    def test_deploy_invalid_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["deploy", str(path)]) == 1
        assert "spec error" in capsys.readouterr().err

    def test_deploy_checkpoint_then_resume(self, tmp_path, capsys):
        path = tmp_path / "deploy.json"
        path.write_text(_deployment_spec().to_json())
        ckpt = tmp_path / "ckpt"
        assert main(["deploy", str(path), "--checkpoint-dir", str(ckpt)]) == 0
        first = capsys.readouterr().out
        assert main(["resume", str(ckpt)]) == 0
        resumed = capsys.readouterr().out
        assert "Deployment report: cli-deploy" in resumed
        # The resumed report reproduces the original run's numbers.
        assert first.strip().splitlines()[-5:] == (
            resumed.strip().splitlines()[-5:]
        )

    def test_deploy_obs_report(self, tmp_path, capsys):
        path = tmp_path / "deploy.json"
        path.write_text(_deployment_spec().to_json())
        obs_dir = tmp_path / "obs"
        assert main(
            ["deploy", str(path), "--obs", "--obs-dir", str(obs_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out
        assert main(["obs-report", str(obs_dir)]) == 0


class TestResumeErrors:
    def test_missing_directory_is_actionable(self, capsys):
        assert main(["resume", "/nonexistent/ckpt"]) == 2
        err = capsys.readouterr().err
        assert "no such checkpoint directory" in err
        assert "--checkpoint-dir" in err

    def test_empty_directory_is_actionable(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no manifest.json" in err
        assert "it is empty" in err

    def test_directory_without_manifest_lists_contents(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("hello")
        assert main(["resume", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no manifest.json" in err
        assert "notes.txt" in err

    def test_corrupt_manifest_reports_resume_error(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("{ torn")
        assert main(["resume", str(tmp_path)]) == 1
        assert "resume error" in capsys.readouterr().err

    def test_resume_surfaces_degraded_note(self, tmp_path, capsys):
        path = tmp_path / "deploy.json"
        path.write_text(_deployment_spec().to_json())
        ckpt = tmp_path / "ckpt"
        assert main(["deploy", str(path), "--checkpoint-dir", str(ckpt)]) == 0
        capsys.readouterr()
        from repro.resilience import CheckpointStore

        CheckpointStore(ckpt).cell_path(0).write_text("{ bit rot")
        assert main(["resume", str(ckpt)]) == 0
        assert "DEGRADED" in capsys.readouterr().err


class TestChaosCommand:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos", "spec.json"])
        assert args.rounds == 10
        assert args.seed == 0
        assert args.workdir is None
        assert args.report is None

    def test_chaos_missing_spec(self, capsys):
        assert main(["chaos", "/nonexistent/spec.json"]) == 2

    def test_chaos_bad_rounds(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(_deployment_spec().to_json())
        assert main(["chaos", str(path), "--rounds", "0"]) == 2

    def test_chaos_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{ torn")
        assert main(["chaos", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_chaos_clean_verdict_exits_0(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(_deployment_spec().to_json())
        report = tmp_path / "verdict.json"
        assert main(
            ["chaos", str(path), "--rounds", "3", "--seed", "0",
             "--workdir", str(tmp_path / "wd"), "--report", str(report)]
        ) == 0
        out = capsys.readouterr().out
        assert "3/3 rounds passed" in out
        data = json.loads(report.read_text())
        assert data["ok"] is True
        assert data["rounds_total"] == 3
        assert (tmp_path / "wd" / "reference").is_dir()

    def test_chaos_grid_spec(self, tmp_path, capsys):
        spec = ExperimentSpec.from_json(
            json.dumps(
                {
                    "name": "chaos-cli-grid",
                    "scenario": {
                        "kind": "testbed",
                        "params": {
                            "num_ues": 4, "hts_per_ue": 1,
                            "activity": 0.35, "seed": 3,
                        },
                        "snr": {"kind": "uniform", "seed": 4},
                    },
                    "sim": {"num_subframes": 200},
                    "schedulers": {"pf": {"kind": "pf"}},
                    "seed": 0,
                }
            )
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(
            ["chaos", str(path), "--rounds", "2", "--seeds", "0"]
        ) == 0
        assert "kind grid" in capsys.readouterr().out


def _grid_spec_path(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli-grid",
                "scenario": {
                    "kind": "testbed",
                    "params": {
                        "num_ues": 4, "hts_per_ue": 1,
                        "activity": 0.35, "seed": 3,
                    },
                    "snr": {"kind": "uniform", "seed": 4},
                },
                "sim": {"num_subframes": 200},
                "schedulers": {
                    "pf": {"kind": "pf"},
                    "aa": {"kind": "access-aware"},
                },
                "seed": 0,
            }
        )
    )
    return path


def _trace_processes(path):
    """Labels of the runs a merged trace file covers (its process names)."""
    from repro.obs import validate_trace_file

    assert validate_trace_file(path) == []
    events = [json.loads(line) for line in path.read_text().splitlines()]
    return [e["args"]["name"] for e in events if e["name"] == "process_name"]


class TestRunDirectory:
    """Every spec-running command writes its run directory the same way."""

    def test_grid_run_spec_writes_metrics_and_trace(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(
            ["run-spec", str(_grid_spec_path(tmp_path)), "--seeds", "0,1",
             "--obs-dir", str(out), "--trace-out", str(out / "trace.jsonl")]
        ) == 0
        assert "cli-grid telemetry" in capsys.readouterr().out
        assert (out / "metrics.json").is_file()
        assert (out / "metrics.prom").is_file()
        assert _trace_processes(out / "trace.jsonl") == [
            "pf/0", "aa/0", "pf/1", "aa/1",
        ]
        assert main(["obs-report", str(out)]) == 0
        assert "trace trace.jsonl: valid" in capsys.readouterr().out

    def test_grid_resume_writes_metrics(self, tmp_path, capsys):
        spec = str(_grid_spec_path(tmp_path))
        ckpt = tmp_path / "ckpt"
        fresh = tmp_path / "fresh"
        assert main(
            ["run-spec", spec, "--seeds", "0,1", "--obs",
             "--checkpoint-dir", str(ckpt), "--obs-dir", str(fresh)]
        ) == 0
        (ckpt / "cell-00001.json").unlink()
        resumed = tmp_path / "resumed"
        assert main(
            ["resume", str(ckpt), "--obs-dir", str(resumed), "--stream"]
        ) == 0
        assert "ckpt telemetry" in capsys.readouterr().out
        assert (resumed / "metrics.json").read_text() == (
            (fresh / "metrics.json").read_text()
        )

    def test_deploy_trace_out_covers_every_cell(self, tmp_path, capsys):
        path = tmp_path / "deploy.json"
        path.write_text(_deployment_spec().to_json())
        trace = tmp_path / "trace.jsonl"
        assert main(["deploy", str(path), "--trace-out", str(trace)]) == 0
        assert f"trace events to {trace}" in capsys.readouterr().out
        assert _trace_processes(trace) == ["cell-0", "cell-1"]

    def test_run_spec_names_deploy_for_a_deployment_spec(
        self, tmp_path, capsys
    ):
        path = tmp_path / "deploy.json"
        path.write_text(_deployment_spec().to_json())
        assert main(["run-spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert "spec error" in err
        assert "is a deployment spec; run it with `repro deploy`" in err

    def test_deploy_names_run_spec_for_an_experiment_spec(
        self, tmp_path, capsys
    ):
        assert main(["deploy", str(_grid_spec_path(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert "spec error" in err
        assert "is an experiment spec; run it with `repro run-spec`" in err

    def test_deploy_accepts_a_spec_without_the_kind_marker(
        self, tmp_path, capsys
    ):
        data = _deployment_spec().to_dict()
        del data["kind"]
        path = tmp_path / "deploy.json"
        path.write_text(json.dumps(data))
        assert main(["deploy", str(path)]) == 0
        assert "Deployment report" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["run-spec"], ["run-spec", "--seeds", "0"], ["deploy"]]
    )
    def test_bad_obs_flag_is_a_spec_error(self, argv, tmp_path, capsys):
        if argv[0] == "deploy":
            path = tmp_path / "deploy.json"
            path.write_text(_deployment_spec().to_json())
        else:
            path = _grid_spec_path(tmp_path)
        argv = [argv[0], str(path), *argv[1:], "--stream-window", "0"]
        assert main(argv) == 1
        assert "spec error: obs.stream_window" in capsys.readouterr().err
