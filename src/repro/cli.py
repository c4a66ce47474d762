"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compare``       — run PF / AA / BLU / oracle on a synthetic cell and
                      print the comparison table.
* ``sweep``         — sweep one parameter (antennas, ues, activity,
                      subframes) and tabulate throughput per scheduler.
* ``dynamics``      — churn demo: a hidden WiFi node appears mid-run;
                      compare the adaptive controller against frozen /
                      full-restart BLU and the dynamics-aware oracle.
* ``run-spec``      — execute an ``ExperimentSpec`` JSON file (optionally
                      as a seed grid with checkpointing and supervised
                      retry/timeout execution).
* ``deploy``        — run a multi-cell deployment campaign
                      (``DeploymentSpec`` JSON) sharded by interference
                      cluster, and print the utilization/fairness report.
* ``resume``        — finish an interrupted checkpointed grid, sweep, or
                      deployment campaign from its manifest.
* ``chaos``         — adversarially exercise checkpoint/resume: N seeded
                      rounds of kill points × storage faults against a
                      spec, each round recovered and audited; nonzero
                      exit on any invariant violation.
* ``monitor``       — tail a campaign's ``--telemetry-dir`` and render
                      per-item progress, heartbeats, and ETA live.
* ``obs-report``    — summarize the telemetry a ``--obs-dir`` run wrote
                      and validate any trace files next to it.
* ``obs-export``    — render a run directory's ``metrics.json`` as
                      OpenMetrics text (Prometheus exposition format).
* ``validate-specs``— parse and build every spec in a directory.
* ``infer``         — generate a scenario, measure, infer the blueprint,
                      and report its accuracy against ground truth.
* ``scenario``      — draw a random enterprise scenario and describe it.
* ``overhead``      — print the measurement-overhead table for a cell size.
* ``trace``         — record a scenario's interference trace to ``.npz``.
* ``trace-info``    — summarize a recorded trace file.

Every simulation command builds its experiment through
:mod:`repro.experiments` — a declarative, JSON-round-trippable
:class:`~repro.experiments.ExperimentSpec` resolved against the
scenario/scheduler registries — so anything runnable here is exportable
to (and reproducible from) a ``specs/*.json`` file.

``compare``, ``dynamics``, and ``run-spec`` accept ``--obs`` /
``--obs-dir`` / ``--trace-out`` to collect :mod:`repro.obs` telemetry:
the merged metrics table is printed after the results, ``metrics.json``
(plus OpenMetrics ``metrics.prom``) lands in ``--obs-dir``, and
``--trace-out`` writes the combined event timeline (``.jsonl``, or
Chrome-viewer ``.json``).  ``--stream`` additionally records windowed
time series (``series.json``, summarized after the metrics table), and
``--telemetry-dir`` on campaign commands streams live progress events
for ``repro monitor``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro import (
    BlueprintInference,
    InferenceConfig,
    ScenarioConfig,
    edge_set_accuracy,
    generate_scenario,
    minimum_subframes,
)
from repro.analysis import comparison_report, format_comparison, format_table
from repro.core.measurement.pair_scheduler import (
    MeasurementScheduler,
    tuple_measurement_subframes,
)
from repro.errors import ObsError, SpecError
from repro.experiments import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    TimelineSpec,
    build_experiment,
    run_experiment_sweep,
)
from repro.sim.config import SimulationConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BLU (CoNEXT 2017) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="run a scheduler comparison")
    compare.add_argument("--ues", type=int, default=8)
    compare.add_argument("--hts-per-ue", type=int, default=2)
    compare.add_argument("--activity", type=float, default=0.4)
    compare.add_argument("--antennas", type=int, default=1)
    compare.add_argument("--subframes", type=int, default=4000)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--with-oracle", action="store_true", help="include the genie bound"
    )
    compare.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown report section instead of the ASCII table",
    )
    compare.add_argument(
        "--export-spec",
        metavar="PATH",
        help="also write the experiment spec as JSON to PATH",
    )
    compare.add_argument(
        "--n-jobs", type=_n_jobs_arg, default=1,
        help="worker processes for the comparison (-1 = all cores)",
    )
    _add_obs_args(compare)

    sweep = sub.add_parser(
        "sweep", help="sweep one parameter across a scheduler comparison"
    )
    sweep.add_argument(
        "--param",
        choices=("antennas", "ues", "activity", "subframes"),
        default="antennas",
    )
    sweep.add_argument(
        "--values",
        default="1,2,4",
        help="comma-separated values of the swept parameter",
    )
    sweep.add_argument("--ues", type=int, default=8)
    sweep.add_argument("--hts-per-ue", type=int, default=2)
    sweep.add_argument("--activity", type=float, default=0.4)
    sweep.add_argument("--antennas", type=int, default=1)
    sweep.add_argument("--subframes", type=int, default=2000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--with-oracle", action="store_true")
    sweep.add_argument("--n-jobs", type=_n_jobs_arg, default=1)

    dynamics = sub.add_parser(
        "dynamics", help="online adaptation demo under hidden-node churn"
    )
    dynamics.add_argument("--ues", type=int, default=6)
    dynamics.add_argument("--hts-per-ue", type=int, default=1)
    dynamics.add_argument("--activity", type=float, default=0.25)
    dynamics.add_argument("--subframes", type=int, default=16000)
    dynamics.add_argument(
        "--arrive-at", type=int, default=6000,
        help="subframe at which the new hidden node appears",
    )
    dynamics.add_argument(
        "--arrival-q", type=float, default=0.45,
        help="busy probability of the arriving node",
    )
    dynamics.add_argument(
        "--affected", type=int, default=2,
        help="how many clients the arriving node silences",
    )
    dynamics.add_argument("--seed", type=int, default=0)
    dynamics.add_argument(
        "--export-spec",
        metavar="PATH",
        help="also write the experiment spec as JSON to PATH",
    )
    _add_obs_args(dynamics)

    run_spec = sub.add_parser(
        "run-spec", help="execute an experiment spec JSON file"
    )
    run_spec.add_argument("spec", help="path to an ExperimentSpec .json")
    run_spec.add_argument("--n-jobs", type=_n_jobs_arg, default=1)
    run_spec.add_argument(
        "--baseline",
        default=None,
        help="scheduler name to normalize gains against (default: first)",
    )
    run_spec.add_argument(
        "--seeds",
        default=None,
        help=(
            "comma-separated seeds: run the (scheduler x seed) grid "
            "instead of a single comparison"
        ),
    )
    run_spec.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "persist one result file per completed grid cell into DIR; "
            "re-running skips completed cells (requires --seeds)"
        ),
    )
    _add_resilience_args(run_spec)
    _add_obs_args(run_spec)
    _add_telemetry_arg(run_spec)

    deploy = sub.add_parser(
        "deploy",
        help="run a multi-cell deployment campaign from a DeploymentSpec JSON",
    )
    deploy.add_argument("spec", help="path to a DeploymentSpec .json")
    deploy.add_argument(
        "--n-jobs", type=_n_jobs_arg, default=1,
        help="worker processes for cluster shards (-1 = all cores)",
    )
    deploy.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "persist one result file per completed interference cluster "
            "into DIR; re-running (or `repro resume DIR`) skips them"
        ),
    )
    deploy.add_argument(
        "--per-cell",
        action="store_true",
        help="also print the per-cell metric table",
    )
    _add_resilience_args(deploy)
    _add_obs_args(deploy)
    _add_telemetry_arg(deploy)

    resume = sub.add_parser(
        "resume",
        help="finish an interrupted checkpointed grid/sweep/deployment "
        "from its manifest",
    )
    resume.add_argument(
        "checkpoint_dir", help="directory written by a --checkpoint-dir run"
    )
    resume.add_argument("--n-jobs", type=_n_jobs_arg, default=1)
    _add_resilience_args(resume)
    _add_obs_args(resume)
    _add_telemetry_arg(resume)

    chaos = sub.add_parser(
        "chaos",
        help="run seeded storage-chaos rounds against a spec and audit "
        "every recovery",
    )
    chaos.add_argument(
        "spec",
        help="path to an ExperimentSpec or DeploymentSpec .json to torture",
    )
    chaos.add_argument(
        "--rounds", type=int, default=10, metavar="N",
        help="number of seeded chaos rounds (default: 10)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="chaos seed; the full fault schedule and verdict are "
        "reproducible from it (default: 0)",
    )
    chaos.add_argument(
        "--seeds",
        default="0,1",
        help="comma-separated engine seeds for experiment-spec grids "
        "(ignored for deployment specs; default: 0,1)",
    )
    chaos.add_argument(
        "--workdir",
        metavar="DIR",
        default=None,
        help="keep per-round checkpoint/telemetry directories in DIR "
        "(default: a temporary directory, removed afterwards)",
    )
    chaos.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the machine-readable JSON verdict to PATH",
    )

    monitor = sub.add_parser(
        "monitor",
        help="tail a campaign's telemetry directory and render progress",
    )
    monitor.add_argument(
        "directory", help="directory written by a --telemetry-dir run"
    )
    monitor.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit instead of tailing",
    )
    monitor.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between frames while tailing (default: 2)",
    )
    monitor.add_argument(
        "--stall-after", type=float, default=10.0, metavar="SECONDS",
        help=(
            "mark a running item STALLED once its heartbeat reports more "
            "elapsed time than this, or its heartbeats stop (default: 10)"
        ),
    )

    obs_export = sub.add_parser(
        "obs-export",
        help="render an --obs-dir run's metrics.json as OpenMetrics text",
    )
    obs_export.add_argument(
        "run_dir", help="directory holding metrics.json"
    )
    obs_export.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the exposition to PATH instead of stdout",
    )

    obs_report = sub.add_parser(
        "obs-report",
        help="summarize telemetry from an --obs-dir run directory",
    )
    obs_report.add_argument(
        "run_dir", help="directory holding metrics.json (and trace files)"
    )

    validate = sub.add_parser(
        "validate-specs",
        help="parse and registry-build every spec in a directory",
    )
    validate.add_argument(
        "directory",
        nargs="?",
        default="specs",
        help="directory of ExperimentSpec .json files (default: specs/)",
    )

    infer = sub.add_parser("infer", help="blueprint inference accuracy demo")
    infer.add_argument("--ues", type=int, default=8)
    infer.add_argument("--wifi", type=int, default=16)
    infer.add_argument("--trace-subframes", type=int, default=4000)
    infer.add_argument("--seed", type=int, default=0)

    scenario = sub.add_parser("scenario", help="describe a random deployment")
    scenario.add_argument("--ues", type=int, default=8)
    scenario.add_argument("--wifi", type=int, default=16)
    scenario.add_argument("--seed", type=int, default=0)

    overhead = sub.add_parser("overhead", help="measurement overhead table")
    overhead.add_argument("--ues", type=int, default=20)
    overhead.add_argument("--k", type=int, default=8)
    overhead.add_argument("--samples", type=int, default=50)

    trace = sub.add_parser("trace", help="record a scenario trace to .npz")
    trace.add_argument("output", help="output path (.npz)")
    trace.add_argument("--ues", type=int, default=8)
    trace.add_argument("--wifi", type=int, default=16)
    trace.add_argument("--subframes", type=int, default=5000)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--no-contention",
        action="store_true",
        help="use independent Bernoulli activity instead of CSMA coupling",
    )

    info = sub.add_parser("trace-info", help="summarize a recorded trace")
    info.add_argument("path", help="trace file written by the trace command")
    return parser


def _n_jobs_arg(text: str) -> int:
    """``--n-jobs`` type: a positive worker count, or -1 for all cores."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1 and value != -1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or -1 (all cores), got {text!r}"
        )
    return value


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock timeout (parallel runs only)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry each failing/timed-out cell up to N times",
    )
    parser.add_argument(
        "--backoff", type=float, default=None, metavar="SECONDS",
        help="base delay before a retry (doubles per attempt)",
    )


def _supervisor_from_args(args: argparse.Namespace):
    """A SupervisorConfig when any resilience flag is set, else None.

    ``None`` keeps the strict historical semantics (first failure
    aborts); any flag opts into supervised quarantine-on-failure runs.
    """
    from repro.resilience import SupervisorConfig

    if args.timeout is None and args.retries is None and args.backoff is None:
        return None
    return SupervisorConfig(
        timeout_s=args.timeout,
        max_retries=args.retries if args.retries is not None else 0,
        backoff_base_s=args.backoff if args.backoff is not None else 0.0,
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs",
        action="store_true",
        help="collect repro.obs metrics and print the telemetry report",
    )
    parser.add_argument(
        "--obs-dir",
        metavar="DIR",
        default=None,
        help=(
            "write the merged metrics.json (and OpenMetrics metrics.prom) "
            "into DIR (implies --obs)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "write the combined event trace: .jsonl for line-delimited, "
            ".json for the Chrome viewer (implies --obs with tracing)"
        ),
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "record windowed time series during the run (implies --obs; "
            "series.json lands in --obs-dir)"
        ),
    )
    parser.add_argument(
        "--stream-window",
        type=int,
        default=None,
        metavar="SUBFRAMES",
        help="subframes per time-series window (default: 100)",
    )


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help=(
            "stream live progress events (heartbeats, retries, per-item "
            "completions) into DIR/telemetry.jsonl for `repro monitor`"
        ),
    )


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(
        args.obs or args.obs_dir or args.trace_out
        or getattr(args, "stream", False)
        or getattr(args, "stream_window", None) is not None
    )


def _apply_obs_args(
    spec: ExperimentSpec, args: argparse.Namespace
) -> ExperimentSpec:
    """Overlay the CLI observability flags onto a spec's ``obs`` field."""
    if not _obs_requested(args):
        return spec
    from repro.obs.config import ObsConfig

    base = spec.obs or ObsConfig()
    return spec.replace(
        obs=dataclasses.replace(
            base,
            enabled=True,
            tracing=base.tracing or bool(args.trace_out),
            stream=base.stream or bool(args.stream)
            or args.stream_window is not None,
            stream_window=(
                args.stream_window
                if args.stream_window is not None
                else base.stream_window
            ),
        )
    )


def _emit_obs_artifacts(
    results: Dict[str, object], args: argparse.Namespace, title: str
) -> None:
    """Print the metrics table and write --obs-dir / --trace-out files.

    No-op when neither the flags nor the spec asked for observability
    (results then carry no snapshots).
    """
    from repro.obs.report import (
        collect_snapshot,
        format_obs_report,
        write_metrics_json,
    )
    from repro.obs.trace import (
        merge_run_traces,
        write_trace_chrome,
        write_trace_jsonl,
    )

    snapshot = collect_snapshot(results.values())
    if snapshot is None:
        if _obs_requested(args):
            print("no observability data collected", file=sys.stderr)
        return
    print()
    print(format_obs_report(snapshot, title=f"{title} telemetry"))
    frames = {
        name: result.obs_series
        for name, result in results.items()
        if getattr(result, "obs_series", None) is not None
    }
    if frames:
        from repro.analysis.timeseries import format_timeseries_report

        print()
        print(format_timeseries_report(frames))
    if args.obs_dir:
        print(f"wrote {write_metrics_json(args.obs_dir, snapshot)}")
        from repro.obs.openmetrics import write_metrics_prom

        print(f"wrote {write_metrics_prom(args.obs_dir, snapshot)}")
        if frames:
            from repro.obs.stream import TimeSeriesFrame, write_series_json

            parsed = {
                name: TimeSeriesFrame.from_dict(frame)
                for name, frame in frames.items()
            }
            print(f"wrote {write_series_json(args.obs_dir, parsed)}")
    if args.trace_out:
        events = merge_run_traces(
            {
                name: getattr(result, "obs_trace", None) or []
                for name, result in results.items()
            }
        )
        out = Path(args.trace_out)
        if out.suffix == ".jsonl":
            write_trace_jsonl(events, out)
        else:
            write_trace_chrome(events, out)
        print(f"wrote {len(events)} trace events to {out}")


def _comparison_schedulers(with_oracle: bool) -> dict:
    schedulers = {
        "pf": SchedulerSpec("pf"),
        "access-aware": SchedulerSpec("access-aware"),
        "blu": SchedulerSpec(
            "blu",
            {"samples_per_pair": 50, "inference": {"seed": 0}},
        ),
        "blu-perfect": SchedulerSpec("speculative"),
    }
    if with_oracle:
        schedulers["oracle"] = SchedulerSpec("oracle")
    return schedulers


def _compare_spec(args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"compare-testbed-{args.ues}ues",
        scenario=ScenarioSpec(
            kind="testbed",
            params={
                "num_ues": args.ues,
                "hts_per_ue": args.hts_per_ue,
                "activity": args.activity,
                "seed": args.seed,
            },
            snr={"kind": "uniform", "seed": args.seed + 1},
        ),
        sim=SimulationConfig(
            num_subframes=args.subframes, num_antennas=args.antennas
        ),
        schedulers=_comparison_schedulers(args.with_oracle),
        seed=args.seed,
    )


def _maybe_export(spec: ExperimentSpec, path: Optional[str]) -> None:
    if path:
        Path(path).write_text(spec.to_json())
        print(f"wrote spec to {path}")


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = _apply_obs_args(_compare_spec(args), args)
    _maybe_export(spec, args.export_spec)
    plan = build_experiment(spec)
    results = plan.run(n_jobs=args.n_jobs)
    if args.markdown:
        print(
            comparison_report(
                results,
                title=(
                    f"{args.ues} UEs, {plan.topology.num_terminals} hidden "
                    f"terminals, M={args.antennas}"
                ),
                baseline="pf",
            )
        )
    else:
        print(
            format_comparison(
                {name: result.summary() for name, result in results.items()},
                metrics=["throughput_mbps", "rb_utilization", "jain_index"],
                baseline="pf",
                title=(
                    f"{args.ues} UEs, {plan.topology.num_terminals} hidden "
                    f"terminals, M={args.antennas}, {args.subframes} subframes"
                ),
            )
        )
    _emit_obs_artifacts(results, args, title=spec.name)
    return 0


def _parse_sweep_values(param: str, text: str) -> List:
    caster = float if param == "activity" else int
    try:
        return [caster(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError:
        raise SpecError(f"bad --values for {param}: {text!r}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = _parse_sweep_values(args.param, args.values)
    if not values:
        print("--values is empty", file=sys.stderr)
        return 2
    specs = []
    for value in values:
        view = argparse.Namespace(**vars(args))
        setattr(view, args.param, value)
        spec = _compare_spec(view)
        specs.append(spec.replace(name=f"{spec.name}-{args.param}{value}"))
    points = run_experiment_sweep(specs, parameters=values, n_jobs=args.n_jobs)
    names = list(specs[0].scheduler_names)
    rows = [
        [point.parameter]
        + [point.results[name].summary()["throughput_mbps"] for name in names]
        for point in points
    ]
    print(
        format_table(
            [args.param] + names,
            rows,
            title=f"throughput_mbps vs {args.param}",
        )
    )
    return 0


def _dynamics_spec(args: argparse.Namespace) -> ExperimentSpec:
    affected = list(range(args.affected))
    blu_params = {"inference": {"seed": 0}}
    return ExperimentSpec(
        name=f"dynamics-hidden-node-{args.ues}ues",
        scenario=ScenarioSpec(
            kind="testbed",
            params={
                "num_ues": args.ues,
                "hts_per_ue": args.hts_per_ue,
                "activity": args.activity,
                "seed": args.seed,
            },
            snr={"kind": "uniform", "seed": args.seed + 1},
        ),
        sim=SimulationConfig(num_subframes=args.subframes),
        schedulers={
            "blu-adaptive": SchedulerSpec("blu-adaptive", {"blu": blu_params}),
            "blu-frozen": SchedulerSpec("blu", blu_params),
            "blu-restart": SchedulerSpec(
                "blu-restart",
                {"restart_at": args.arrive_at, "blu": blu_params},
            ),
            "oracle": SchedulerSpec("staged-oracle"),
        },
        timeline=TimelineSpec(
            "hidden-node-churn",
            {"arrive_at": args.arrive_at, "q": args.arrival_q, "ues": affected},
        ),
        seed=args.seed,
        record_series=True,
    )


def _cmd_dynamics(args: argparse.Namespace) -> int:
    from repro.analysis.dynamics import dynamics_report, recovery_ratio

    if not 1 <= args.affected <= args.ues:
        print(f"--affected must be in [1, {args.ues}]", file=sys.stderr)
        return 2
    spec = _apply_obs_args(_dynamics_spec(args), args)
    _maybe_export(spec, args.export_spec)
    plan = build_experiment(spec)
    # Serial run on purpose: it captures the live controller instances so
    # the report can read the adaptive controller's dynamics metrics.
    results = plan.run(n_jobs=1)
    metrics = {
        name: scheduler.metrics
        for name, scheduler in plan.schedulers.items()
        if hasattr(scheduler, "metrics")
    }
    print(
        dynamics_report(
            results,
            metrics_by_name=metrics,
            change_subframe=args.arrive_at,
            title=(
                f"hidden-node churn: +1 terminal (q={args.arrival_q}) at "
                f"subframe {args.arrive_at}, {args.ues} UEs"
            ),
        )
    )
    post = args.arrive_at * len(results["oracle"].utilization_series) // max(
        args.subframes, 1
    )
    ratio = recovery_ratio(
        results["blu-adaptive"], results["blu-restart"], start=post
    )
    print(
        f"\npost-change utilization, adaptive vs full restart: {ratio:.3f}x"
    )
    _emit_obs_artifacts(results, args, title=spec.name)
    return 0


def _format_grid(triples) -> int:
    """Print a grid-result table; exit code 1 if any cell failed."""
    from repro.resilience import FailedItem

    rows = []
    failures = 0
    for name, seed, result in triples:
        if result is None or isinstance(result, FailedItem):
            failures += 1
            detail = (
                f"FAILED ({result.error_type} after {result.attempts} "
                f"attempt(s))" if isinstance(result, FailedItem) else "missing"
            )
            rows.append([name, seed, detail, "-"])
            continue
        summary = result.summary()
        rows.append(
            [
                name,
                seed,
                f"{summary['throughput_mbps']:.3f}",
                f"{summary['rb_utilization']:.3f}",
            ]
        )
    print(
        format_table(
            ["scheduler", "seed", "throughput_mbps", "rb_utilization"],
            rows,
            title=f"Grid: {len(rows)} cells, {failures} failed",
        )
    )
    if failures:
        print(f"{failures} cell(s) failed permanently", file=sys.stderr)
        return 1
    return 0


def _cmd_run_spec(args: argparse.Namespace) -> int:
    path = Path(args.spec)
    if not path.is_file():
        print(f"no such spec file: {path}", file=sys.stderr)
        return 2
    if args.checkpoint_dir is not None and args.seeds is None:
        print("--checkpoint-dir requires --seeds (grid mode)", file=sys.stderr)
        return 2
    try:
        spec = _apply_obs_args(ExperimentSpec.from_json(path.read_text()), args)
        if args.seeds is not None:
            from repro.experiments import run_experiment_grid

            seeds = [int(value) for value in args.seeds.split(",") if value]
            triples = run_experiment_grid(
                spec,
                seeds,
                n_jobs=args.n_jobs,
                checkpoint_dir=args.checkpoint_dir,
                supervisor=_supervisor_from_args(args),
                telemetry_dir=args.telemetry_dir,
            )
            _print_quarantine(args.checkpoint_dir)
            return _format_grid(triples)
        if args.telemetry_dir is not None:
            print(
                "--telemetry-dir requires --seeds (grid mode); ignoring",
                file=sys.stderr,
            )
        plan = build_experiment(spec)
        results = plan.run(n_jobs=args.n_jobs)
    except SpecError as error:
        print(f"spec error: {error}", file=sys.stderr)
        return 1
    baseline = args.baseline or next(iter(spec.scheduler_names))
    print(
        format_comparison(
            {name: result.summary() for name, result in results.items()},
            metrics=["throughput_mbps", "rb_utilization", "jain_index"],
            baseline=baseline,
            title=spec.name,
        )
    )
    if plan.multichannel is not None and plan.ue_channels is not None:
        from repro.analysis.channels import channel_assignment_report

        print()
        print(
            channel_assignment_report(plan.multichannel, plan.ue_channels)
        )
    _emit_obs_artifacts(results, args, title=spec.name)
    return 0


def _apply_deploy_obs_args(spec, args: argparse.Namespace):
    """Overlay the CLI observability flags onto a DeploymentSpec."""
    if not _obs_requested(args):
        return spec
    from repro.obs.config import ObsConfig

    base = spec.obs or ObsConfig()
    return spec.replace(
        obs=dataclasses.replace(
            base,
            enabled=True,
            stream=base.stream or bool(args.stream)
            or args.stream_window is not None,
            stream_window=(
                args.stream_window
                if args.stream_window is not None
                else base.stream_window
            ),
        )
    )


def _format_campaign(campaign, per_cell: bool = False) -> int:
    """Print a campaign's deployment report; exit 1 on failed clusters."""
    deployment = campaign.deployment
    sizes = sorted((len(c) for c in deployment.clusters), reverse=True)
    print(
        f"{deployment.num_cells} cells / {deployment.total_ues} UEs in "
        f"{deployment.num_clusters} interference cluster(s) "
        f"(largest: {sizes[0]}), "
        f"{deployment.cross_cell_terminal_count()} cross-cell hidden "
        f"terminal(s)"
    )
    if per_cell and campaign.cell_results:
        rows = [
            [
                cell_id,
                deployment.cluster_of(cell_id),
                f"{summary['throughput_mbps']:.3f}",
                f"{summary['rb_utilization']:.3f}",
                f"{summary['jain_index']:.3f}",
            ]
            for cell_id, summary in campaign.summaries().items()
        ]
        print()
        print(
            format_table(
                ["cell", "cluster", "throughput_mbps", "rb_utilization",
                 "jain_index"],
                rows,
                title="Per-cell results",
            )
        )
    if campaign.cell_results:
        report = campaign.report()
        rows = [
            ["aggregate throughput (Mbps)",
             f"{report['aggregate_throughput_mbps']:.3f}"],
            ["mean RB utilization", f"{report['mean_rb_utilization']:.3f}"],
            ["cell fairness (Jain)", f"{report['cell_fairness']:.4f}"],
            ["UE fairness (Jain)", f"{report['ue_fairness']:.4f}"],
        ]
        for metric, stats in report["per_metric"].items():
            rows.append(
                [
                    f"{metric} p10/p50/p90",
                    f"{stats['p10']:.3f} / {stats['p50']:.3f} / "
                    f"{stats['p90']:.3f}",
                ]
            )
        print()
        print(
            format_table(
                ["metric", "value"],
                rows,
                title=f"Deployment report: {campaign.spec.name}",
            )
        )
    for cell in getattr(campaign, "quarantined_cells", []):
        print(f"DEGRADED: {cell.note()}", file=sys.stderr)
    if campaign.failed_clusters:
        print(
            f"{len(campaign.failed_clusters)} cluster(s) failed permanently: "
            f"{sorted(campaign.failed_clusters)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _emit_campaign_obs(campaign, args: argparse.Namespace) -> None:
    """Print/write the campaign's merged telemetry (deploy and resume)."""
    from repro.obs.report import format_obs_report, write_metrics_json

    snapshot = campaign.obs_snapshot()
    if snapshot is None:
        if _obs_requested(args):
            print("no observability data collected", file=sys.stderr)
        return
    print()
    print(format_obs_report(snapshot, title=f"{campaign.spec.name} telemetry"))
    frame = campaign.obs_series()
    if frame is not None:
        from repro.analysis.timeseries import format_timeseries_report

        print()
        print(format_timeseries_report({campaign.spec.name: frame}))
    if args.obs_dir:
        print(f"wrote {write_metrics_json(args.obs_dir, snapshot)}")
        from repro.obs.openmetrics import write_metrics_prom

        print(f"wrote {write_metrics_prom(args.obs_dir, snapshot)}")
        if frame is not None:
            from repro.obs.stream import write_series_json

            print(
                f"wrote "
                f"{write_series_json(args.obs_dir, {campaign.spec.name: frame})}"
            )


def _cmd_deploy(args: argparse.Namespace) -> int:
    from repro.deploy import DeploymentSpec, run_campaign

    path = Path(args.spec)
    if not path.is_file():
        print(f"no such spec file: {path}", file=sys.stderr)
        return 2
    try:
        spec = _apply_deploy_obs_args(
            DeploymentSpec.from_json(path.read_text()), args
        )
        campaign = run_campaign(
            spec,
            n_jobs=args.n_jobs,
            checkpoint_dir=args.checkpoint_dir,
            supervisor=_supervisor_from_args(args),
            telemetry_dir=args.telemetry_dir,
        )
    except SpecError as error:
        print(f"spec error: {error}", file=sys.stderr)
        return 1
    code = _format_campaign(campaign, per_cell=args.per_cell)
    _emit_campaign_obs(campaign, args)
    return code


def _print_quarantine(checkpoint_dir) -> None:
    """Surface quarantined (corrupt, recomputed) cell files as DEGRADED."""
    if checkpoint_dir is None:
        return
    from repro.resilience import CheckpointStore

    files = CheckpointStore(checkpoint_dir).quarantined_files()
    if files:
        print(
            f"DEGRADED: {len(files)} corrupt checkpoint cell file(s) "
            f"quarantined under {CheckpointStore(checkpoint_dir).quarantine_dir} "
            "and recomputed",
            file=sys.stderr,
        )


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.errors import CheckpointError
    from repro.experiments import resume_checkpoint

    directory = Path(args.checkpoint_dir)
    if not directory.is_dir():
        print(
            f"no such checkpoint directory: {directory}\n"
            "expected a directory previously written by a --checkpoint-dir "
            "run of `repro run-spec` or `repro deploy`",
            file=sys.stderr,
        )
        return 2
    if not (directory / "manifest.json").is_file():
        contents = sorted(path.name for path in directory.iterdir())[:5]
        detail = (
            f"it holds {contents}" if contents else "it is empty"
        )
        print(
            f"{directory} is not a resumable checkpoint directory: no "
            f"manifest.json found ({detail}).\n"
            "Point `repro resume` at the exact directory passed as "
            "--checkpoint-dir when the run was started.",
            file=sys.stderr,
        )
        return 2
    try:
        kind, payload = resume_checkpoint(
            directory,
            n_jobs=args.n_jobs,
            supervisor=_supervisor_from_args(args),
            telemetry_dir=args.telemetry_dir,
        )
    except (CheckpointError, SpecError) as error:
        print(f"resume error: {error}", file=sys.stderr)
        return 1
    if kind == "grid":
        _print_quarantine(directory)
        return _format_grid(payload)
    if kind == "deploy":
        # Checkpoint payloads carry each cell's telemetry (to_state keeps
        # obs fields), so a resumed campaign can summarize the merged
        # snapshot exactly like the original `deploy --obs` run.
        code = _format_campaign(payload)
        _emit_campaign_obs(payload, args)
        return code
    rows = [
        [str(point.parameter), name, f"{result.summary()['throughput_mbps']:.3f}"]
        for point in payload
        for name, result in point.results.items()
    ]
    print(
        format_table(
            ["parameter", "scheduler", "throughput_mbps"],
            rows,
            title=f"Resumed sweep: {len(payload)} points",
        )
    )
    _print_quarantine(directory)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.errors import ChaosError
    from repro.resilience import run_chaos
    from repro.resilience.chaos import write_verdict

    path = Path(args.spec)
    if not path.is_file():
        print(f"no such spec file: {path}", file=sys.stderr)
        return 2
    if args.rounds < 1:
        print("--rounds must be at least 1", file=sys.stderr)
        return 2
    try:
        spec_data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        print(f"spec error: {path} is not valid JSON: {error}", file=sys.stderr)
        return 2
    try:
        seeds = tuple(
            int(value) for value in args.seeds.split(",") if value.strip()
        )
    except ValueError:
        print(f"bad --seeds: {args.seeds!r}", file=sys.stderr)
        return 2

    def _run(workdir) -> int:
        try:
            verdict = run_chaos(
                spec_data, rounds=args.rounds, seed=args.seed,
                workdir=workdir, seeds=seeds or (0, 1),
            )
        except (ChaosError, SpecError) as error:
            print(f"chaos error: {error}", file=sys.stderr)
            return 2
        print(
            f"chaos: {verdict.rounds_passed}/{len(verdict.rounds)} rounds "
            f"passed all auditor invariants "
            f"({verdict.rounds_with_quarantine} round(s) exercised "
            f"quarantine-and-recompute; spec {verdict.spec_name!r}, "
            f"kind {verdict.kind}, seed {verdict.seed})"
        )
        for round_ in verdict.rounds:
            if round_.ok:
                continue
            print(
                f"round {round_.schedule.round_index} FAILED "
                f"(schedule {round_.schedule.to_dict()}):",
                file=sys.stderr,
            )
            for violation in round_.violations:
                print(f"  - {violation}", file=sys.stderr)
        if args.report:
            print(f"wrote {write_verdict(verdict, args.report)}")
        return 0 if verdict.ok else 1

    if args.workdir:
        return _run(args.workdir)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        return _run(workdir)


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs.monitor import monitor_directory

    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"no such telemetry directory: {directory}", file=sys.stderr)
        return 2
    return monitor_directory(
        directory,
        once=args.once,
        interval_s=args.interval,
        stall_after_s=args.stall_after,
    )


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs.openmetrics import to_openmetrics
    from repro.obs.report import load_metrics_json

    directory = Path(args.run_dir)
    if not directory.is_dir():
        print(f"no such run directory: {directory}", file=sys.stderr)
        return 2
    try:
        snapshot = load_metrics_json(directory)
    except ObsError as error:
        print(f"obs error: {error}", file=sys.stderr)
        return 2
    text = to_openmetrics(snapshot)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import METRICS_FILENAME, format_obs_report, load_metrics_json
    from repro.obs.trace import validate_trace_file

    directory = Path(args.run_dir)
    if not directory.is_dir():
        print(f"no such run directory: {directory}", file=sys.stderr)
        return 2
    try:
        snapshot = load_metrics_json(directory)
    except ObsError as error:
        print(f"obs error: {error}", file=sys.stderr)
        return 2
    print(format_obs_report(snapshot, title=str(directory)))
    traces = sorted(
        path
        for pattern in ("*.jsonl", "trace*.json")
        for path in directory.glob(pattern)
        if path.name != METRICS_FILENAME
    )
    failures = 0
    for path in traces:
        errors = validate_trace_file(path)
        if errors:
            failures += 1
            shown = errors[0] + (
                f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
            )
            print(f"INVALID {path.name}: {shown}", file=sys.stderr)
        else:
            print(f"trace {path.name}: valid")
    return 1 if failures else 0


def _is_deployment_spec(text: str) -> bool:
    """True when a spec file carries the top-level deployment kind marker."""
    import json

    from repro.deploy.spec import DEPLOYMENT_KIND

    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return False
    return isinstance(data, dict) and data.get("kind") == DEPLOYMENT_KIND


def _cmd_validate_specs(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"no such spec directory: {directory}", file=sys.stderr)
        return 2
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print(f"no *.json specs found in {directory}", file=sys.stderr)
        return 2
    failures = 0
    rows = []
    for path in paths:
        try:
            text = path.read_text()
            if _is_deployment_spec(text):
                from repro.deploy import DeploymentSpec, build_deployment

                dspec = DeploymentSpec.from_json(text)
                deployment = build_deployment(dspec)
                rows.append(
                    [
                        path.name,
                        f"deployment/{dspec.placement.kind}",
                        deployment.total_ues,
                        1,
                        f"{deployment.num_clusters} clusters",
                        (
                            f"{dspec.num_channels}ch/"
                            f"{dspec.channel_assignment}"
                            if dspec.num_channels > 1
                            else "-"
                        ),
                    ]
                )
                continue
            spec = ExperimentSpec.from_json(text)
            plan = build_experiment(spec)
            for name in spec.scheduler_names:
                plan.build_scheduler(name)
        except SpecError as error:
            failures += 1
            print(f"FAIL {path.name}: {error}", file=sys.stderr)
            continue
        rows.append(
            [
                path.name,
                spec.scenario.kind,
                plan.topology.num_ues,
                len(spec.schedulers),
                spec.timeline.kind if spec.timeline else "-",
                (
                    f"{spec.channels.plan.num_channels}ch/"
                    f"{spec.channels.assignment}"
                    if spec.channels is not None
                    else "-"
                ),
            ]
        )
    if rows:
        print(
            format_table(
                ["spec", "scenario", "ues", "schedulers", "timeline", "channels"],
                rows,
                title=f"Validated {len(rows)}/{len(paths)} specs",
            )
        )
    if failures:
        print(f"{failures} invalid spec(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.measurement.estimator import AccessEstimator

    scenario = generate_scenario(
        ScenarioConfig(num_ues=args.ues, num_wifi=args.wifi), seed=args.seed
    )
    topology = scenario.topology
    if topology.num_terminals == 0:
        print("scenario drew no hidden terminals; try another --seed")
        return 1
    rng = np.random.default_rng(args.seed)
    estimator = AccessEstimator(args.ues)
    scheduled = set(range(args.ues))
    for _ in range(args.trace_subframes):
        busy = {
            ue
            for q, ues in zip(topology.q, topology.edges)
            if rng.random() < q
            for ue in ues
        }
        estimator.record_subframe(scheduled, scheduled - busy)
    result = BlueprintInference(InferenceConfig(seed=0)).infer(
        estimator.to_transformed()
    )
    accuracy = edge_set_accuracy(result.topology, topology)
    print(
        format_table(
            ["metric", "value"],
            [
                ["ground-truth terminals", topology.num_terminals],
                ["inferred terminals", result.topology.num_terminals],
                ["edge-set accuracy", accuracy],
                ["aggregate violation", result.aggregate_violation],
                ["winning start", result.winning_start],
            ],
            title=f"Blueprint inference ({args.trace_subframes}-subframe trace)",
        )
    )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    scenario = generate_scenario(
        ScenarioConfig(num_ues=args.ues, num_wifi=args.wifi), seed=args.seed
    )
    rows = [
        ["UEs", scenario.num_ues],
        ["WiFi nodes", scenario.layout.num_wifi],
        ["hidden terminals", scenario.num_hidden_terminals],
        ["eNB-audible WiFi", len(scenario.enb_audible_wifi)],
        ["inert WiFi", len(scenario.inert_wifi)],
        ["eNB busy probability", scenario.enb_busy_probability()],
    ]
    print(format_table(["property", "value"], rows, title="Scenario"))
    terminal_rows = [
        [f"H{k}", q, ", ".join(str(u) for u in sorted(ues))]
        for k, (q, ues) in enumerate(
            zip(scenario.topology.q, scenario.topology.edges)
        )
    ]
    if terminal_rows:
        print()
        print(
            format_table(
                ["terminal", "busy prob", "silences UEs"],
                terminal_rows,
                title="Ground-truth blueprint",
            )
        )
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    bound = minimum_subframes(args.ues, args.k, args.samples)
    scheduler = MeasurementScheduler(args.ues, args.k, args.samples)
    achieved = len(scheduler.plan())
    rows = [
        ["pair-wise lower bound F_min", bound],
        ["Algorithm 1 achieved t_max", achieved],
    ]
    for tuple_size in (3, 4, 6):
        if tuple_size <= args.k:
            rows.append(
                [
                    f"direct {tuple_size}-tuple measurement",
                    tuple_measurement_subframes(
                        args.ues, tuple_size, args.k, args.samples
                    ),
                ]
            )
    print(
        format_table(
            ["approach", "subframes"],
            rows,
            title=(
                f"Measurement overhead (N={args.ues}, K={args.k}, "
                f"T={args.samples})"
            ),
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.traces.collect import collect_scenario_trace
    from repro.traces.io import save_trace

    scenario = generate_scenario(
        ScenarioConfig(num_ues=args.ues, num_wifi=args.wifi), seed=args.seed
    )
    trace = collect_scenario_trace(
        scenario,
        num_subframes=args.subframes,
        use_contention=not args.no_contention,
        seed=args.seed,
        label=f"scenario-{args.seed}",
        record_channels=False,
    )
    path = save_trace(trace, args.output)
    print(
        f"recorded {trace.num_subframes} subframes of "
        f"{trace.topology.num_terminals} hidden terminals to {path}"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.traces.io import load_trace

    trace = load_trace(args.path)
    marginals = trace.interference.marginals()
    rows = [
        ["label", trace.label or "(none)"],
        ["subframes", trace.num_subframes],
        ["UEs", trace.topology.num_ues],
        ["hidden terminals", trace.topology.num_terminals],
        ["mean terminal airtime", float(marginals.mean()) if len(marginals) else 0.0],
        ["channel traces", len(trace.channels)],
    ]
    print(format_table(["property", "value"], rows, title="Trace"))
    return 0


_COMMANDS = {
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "dynamics": _cmd_dynamics,
    "run-spec": _cmd_run_spec,
    "deploy": _cmd_deploy,
    "resume": _cmd_resume,
    "chaos": _cmd_chaos,
    "monitor": _cmd_monitor,
    "obs-report": _cmd_obs_report,
    "obs-export": _cmd_obs_export,
    "validate-specs": _cmd_validate_specs,
    "infer": _cmd_infer,
    "scenario": _cmd_scenario,
    "overhead": _cmd_overhead,
    "trace": _cmd_trace,
    "trace-info": _cmd_trace_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
