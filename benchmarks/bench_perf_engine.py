"""Engine throughput benchmark: subframes/sec, engine vs scalar reference.

Unlike the figure-reproduction benchmarks, this one measures the simulator
itself.  Each cell size is described by a declarative
:class:`~repro.experiments.ExperimentSpec`; for each the same seeded
scenario runs through

* the production engine (``ExperimentPlan.simulation``), and
* the scalar reference engine of ``tests/reference/`` — the per-UE
  substrate the array-native engine replaced, kept as a test oracle,

verifies the two produce identical results (they are bit-exact under a
shared seed), and reports subframes/sec plus the engine's phase
breakdown.  Report keys keep their historical names: ``fast_*`` is the
production engine, ``legacy_*`` the reference.  Results land in
``BENCH_engine.json`` at the repository root, merged by top-level key: a
run replaces the entries it measured (``scenarios``, and ``dynamics``,
``channels``, ``deployment`` or ``obs_stream`` when asked for) and keeps
the others.  Each entry it writes carries a ``provenance`` stamp: git
revision (``-dirty`` with uncommitted changes), numpy version, usable
cores and whether the compiled greedy kernel was on.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py           # full
    PYTHONPATH=src python benchmarks/bench_perf_engine.py --smoke   # CI

``--smoke`` shrinks the subframe counts so CI exercises every code path in
seconds; it fails on errors or an engine/reference mismatch, never on
timing.

``--dynamics`` additionally runs every scenario under a scripted
environment timeline (hidden-node arrival, duty-cycle drift, departure)
and asserts the engine and the reference stay bit-exact while the world
churns mid-run — the mutation hazard the static benchmark cannot see.

``--check-bit-exact`` runs only the equivalence checks (static + churn,
engine vs reference, at smoke sizes), plus
the resilience contract — a supervised parallel grid, a checkpointed
grid, and a killed-then-resumed grid must all equal the plain serial
grid — and exits non-zero on any divergence; no timings, no report file.

``--obs-overhead`` guards the observability contract on the medium
scenario: a run with ``ObsConfig(enabled=False)`` must be bit-exact with
a no-obs run and cost the same (min-of-reps ratio < 1.02 outside
``--smoke``), and an enabled run must not change simulation outcomes.

``--deploy`` additionally benchmarks the multi-cell campaign runner on a
100-cell / 1000-UE PPP deployment: serial and sharded wall-clock,
cells/sec, and a hard guard that ``n_jobs=1`` and ``n_jobs=N`` produce
identical per-cell results.  Lands under the ``deployment`` key of the
report.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
# The repository root, for the reference engine in tests/reference/.
sys.path.insert(1, str(Path(__file__).parent.parent))

from repro.experiments import (
    ChannelSpec,
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    TimelineSpec,
    build_experiment,
)
from repro.obs import PhaseTimer
from repro.sim.config import SimulationConfig
from repro.spectrum import ChannelPlan

from common import MASTER_SEED
from tests.reference import reference_simulation

#: (name, num_ues, num_terminals, num_rbs, num_antennas, subframes)
SCENARIOS = (
    ("small", 6, 3, 10, 1, 6_000),
    ("medium", 20, 6, 20, 4, 10_000),
    ("large", 48, 12, 25, 4, 4_000),
)

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = ROOT / "BENCH_engine.json"


def git_revision() -> str | None:
    """``HEAD``'s sha, suffixed ``-dirty`` when tracked files changed."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return f"{sha}-dirty" if dirty else sha


def provenance() -> dict:
    """Where a measurement came from."""
    from repro.core.scheduling._kernel import kernel_available

    return {
        "git_sha": git_revision(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": kernel_available(),
    }


def merge_report(path: Path, entries: dict, stamp: dict) -> dict:
    """Write ``entries`` into the JSON report at ``path``, replacing those
    keys and keeping every other; each entry is stamped with ``stamp``."""
    report = json.loads(path.read_text()) if path.is_file() else {}
    for key, entry in entries.items():
        report[key] = {**entry, "provenance": stamp}
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def build_spec(name: str, num_ues: int, num_terminals: int, num_rbs: int,
               num_antennas: int, subframes: int,
               with_timeline: bool = False) -> ExperimentSpec:
    timeline = None
    if with_timeline:
        # Arrival, drift, and departure spread across the run.
        timeline = TimelineSpec(
            "hidden-node-churn",
            {
                "arrive_at": subframes // 4,
                "q": 0.5,
                "ues": [0, 1],
                "depart_at": 3 * subframes // 4,
                "label": "bench-late",
            },
        )
    return ExperimentSpec(
        name=f"bench-engine-{name}" + ("-churn" if with_timeline else ""),
        scenario=ScenarioSpec(
            kind="skewed",
            params={"num_ues": num_ues, "num_terminals": num_terminals,
                    "seed": 3},
            snr={"kind": "uniform", "seed": 7},
        ),
        sim=SimulationConfig(
            num_subframes=subframes,
            num_rbs=num_rbs,
            num_antennas=num_antennas,
        ),
        schedulers={"pf": SchedulerSpec("pf")},
        timeline=timeline,
        seed=MASTER_SEED,
    )


def channelize_spec(
    spec: ExperimentSpec,
    num_channels: int = 3,
    with_drift: bool = False,
) -> ExperimentSpec:
    """Spread the spec's hidden terminals over a channel plan.

    Terminals are homed round-robin across the channels and UEs are
    assigned by the blueprint channel selector — the multi-channel
    configuration the engine must keep bit-exact with the reference.  With
    ``with_drift`` the run additionally replays a per-channel duty-cycle
    drift timeline (the ``repro dynamics`` composition hazard).
    """
    num_terminals = spec.scenario.params["num_terminals"]
    terminal_channels = tuple(
        k % num_channels for k in range(num_terminals)
    )
    timeline = spec.timeline
    if with_drift:
        timeline = TimelineSpec(
            "channel-duty-drift",
            {
                "drift_at": spec.sim.num_subframes // 3,
                "channel": 1,
                "q": 0.85,
                "terminal_channels": list(terminal_channels),
            },
        )
    return spec.replace(
        name=spec.name + f"-{num_channels}ch" + ("-drift" if with_drift else ""),
        channels=ChannelSpec(
            plan=ChannelPlan.spaced(num_channels),
            terminal_channels=terminal_channels,
            assignment="blueprint",
        ),
        timeline=timeline,
    )


def timed_run(
    spec: ExperimentSpec,
    reference: bool = False,
    timer: PhaseTimer | None = None,
    scheduler: str = "pf",
):
    """Run one scheduler of ``spec`` on the engine (or the reference)."""
    plan = build_experiment(spec)
    if reference:
        simulation = reference_simulation(plan, scheduler, phase_timer=timer)
    else:
        simulation = plan.simulation(scheduler, phase_timer=timer)
    start = perf_counter()
    result = simulation.run()
    elapsed = perf_counter() - start
    vectorized = getattr(simulation.scheduler, "fast_path_schedules", 0)
    if bool(vectorized) == reference:
        raise AssertionError(
            f"{spec.name}/{scheduler}: the "
            f"{'reference' if reference else 'engine'} run "
            f"{'took' if reference else 'never took'} the vectorized "
            f"schedule path — the comparison would be vacuous"
        )
    return result, elapsed


def phase_speedups(fast_phases: dict, legacy_phases: dict) -> dict:
    """Per-phase reference/engine wall-time ratios (>1: the engine wins)."""
    speedups = {}
    for phase, legacy_entry in legacy_phases.items():
        fast_entry = fast_phases.get(phase)
        if not fast_entry or not fast_entry.get("total_s"):
            continue
        speedups[phase] = legacy_entry["total_s"] / fast_entry["total_s"]
    return speedups


def bench_scenario(spec: ExperimentSpec, subframes: int) -> dict:
    fast_result, fast_s = timed_run(spec)
    legacy_result, legacy_s = timed_run(spec, reference=True)
    if fast_result != legacy_result:
        raise AssertionError(
            f"{spec.name}: the engine diverged from the reference under "
            f"one seed"
        )
    # Extra instrumented runs for the per-phase breakdown (the timer costs
    # a couple of perf_counter calls per subframe, so it is kept out of the
    # headline measurement).  The engine is cheap enough to repeat:
    # keeping the rep with the smallest schedule-phase total filters the
    # machine-load spikes that would otherwise dominate sub-second phases.
    # Both engines run in the same process minutes apart, so the per-phase
    # speedup ratios are additionally robust to sustained load in a way
    # the absolute phase times are not.
    fast_phases = None
    for _ in range(3):
        rep_timer = PhaseTimer()
        timed_run(spec, timer=rep_timer)
        rep_phases = rep_timer.as_dict()
        if fast_phases is None or (
            rep_phases["schedule"]["total_s"]
            < fast_phases["schedule"]["total_s"]
        ):
            fast_phases = rep_phases
    legacy_timer = PhaseTimer()
    timed_run(spec, reference=True, timer=legacy_timer)
    legacy_phases = legacy_timer.as_dict()
    return {
        "num_ues": spec.scenario.params["num_ues"],
        "num_terminals": spec.scenario.params["num_terminals"],
        "num_rbs": spec.sim.num_rbs,
        "num_antennas": spec.sim.num_antennas,
        "subframes": subframes,
        "fast_subframes_per_s": subframes / fast_s,
        "legacy_subframes_per_s": subframes / legacy_s,
        "speedup": legacy_s / fast_s,
        "phases": fast_phases,
        "phases_legacy": legacy_phases,
        "phase_speedups": phase_speedups(fast_phases, legacy_phases),
    }


def bench_dynamics_scenario(spec: ExperimentSpec, subframes: int) -> dict:
    fast_result, fast_s = timed_run(spec)
    legacy_result, legacy_s = timed_run(spec, reference=True)
    if fast_result != legacy_result:
        raise AssertionError(
            f"{spec.name}: the engine diverged from the reference under "
            f"churn"
        )
    timeline = build_experiment(spec).timeline
    return {
        "num_ues": spec.scenario.params["num_ues"],
        "num_terminals": spec.scenario.params["num_terminals"],
        "subframes": subframes,
        "timeline_events": timeline.num_events,
        "fast_subframes_per_s": subframes / fast_s,
        "legacy_subframes_per_s": subframes / legacy_s,
        "speedup": legacy_s / fast_s,
    }


def bench_deployment(smoke: bool, n_jobs: int) -> dict:
    """Campaign-runner throughput on a 100-cell / 1000-UE deployment.

    The density (100 cells over a 2.8 km square at path-loss exponent 3)
    sits below the percolation threshold, so the coupling graph splits
    into dozens of independent clusters — the regime sharding is for.
    The sharded run must reproduce the serial run bit-exactly; the guard
    fails the benchmark otherwise.
    """
    from repro.deploy import DeploymentSpec, PlacementSpec, run_campaign

    subframes = 60 if smoke else 400
    spec = DeploymentSpec(
        name="bench-deploy",
        placement=PlacementSpec("ppp", {"num_cells": 100, "area_m": 2800.0}),
        ues_per_cell=10,
        wifi_per_cell=2,
        sim=SimulationConfig(num_subframes=subframes),
        seed=3,
    )
    start = perf_counter()
    serial = run_campaign(spec, n_jobs=1)
    serial_s = perf_counter() - start
    start = perf_counter()
    sharded = run_campaign(spec, n_jobs=n_jobs)
    sharded_s = perf_counter() - start
    if sharded.cell_results != serial.cell_results:
        raise AssertionError(
            f"deployment campaign diverged between n_jobs=1 and "
            f"n_jobs={n_jobs}"
        )
    deployment = serial.deployment
    report = serial.report()
    entry = {
        "num_cells": deployment.num_cells,
        "num_ues": deployment.total_ues,
        "num_clusters": deployment.num_clusters,
        "largest_cluster": max(len(c) for c in deployment.clusters),
        "cross_cell_hidden_terminals": deployment.cross_cell_terminal_count(),
        "subframes": subframes,
        "n_jobs": n_jobs,
        "serial_wall_s": serial_s,
        "sharded_wall_s": sharded_s,
        "serial_cells_per_s": deployment.num_cells / serial_s,
        "sharded_cells_per_s": deployment.num_cells / sharded_s,
        "speedup": serial_s / sharded_s,
        "cell_fairness": report["cell_fairness"],
        "ue_fairness": report["ue_fairness"],
    }
    print(
        f" deploy: {deployment.num_cells} cells / {deployment.total_ues} UEs "
        f"in {deployment.num_clusters} clusters | "
        f"serial {entry['serial_cells_per_s']:6.1f} cells/s | "
        f"sharded(n_jobs={n_jobs}) {entry['sharded_cells_per_s']:6.1f} "
        f"cells/s | speedup {entry['speedup']:.2f}x | bit-exact"
    )
    return entry


def obs_overhead(smoke: bool) -> dict:
    """Disabled-mode observability must be free; enabled must be harmless.

    ``ObsConfig(enabled=False)`` keeps ``run_one`` on the exact no-hooks
    path, so its runtime ratio against a spec with no ``obs`` at all is
    asserted < 1.02 (min over interleaved reps; skipped under --smoke,
    where a single tiny rep is all noise).  The streaming recorder only
    samples the registry once per window, so ``stream=True`` is held to
    a 1.02 budget over plain enabled obs (its marginal cost, the
    stream-enabled vs stream-disabled ratio).  Every variant must
    reproduce the no-obs simulation result bit-exactly.
    """
    from repro.obs import ObsConfig

    name, ues, terminals, rbs, antennas, _ = SCENARIOS[1]
    subframes = 300 if smoke else 3_000
    base_spec = build_spec(name, ues, terminals, rbs, antennas, subframes)
    variants = {
        "none": base_spec,
        "disabled": base_spec.replace(obs=ObsConfig(enabled=False)),
        "enabled": base_spec.replace(obs=ObsConfig(enabled=True)),
        "stream": base_spec.replace(
            obs=ObsConfig(enabled=True, stream=True)
        ),
    }

    times = {key: float("inf") for key in variants}
    results = {}
    reps = 1 if smoke else 5
    for _ in range(reps):
        for key, spec in variants.items():
            plan = build_experiment(spec)
            start = perf_counter()
            result = plan.run_one("pf", capture=False)
            times[key] = min(times[key], perf_counter() - start)
            results[key] = result
    if results["disabled"] != results["none"]:
        raise AssertionError(
            "obs-disabled run is not bit-exact with the no-obs run"
        )
    if results["enabled"] != results["none"]:
        raise AssertionError("obs-enabled run changed simulation outcomes")
    if results["stream"] != results["none"]:
        raise AssertionError("streaming recorder changed simulation outcomes")
    if not results["stream"].obs_series or not results["stream"].obs_series.get(
        "rows"
    ):
        raise AssertionError("streaming run produced no time-series rows")

    disabled_ratio = times["disabled"] / times["none"]
    enabled_ratio = times["enabled"] / times["none"]
    stream_ratio = times["stream"] / times["enabled"]
    if not smoke and disabled_ratio > 1.02:
        raise AssertionError(
            f"disabled-mode obs overhead {disabled_ratio:.3f}x exceeds 1.02x"
        )
    if not smoke and stream_ratio > 1.02:
        raise AssertionError(
            f"streaming obs overhead {stream_ratio:.3f}x (vs enabled) "
            "exceeds 1.02x"
        )
    print(
        f"obs overhead ({subframes} subframes, min of {reps}): "
        f"disabled {disabled_ratio:.3f}x | enabled {enabled_ratio:.3f}x | "
        f"stream {stream_ratio:.3f}x (vs enabled)"
    )
    return {
        "subframes": subframes,
        "reps": reps,
        "disabled_ratio": disabled_ratio,
        "enabled_ratio": enabled_ratio,
        "stream_ratio": stream_ratio,
    }


def check_resilience_bit_exact() -> int:
    """Supervision and checkpoint/resume must never change results.

    Pins the opt-in contract of ``repro.resilience``: a supervised
    parallel grid, a checkpointed grid, and a killed-then-resumed grid
    all reproduce the plain serial grid bit-exactly.
    """
    import os
    import tempfile

    from repro.experiments import resume_checkpoint, run_experiment_grid
    from repro.resilience import SupervisorConfig

    failures = 0
    name, ues, terminals, rbs, antennas, _ = SCENARIOS[0]
    spec = build_spec(name, ues, terminals, rbs, antennas, 400)
    seeds = [0, 1]
    plain = run_experiment_grid(spec, seeds, n_jobs=1)

    supervised = run_experiment_grid(
        spec, seeds, n_jobs=2,
        supervisor=SupervisorConfig(timeout_s=600.0, max_retries=1),
    )
    if supervised == plain:
        print("bit-exact: supervised parallel grid")
    else:
        failures += 1
        print("DIVERGED: supervised parallel grid", file=sys.stderr)

    with tempfile.TemporaryDirectory() as tmp:
        checkpointed = run_experiment_grid(
            spec, seeds, n_jobs=1, checkpoint_dir=tmp
        )
        if checkpointed == plain:
            print("bit-exact: checkpointed grid")
        else:
            failures += 1
            print("DIVERGED: checkpointed grid", file=sys.stderr)

        # Simulate a mid-run kill: drop the last completed cell, resume.
        os.unlink(Path(tmp) / "cell-00001.json")
        kind, resumed = resume_checkpoint(tmp)
        if kind == "grid" and resumed == plain:
            print("bit-exact: killed-and-resumed grid")
        else:
            failures += 1
            print("DIVERGED: killed-and-resumed grid", file=sys.stderr)
    return failures


#: Every registered scheduler the equivalence sweep must cover.
CHECK_SCHEDULERS = ("pf", "speculative", "access-aware", "oracle")


def check_bit_exact() -> int:
    """Engine/reference equivalence, static + churn.

    Sweeps every scheduler (PF, speculative, access-aware, oracle) over
    every scenario with and without the churn timeline; each run also
    asserts it took the scheduler flavour its engine should (see
    :func:`timed_run`), so a silent fallback to the scalar flavour fails
    the check rather than trivially passing it.
    """
    import dataclasses

    failures = 0
    for name, ues, terminals, rbs, antennas, _ in SCENARIOS:
        for with_timeline in (False, True):
            base = build_spec(
                name, ues, terminals, rbs, antennas, 400,
                with_timeline=with_timeline,
            )
            for scheduler in CHECK_SCHEDULERS:
                spec = dataclasses.replace(
                    base, schedulers={scheduler: SchedulerSpec(scheduler)}
                )
                fast_result, _ = timed_run(spec, scheduler=scheduler)
                legacy_result, _ = timed_run(
                    spec, reference=True, scheduler=scheduler
                )
                label = (
                    f"{name}/{scheduler}"
                    f"{' +churn' if with_timeline else ''}"
                )
                if fast_result == legacy_result:
                    print(f"bit-exact: {label}")
                else:
                    failures += 1
                    print(f"DIVERGED: {label}", file=sys.stderr)
    failures += check_channels_bit_exact()
    failures += check_resilience_bit_exact()
    return 1 if failures else 0


def check_channels_bit_exact() -> int:
    """The channel axis must not perturb engine/reference equivalence.

    Three flavours per scheduler on the small scenario: a 1-channel plan
    (which must also reproduce the channel-free run bit-exactly), a
    3-channel blueprint assignment, and a 3-channel run under the
    per-channel duty-cycle drift timeline.
    """
    import dataclasses

    failures = 0
    name, ues, terminals, rbs, antennas, _ = SCENARIOS[0]
    base = build_spec(name, ues, terminals, rbs, antennas, 400)
    for scheduler in ("pf", "speculative"):
        spec = dataclasses.replace(
            base, schedulers={scheduler: SchedulerSpec(scheduler)}
        )
        plain_result, _ = timed_run(spec, scheduler=scheduler)
        single = spec.replace(channels=ChannelSpec())
        flavours = {
            "1ch": single,
            "3ch": channelize_spec(spec),
            "3ch +drift": channelize_spec(spec, with_drift=True),
        }
        for flavour, channel_spec in flavours.items():
            fast_result, _ = timed_run(channel_spec, scheduler=scheduler)
            legacy_result, _ = timed_run(
                channel_spec, reference=True, scheduler=scheduler
            )
            label = f"{name}/{scheduler} {flavour}"
            ok = fast_result == legacy_result
            if flavour == "1ch":
                ok = ok and fast_result == plain_result
            if ok:
                print(f"bit-exact: {label}")
            else:
                failures += 1
                print(f"DIVERGED: {label}", file=sys.stderr)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny subframe counts: exercise every path, skip the timings",
    )
    parser.add_argument(
        "--dynamics",
        action="store_true",
        help="also verify engine/reference bit-exactness under a churn "
        "timeline",
    )
    parser.add_argument(
        "--check-bit-exact",
        action="store_true",
        help="only run the engine/reference equivalence checks "
        "(static + churn)",
    )
    parser.add_argument(
        "--obs-overhead",
        action="store_true",
        help="only check the disabled/enabled observability overhead guard",
    )
    parser.add_argument(
        "--channels",
        action="store_true",
        help="also benchmark the multi-channel (3-channel blueprint "
        "assignment) flavour of every scenario",
    )
    parser.add_argument(
        "--deploy",
        action="store_true",
        help="also benchmark the 100-cell sharded campaign runner "
        "(with an n_jobs=1 vs n_jobs=N equality guard)",
    )
    parser.add_argument(
        "--deploy-jobs",
        type=int,
        default=4,
        help="worker count for the sharded deployment benchmark run",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=OUTPUT_PATH,
        help=f"where to write the JSON report (default: {OUTPUT_PATH})",
    )
    args = parser.parse_args(argv)

    if args.check_bit_exact:
        return check_bit_exact()
    if args.obs_overhead:
        entry = obs_overhead(args.smoke)
        if not args.smoke:
            merge_report(args.output, {"obs_stream": entry}, provenance())
            print(f"updated {args.output} (obs_stream)")
        return 0

    report = {"scenarios": {}}
    for name, ues, terminals, rbs, antennas, subframes in SCENARIOS:
        if args.smoke:
            subframes = 300
        spec = build_spec(name, ues, terminals, rbs, antennas, subframes)
        entry = bench_scenario(spec, subframes)
        report["scenarios"][name] = entry
        print(
            f"{name:>7s}: engine {entry['fast_subframes_per_s']:9.1f} sf/s | "
            f"reference {entry['legacy_subframes_per_s']:9.1f} sf/s | "
            f"speedup {entry['speedup']:.2f}x"
        )

    if args.dynamics:
        report["dynamics"] = {}
        for name, ues, terminals, rbs, antennas, subframes in SCENARIOS:
            if args.smoke:
                subframes = 400
            spec = build_spec(
                name, ues, terminals, rbs, antennas, subframes,
                with_timeline=True,
            )
            entry = bench_dynamics_scenario(spec, subframes)
            report["dynamics"][name] = entry
            print(
                f"{name:>7s} (churn): engine "
                f"{entry['fast_subframes_per_s']:9.1f} sf/s | reference "
                f"{entry['legacy_subframes_per_s']:9.1f} sf/s |"
                f" bit-exact over {entry['timeline_events']} events"
            )

    if args.channels:
        report["channels"] = {}
        for name, ues, terminals, rbs, antennas, subframes in SCENARIOS:
            if args.smoke:
                subframes = 300
            spec = channelize_spec(
                build_spec(name, ues, terminals, rbs, antennas, subframes)
            )
            entry = bench_scenario(spec, subframes)
            entry["num_channels"] = spec.channels.plan.num_channels
            report["channels"][name] = entry
            print(
                f"{name:>7s} (3ch): engine {entry['fast_subframes_per_s']:9.1f}"
                f" sf/s | reference {entry['legacy_subframes_per_s']:9.1f} sf/s"
                f" | speedup {entry['speedup']:.2f}x"
            )

    if args.deploy:
        report["deployment"] = bench_deployment(args.smoke, args.deploy_jobs)

    if not args.smoke:
        merge_report(args.output, report, provenance())
        print(f"updated {args.output} ({', '.join(report)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
