"""Run one benchmark workload inside a fresh interpreter.

``run.py`` starts this script once per workload, so set-up time, peak
memory and every module-level cache belong to that workload alone::

    python worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR [--smoke] [--setup-only]

The last line of standard output is one JSON object.  ``--setup-only``
times only the set-up: importing ``repro``, loading the compiled greedy
kernel, and building the workload's specs into plans.  An untraced run
starts such set-up probes between its repetitions.

The worker pins itself, and so every process it starts, to the CPUs the
workload uses (one for a cell, ``CAMPAIGN_JOBS`` for the campaign), and
samples their speed while it measures (``speed.py``): every time it
reports is the time the work would have taken at reference speed.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedSampler  # noqa: E402
from workloads import (  # noqa: E402
    CAMPAIGN_JOBS,
    VARIANTS,
    WORKLOADS,
    CampaignWorkload,
    CellWorkload,
    digest,
)

#: Stop starting repetitions after this long, whatever ``--seconds`` says,
#: so a slow machine still finishes well inside the 180 s run limit.
HARD_STOP_S = 120.0
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 8
#: Cell runs in the traced repetition, variants 0 to 3: enough scheduler
#: calls (at least 1 000 on every cell workload) that ten lie beyond their
#: p99.
TRACED_CELL_RUNS = 4

#: Layer metrics only a campaign has; cell workloads report them as 0.
CAMPAIGN_ONLY = (
    "resume_s", "supervisor.item_s_p50", "supervisor.item_s_p85",
    "supervisor.idle_share", "supervisor.retries", "supervisor.items",
    "checkpoint.bytes", "telemetry.events", "telemetry.bytes",
)
#: Layer metrics taken from the untraced repetitions of a traced run.
UNTRACED_LAYERS = ("wall.subframes_per_s", "machine.speed_ratio")

#: Units of the metrics whose name does not end in a unit suffix.
UNITS = {
    "subframes_per_s": "subframes/s",
    "wall.subframes_per_s": "subframes/s",
    "sched.kernel": "flag",
    "checkpoint.bytes": "bytes",
    "telemetry.bytes": "bytes",
}


def unit(name: str) -> str:
    """The unit of a metric, read off its name (after any ``_pNN``
    percentile suffix): ``_s`` seconds, ``_ms`` milliseconds, ``_mb``
    megabytes, ``_ratio``/``_share`` ratios, and counts otherwise."""
    if name in UNITS:
        return UNITS[name]
    last = re.sub(r"_p\d+\Z", "", name.rsplit(".", 1)[-1])
    if last.endswith("_s"):
        return "s"
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_mb"):
        return "MB"
    if last.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def with_units(values: dict) -> dict:
    return {name: {"value": value, "unit": unit(name)}
            for name, value in values.items()}


def pin_cpus(workload: str) -> list:
    """Pin this process and its future children to the CPUs ``workload``
    uses; return them."""
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[:CAMPAIGN_JOBS] if workload == "campaign" else allowed[-1:]
    os.sched_setaffinity(0, cpus)
    return cpus


def set_up(args):
    import repro  # noqa: F401
    from repro.core.scheduling._kernel import kernel_available

    kernel_available()
    if args.workload == "campaign":
        workload = CampaignWorkload(args.seed, args.smoke, Path(args.workdir))
    else:
        workload = CellWorkload(args.workload, args.seed, args.smoke)
    workload.setup()
    return workload, perf_counter() - _STARTED


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Tally:
    """Attempted and failed work plus the reference digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}

    def check(self, key, value: str) -> bool:
        """Record ``value`` for ``key`` (a variant, or the campaign);
        false when it disagrees with the first value seen for ``key``."""
        first = self.digests.setdefault(key, value)
        return first == value


class SetupProbes:
    """``setup_s`` samples, each a fresh interpreter running ``--setup-only``.

    Taken between repetitions rather than in a batch, so they meet the
    machine at as many moments as possible: other tenants of a shared
    machine slow it for seconds at a time, and only ever add time.
    """

    def __init__(self, argv: list) -> None:
        self.command = [sys.executable, str(Path(__file__).resolve()),
                        *argv, "--setup-only"]
        #: ``(start, end, setup_s)`` per probe; the probe runs between
        #: ``start`` and ``end``.
        self.samples: list = []

    def __call__(self) -> None:
        """Take one sample, unless there are enough."""
        if len(self.samples) < SETUP_PROBES:
            start = perf_counter()
            out = subprocess.run(self.command, stdout=subprocess.PIPE,
                                 text=True, check=True, timeout=60)
            end = perf_counter()
            line = out.stdout.strip().splitlines()[-1]
            self.samples.append((start, end, json.loads(line)["setup_s"]["value"]))

    def fill(self) -> None:
        while len(self.samples) < SETUP_PROBES:
            self()

    def values(self, sampler: SpeedSampler) -> list:
        """Each probe's set-up time at reference speed."""
        return [setup * sampler.speed(start, end)
                for start, end, setup in self.samples]


def finish(sampler: SpeedSampler, probes) -> None:
    """End the measured part of a run: take the set-up probes still
    missing, while the CPUs are still sampled, then stop sampling."""
    if probes is not None:
        probes.fill()
    sampler.stop()


def repeat(step, args, between=None) -> int:
    """Call ``step`` closed-loop, and ``between`` after each call; return
    how often ``step`` ran.

    At least twice (once before a traced rep), then while another call
    is expected to end inside the measured seconds (half of them when a
    traced rep follows).
    """
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_reps = 1 if args.trace else 2
    start, measured, reps = perf_counter(), 0.0, 0
    while True:
        if perf_counter() - start > HARD_STOP_S or (
            reps >= min_reps and measured * (reps + 1) / reps > seconds
        ):
            return reps
        begin = perf_counter()
        step()
        measured += perf_counter() - begin
        reps += 1
        if between is not None:
            between()


def run_cell(workload: CellWorkload, args, tally: Tally,
             sampler: SpeedSampler, probes=None) -> dict:
    intervals = []
    subframes = 0

    def rep() -> None:
        nonlocal subframes
        variant = tally.attempted % VARIANTS
        tally.attempted += 1
        start = perf_counter()
        try:
            result = workload.run(variant)
        except Exception:  # noqa: BLE001 - a failed rep is counted, not fatal
            traceback.print_exc()
            tally.failed += 1
            return
        end = perf_counter()
        if not tally.check(variant, digest(result.to_state())):
            log(f"{workload.name}: variant {variant} disagrees with its first run")
            tally.failed += 1
            return
        subframes = result.num_subframes
        intervals.append((start, end))

    reps = repeat(rep, args, probes)
    finish(sampler, probes)
    if not intervals:
        raise SystemExit(f"{workload.name}: no repetition completed")
    times = [end - start for start, end in intervals]
    out = {
        "reps": reps,
        "metrics": throughput(subframes, intervals, sampler),
        "detail": {"times_s": times, "subframes": subframes},
        "untraced_wall_s": statistics.median(times),
    }
    if args.trace:
        from tracing import LayerTrace

        trace = LayerTrace()
        with trace:
            results = [trace.wall(workload.run, variant)
                       for variant in range(TRACED_CELL_RUNS)]
        for variant, result in enumerate(results):
            tally.attempted += 1
            if not tally.check(variant, digest(result.to_state())):
                log(f"{workload.name}: traced variant {variant} changed its result")
                tally.failed += 1
        out["layers"] = {
            **dict.fromkeys(CAMPAIGN_ONLY, 0),
            **trace.metrics(results, TRACED_CELL_RUNS * out["untraced_wall_s"]),
            **{name: out["metrics"][name] for name in UNTRACED_LAYERS},
        }
        out["spans"] = trace.recorder
    # One digest per variant, None for a variant that never completed.
    out["digests"] = [tally.digests.get(v) for v in range(VARIANTS)]
    return out


def throughput(subframes: int, intervals: list, sampler: SpeedSampler) -> dict:
    """Rates over repetitions that each simulate ``subframes`` between
    one ``(start, end)`` of ``intervals``.

    ``subframes_per_s`` is the median over repetitions at reference
    speed; ``wall.subframes_per_s`` the rate of the median wall time, as
    measured; ``machine.speed_ratio`` the median speed of the CPUs.
    """
    times = [end - start for start, end in intervals]
    speeds = [sampler.speed(start, end) for start, end in intervals]
    return {
        "subframes_per_s": statistics.median(
            subframes / (time * speed) for time, speed in zip(times, speeds)
        ),
        "wall.subframes_per_s": subframes / statistics.median(times),
        "machine.speed_ratio": statistics.median(speeds),
    }


def supervisor_metrics(directory: Path, n_jobs: int) -> dict:
    """Dispatch timing from a campaign's own ``telemetry.jsonl``."""
    from repro.obs.telemetry import read_telemetry
    from tracing import percentile

    events = read_telemetry(directory)
    started, busy = {}, []
    first = last = None
    for event in events:
        kind = event["type"]
        if kind == "campaign-started":
            first = event["ts"]
        elif kind == "campaign-done":
            last = event["ts"]
        elif kind == "item-started":
            started[event["item"]] = event["ts"]
        elif kind == "item-done":
            busy.append(event["ts"] - started[event["item"]])
    span = (last - first) if first is not None and last is not None else 0.0
    return {
        "supervisor.item_s_p50": percentile(busy, 50),
        "supervisor.item_s_p85": percentile(busy, 85),
        "supervisor.idle_share": 1 - sum(busy) / (n_jobs * span) if span else 0.0,
        "supervisor.retries": sum(e["type"] == "retry" for e in events),
        "supervisor.items": len(busy),
    }


def campaign_rep(workload: CampaignWorkload, tag: str, n_jobs: int,
                 resume: bool, tally: Tally, section=None):
    """One checked repetition; returns its record or ``None`` on failure.

    Work attempted: every cluster of the fresh campaign, plus the
    resume-equals-fresh check when the rep resumes.
    """
    attempted = workload.deployment.num_clusters + resume
    tally.attempted += attempted
    try:
        out = workload.rep(tag, n_jobs, resume, section)
    except Exception:  # noqa: BLE001 - a failed rep is counted, not fatal
        traceback.print_exc()
        tally.failed += attempted
        return None
    campaign = out["campaign"]
    fresh_digest = digest(workload.cell_states(campaign))
    tally.failed += len(campaign.failed_clusters)
    if not tally.check("campaign", fresh_digest):
        log(f"campaign rep {tag} disagrees with rep 0")
        tally.failed += 1
    if resume:
        resumed = out["resumed"]
        out["clean"] = (
            out["audit"].ok
            and not resumed.failed_clusters
            and digest(workload.cell_states(resumed)) == fresh_digest
        )
        if not out["clean"]:
            log(f"campaign rep {tag}: resume is not equal to fresh: "
                f"{out['audit'].violations}")
            tally.failed += 1
    out["digest"] = fresh_digest
    out["subframes"] = sum(r.num_subframes for r in campaign.cell_results.values())
    out["supervisor"] = supervisor_metrics(out["fresh_dir"], n_jobs)
    return out


def cleanup(out) -> None:
    for key in ("fresh_dir", "resumed_dir"):
        shutil.rmtree(out[key], ignore_errors=True)


def run_campaign_workload(workload: CampaignWorkload, args, tally: Tally,
                          sampler: SpeedSampler, probes=None) -> dict:
    reps = []
    resumes = []

    def rep() -> None:
        # One resume per run checks resume-equals-fresh; later reps time
        # fresh campaigns only, so more of them fit in the run.
        out = campaign_rep(workload, f"rep{len(reps)}", CAMPAIGN_JOBS,
                           not resumes, tally)
        if out is not None:
            cleanup(out)
            reps.append(out)
            if "resume_s" in out:
                resumes.append(out)

    repeat(rep, args, probes)
    finish(sampler, probes)
    if not resumes:
        raise SystemExit("campaign: no resumed repetition completed")
    fresh = [r["fresh_s"] for r in reps]
    resume = resumes[0]
    result = {
        "reps": len(reps),
        "digests": [reps[0]["digest"]],
        "metrics": {
            **throughput(reps[0]["subframes"],
                         [r["fresh_interval"] for r in reps], sampler),
            "resume_s": resume["resume_s"],
        },
        "detail": {
            "fresh_s": fresh,
            "resume_s": resume["resume_s"],
            "clusters": workload.deployment.num_clusters,
            "audit_clean": resume["clean"],
            "audit_violations": resume["audit"].violations,
        },
        "untraced_wall_s": statistics.median(fresh) + resume["resume_s"],
    }
    supervisor = {
        key: statistics.median(r["supervisor"][key] for r in reps)
        for key in reps[0]["supervisor"]
    }
    result["detail"]["supervisor"] = supervisor
    if args.trace:
        from tracing import LayerTrace

        trace = LayerTrace()
        with trace:
            out = campaign_rep(workload, "traced", 1, True, tally,
                               section=trace.wall)
        if out is None:
            raise SystemExit("campaign: the traced repetition failed")
        results = list(out["campaign"].cell_results.values())
        layers = trace.metrics(results, result["untraced_wall_s"])
        layers.update(supervisor)
        for name in ("resume_s", *UNTRACED_LAYERS):
            layers[name] = result["metrics"][name]
        layers.update(telemetry_and_checkpoint_bytes(out, workload))
        cleanup(out)
        result["layers"] = layers
        result["spans"] = trace.recorder
    return result


def telemetry_and_checkpoint_bytes(out, workload: CampaignWorkload) -> dict:
    """Sizes of what the traced fresh run and its resume wrote."""
    from repro.obs.telemetry import TELEMETRY_FILENAME, read_telemetry
    from repro.resilience import CheckpointStore

    fresh, resumed = CheckpointStore(out["fresh_dir"]), CheckpointStore(out["resumed_dir"])
    written = sum(
        fresh.cell_path(i).stat().st_size
        for i in range(workload.deployment.num_clusters)
    ) + sum(resumed.cell_path(i).stat().st_size for i in workload.recomputed)
    # The resumed log starts as a copy of the fresh one, so it holds both.
    log_path = out["resumed_dir"] / TELEMETRY_FILENAME
    return {
        "checkpoint.bytes": written,
        "telemetry.events": len(read_telemetry(out["resumed_dir"])),
        "telemetry.bytes": log_path.stat().st_size,
    }


def peak_rss_mb() -> float:
    """Max resident set of this process and of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cpus = None if args.setup_only else pin_cpus(args.workload)
    workload, setup_s = set_up(args)
    if args.setup_only:
        print(json.dumps(with_units({"setup_s": setup_s})))
        return 0

    import numpy
    from repro.core.scheduling._kernel import kernel_available

    tally = Tally()
    probes = None if args.trace else SetupProbes(
        sys.argv[1:] if argv is None else argv
    )
    with SpeedSampler(cpus) as sampler:
        workload.warm_up()
        if args.workload == "campaign":
            out = run_campaign_workload(workload, args, tally, sampler, probes)
            n_jobs = 1 if args.trace else CAMPAIGN_JOBS
        else:
            out = run_cell(workload, args, tally, sampler, probes)
            n_jobs = 1
    spans = out.pop("spans", None)
    if spans is not None:
        spans.write(Path(args.workdir) / f"spans-{args.workload}-{args.seed}.json")
    if probes is not None:
        out["metrics"]["peak_rss_mb"] = peak_rss_mb()
        values = probes.values(sampler)
        out["metrics"]["setup_s"] = statistics.median(values)
        out["detail"]["setup_probes_s"] = values
    out["metrics"] = with_units(out["metrics"])
    if "layers" in out:
        out["layers"] = with_units(out["layers"])
    out.update({
        "workload": args.workload,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "worker_setup_s": setup_s,
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_available": kernel_available(),
            "REPRO_DISABLE_KERNEL": os.environ.get("REPRO_DISABLE_KERNEL"),
            "n_jobs": n_jobs,
        },
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
