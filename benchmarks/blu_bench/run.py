"""BLU campaign benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    PYTHONPATH=src python benchmarks/blu_bench/run.py [--seed N]
        [--workload NAME ...] [--seconds S] [--trace 0|1] [--smoke]
        [--out FILE]

Each workload runs closed-loop (a repetition starts when the previous one
ends) in its own fresh interpreter, for ``--seconds`` seconds (default:
``run_seconds`` of ``BENCHMARK.json``).  With ``--trace 0`` the command
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``,
one extra traced repetition per workload gives the per-layer metrics.
``--workload``, ``--seed``, ``--seconds`` and ``--trace`` together are
the form in which regression tooling calls the ``command`` of
``BENCHMARK.json``.  Outputs are checked (repetitions agree,
resumed campaigns equal fresh ones, and at the default seed the results
match ``expected.json``); the command exits non-zero when a check fails.
Every run is recorded, with provenance, in a JSON file that later runs
only add to.  The last line of standard output is a JSON summary:
``{"correct", "attempted", "failed", "metrics"}``.

See ``README.md`` next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space (git-ignored): kernel build cache, campaign directories,
#: spans, results.
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SMOKE_SECONDS = 1.0
CHILD_TIMEOUT_S = 170
#: ``--trace`` fails when more of the traced wall time than this is
#: outside every named layer.
MAX_UNATTRIBUTED = 0.05


def git_sha() -> str:
    """HEAD of the checkout (``-dirty`` with uncommitted changes to
    tracked files), or ``unknown`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child(args: list) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its JSON line.

    The child gets its own session so a timeout also stops the campaign
    pool workers it started.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""),
        # The compiled kernel is cached under TMPDIR: keep it in the checkout.
        TMPDIR=str(tmp),
    )
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"worker timed out after {CHILD_TIMEOUT_S} s: {args}")
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(f"worker failed (exit {process.returncode}): {args}")
    return json.loads(lines[-1])


def run_workload(name: str, args, expected: dict) -> dict:
    out = child(["--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--workdir", str(WORK / "runs" / name)]
                + (["--smoke"] if args.smoke else []))
    reference = (
        expected["smoke" if args.smoke else "full"].get(name)
        if args.seed == expected["seed"] else None
    )
    out["digests_expected"] = reference
    for variant, found in enumerate(out["digests"]):
        if reference is not None and found is not None and found != reference[variant]:
            print(f"{name}: variant {variant} digest {found} != expected "
                  f"{reference[variant]}", file=sys.stderr)
            out["failed"] = out["attempted"]
    out["failed_fraction"] = out["failed"] / out["attempted"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                        f"run_seconds of BENCHMARK.json, {SMOKE_SECONDS:g} "
                        "with --smoke)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercise every path in seconds")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file to add this run to (default: a "
                        "new file under .work/results/ next to this "
                        "script)")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(benchmark["run_seconds"])
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    expected = json.loads((HERE / "expected.json").read_text())

    results = {name: run_workload(name, args, expected) for name in workloads}

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    trace_ok = True
    for name, out in results.items():
        values = out["layers"] if args.trace else out["metrics"]
        print(f"\n{name}: {out['reps']} reps, {out['attempted']} attempted, "
              f"{out['failed']} failed, digest {(out['digests'][0] or '-')[:12]}")
        out["emitted"] = {}
        for metric in declared:
            emitted = values[metric["name"]]
            print(f"  {metric['name']:<32s} {emitted['value']:>16.6g} "
                  f"{emitted['unit']}")
            out["emitted"][metric["name"]] = emitted
            key = metric["name"] if len(results) == 1 else f"{name}.{metric['name']}"
            summary["metrics"][key] = emitted
        summary["attempted"] += out["attempted"]
        summary["failed"] += out["failed"]
        summary["correct"] = summary["correct"] and out["failed"] == 0
        unattributed = values["trace.unattributed_share"]["value"] if args.trace else 0
        if unattributed > MAX_UNATTRIBUTED:
            print(f"{name}: {unattributed:.1%} of the traced wall time is "
                  f"unattributed", file=sys.stderr)
            trace_ok = False

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    run_id = f"{stamp}-seed{args.seed}{'-trace' if args.trace else ''}"
    record = {
        "provenance": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "trace": args.trace,
        },
        "workloads": results,
    }
    path = args.out or WORK / "results" / f"{run_id}.json"
    add_run(path, run_id, record)
    print(f"\nrecorded run {run_id} in {path}")
    print(json.dumps(summary))
    return 0 if summary["correct"] and trace_ok else 1


def add_run(path: Path, run_id: str, record: dict) -> None:
    """Add ``record`` to the result file; never rewrite an existing run."""
    data = json.loads(path.read_text()) if path.is_file() else {"runs": {}}
    key, suffix = run_id, 2
    while key in data["runs"]:
        key, suffix = f"{run_id}-{suffix}", suffix + 1
    data["runs"][key] = record
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    os.replace(partial, path)


if __name__ == "__main__":
    raise SystemExit(main())
