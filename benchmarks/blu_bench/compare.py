"""Summarize result files and compare two of them against the bounds.

    python benchmarks/blu_bench/compare.py BASE.json [NEW.json]

For every workload and end-to-end metric of ``BENCHMARK.json``: the
number of runs, the median, the quartiles and the spread (interquartile
distance over the median).  With ``NEW.json`` it also prints how far the
new median moved, as a share of the base median, and flags a move in
the worse direction that exceeds the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def values(path: Path) -> dict:
    """``{(workload, metric): [value per run]}`` for untraced runs."""
    out = defaultdict(list)
    for run in json.loads(path.read_text())["runs"].values():
        if run["provenance"]["trace"]:
            continue
        for workload, result in run["workloads"].items():
            for name, metric in result["emitted"].items():
                out[workload, name].append(metric["value"])
    return out


def describe(samples: list) -> str:
    if len(samples) < 2:
        return f"n={len(samples)} median={samples[0]:.6g}"
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (f"n={len(samples)} median={median:.6g} "
            f"q1={q1:.6g} q3={q3:.6g} spread={(q3 - q1) / median:.2%}")


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = values(Path(argv[0]))
    new = values(Path(argv[1])) if len(argv) == 2 else None
    worse = 0
    for workload in sorted({w for w, _ in base}):
        print(workload)
        for metric in metrics:
            key = (workload, metric["name"])
            if key not in base:
                continue
            print(f"  {metric['name']:<16s} base {describe(base[key])}")
            if not new or key not in new:
                continue
            print(f"  {'':<16s} new  {describe(new[key])}")
            change = statistics.median(new[key]) / statistics.median(base[key]) - 1
            sign = 1 if metric["better"] == "lower" else -1
            verdict = "worse than bound" if sign * change > metric["bound"] else "ok"
            worse += verdict != "ok"
            print(f"  {'':<16s} median change {change:+.2%} "
                  f"(bound {metric['bound']:.0%}): {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
