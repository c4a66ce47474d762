"""Self-test of the benchmark at smoke sizes (about half a minute).

    PYTHONPATH=src python -m pytest benchmarks/blu_bench/test_blu_bench.py

Runs ``run.py --smoke`` with ``--trace 0`` and ``--trace 1`` and checks
that every metric ``BENCHMARK.json`` declares is emitted, for every
workload, with the unit it declares (the benchmark derives each unit
from the metric's name, independently of ``BENCHMARK.json``), that names
are well formed, and that the campaign's resume audit is clean.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(directory: Path, trace: int):
    """Run the smoke benchmark; return its summary line and record."""
    out = directory / "result.json"
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert process.returncode == 0, process.stderr[-3000:]
    summary = json.loads(process.stdout.strip().splitlines()[-1])
    (record,) = json.loads(out.read_text())["runs"].values()
    return summary, record


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("untraced"), trace=0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("traced"), trace=1)


@pytest.mark.parametrize("run, kind", [
    ("untraced", "end_to_end"), ("traced", "per_layer"),
])
def test_every_declared_metric_is_emitted_with_its_unit(
    request, declared, run, kind
):
    summary, record = request.getfixturevalue(run)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert set(record["workloads"]) == {w["name"] for w in declared["workloads"]}
    for workload, result in record["workloads"].items():
        for metric in declared[kind]:
            emitted = summary["metrics"][f"{workload}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))


def test_names_are_well_formed_and_unique(declared, untraced):
    names = [w["name"] for w in declared["workloads"]] + [
        m["name"] for kind in ("end_to_end", "per_layer") for m in declared[kind]
    ]
    assert len(names) == len(set(names))
    summary, _ = untraced
    assert all(NAME.match(name) for name in names + list(summary["metrics"]))


def test_campaign_resume_audit_is_clean(untraced):
    _, record = untraced
    campaign = record["workloads"]["campaign"]
    assert campaign["detail"]["audit_clean"]
    assert campaign["detail"]["audit_violations"] == []
    assert campaign["digests"] == campaign["digests_expected"]
