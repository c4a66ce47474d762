"""``benchmarks/bench_perf_engine.py`` merges its report instead of
overwriting it: a run replaces the entries it measured, keeps every other
one, and stamps what it wrote with its provenance."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_perf_engine.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_perf_engine", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_provenance_names_revision_numpy_cores_and_kernel(bench):
    stamp = bench.provenance()
    assert set(stamp) == {"git_sha", "numpy", "nproc", "kernel"}
    assert stamp["nproc"] >= 1
    assert isinstance(stamp["kernel"], bool)


def test_merge_keeps_entries_it_did_not_remeasure(bench, tmp_path):
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps({
        "scenarios": {"small": {"speedup": 1.0}},
        "channels": {"small": {"speedup": 2.0}},
        "obs_stream": {"stream_ratio": 1.01},
    }))
    stamp = {"git_sha": "abc", "numpy": "2.0", "nproc": 2, "kernel": True}
    bench.merge_report(path, {"scenarios": {"medium": {"speedup": 3.0}}}, stamp)
    report = json.loads(path.read_text())
    assert report["channels"] == {"small": {"speedup": 2.0}}
    assert report["obs_stream"] == {"stream_ratio": 1.01}
    assert report["scenarios"] == {
        "medium": {"speedup": 3.0}, "provenance": stamp,
    }


def test_full_run_merges_into_existing_report(bench, tmp_path, monkeypatch):
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps({"deployment": {"cells": 100}}))
    monkeypatch.setattr(bench, "SCENARIOS", (("tiny", 3, 1, 4, 1, 60),))
    assert bench.main(["--output", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["deployment"] == {"cells": 100}
    assert set(report["scenarios"]) == {"tiny", "provenance"}
    assert report["scenarios"]["tiny"]["subframes"] == 60
    assert set(report["scenarios"]["provenance"]) == {
        "git_sha", "numpy", "nproc", "kernel",
    }
