"""The committed obs demo specs must keep producing the same telemetry.

``tests/obs/data/demo_snapshots.json`` holds the metrics snapshot of every
scheduler of ``specs/obs_demo.json`` and ``specs/multichannel_demo.json``
(the latter with the per-channel ``engine.channel_grant_outcomes{channel=…}``
families).  The engine's outcome tallies feed these counters, so a change
in how reception is decoded or counted shows up here as a difference —
in a value, or in the order series first appear.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import ExperimentSpec, build_experiment

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "data" / "demo_snapshots.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", ["obs_demo", "multichannel_demo"])
def test_demo_snapshot_unchanged(golden, name):
    spec = ExperimentSpec.from_dict(
        json.loads((ROOT / "specs" / f"{name}.json").read_text())
    )
    plan = build_experiment(spec)
    expected = golden[name]
    assert list(expected) == list(spec.schedulers)
    for scheduler, snapshot in expected.items():
        # Serialized, so series order counts as well as values.
        assert json.dumps(plan.run_one(scheduler).obs_snapshot) == json.dumps(
            snapshot
        ), f"{name}/{scheduler}"
    if name == "multichannel_demo":
        family = expected["pf"]["engine.channel_grant_outcomes"]
        assert family["labels"] == ["channel", "outcome"]
        assert len(family["series"]) > 1
