"""A 1-channel ChannelPlan must be invisible to the engine — bit-exactly.

The committed ``tests/sim/data/engine_snapshots.json`` dumps were produced
by the channel-free engine.  These tests wrap each snapshot scenario's
topology in a :class:`MultiChannelTopology` over the default single-channel
plan, resolve the trivial all-on-channel-0 assignment through
``effective_topology``, and require the engine to reproduce the committed
results field for field — on the production engine, the scalar reference
engine in ``tests/reference/``, and with the compiled kernel disabled.  Any RNG-stream or edge-ordering drift introduced
by the channel axis shows up here as a hard failure.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.sim.engine import CellSimulation
from repro.spectrum import ChannelPlan
from repro.topology.multichannel import MultiChannelTopology
from tests.reference import ReferenceCellSimulation
from tests.sim.test_pipeline_equivalence import snapshot_cases

SNAPSHOT_PATH = Path(__file__).parent / "data" / "engine_snapshots.json"


@pytest.fixture(scope="module")
def snapshots():
    with SNAPSHOT_PATH.open() as fh:
        return json.load(fh)


def run_channelized(name, fast):
    for case, topology, snrs, config, timeline in snapshot_cases():
        if case != name:
            continue
        multi = MultiChannelTopology.from_base(topology, ChannelPlan.default())
        resolved = multi.effective_topology((0,) * topology.num_ues)
        assert resolved == topology
        engine = CellSimulation if fast else ReferenceCellSimulation
        return engine(
            topology=resolved,
            mean_snr_db=snrs,
            scheduler=ProportionalFairScheduler(),
            config=config,
            seed=11,
            timeline=timeline,
        ).run()
    raise KeyError(name)


class TestSingleChannelBitExact:
    @pytest.mark.parametrize("case", ["static", "churn", "mumimo-harq"])
    @pytest.mark.parametrize("path", ["fast", "legacy"])
    def test_reproduces_snapshot(self, snapshots, case, path):
        result = run_channelized(case, fast=(path == "fast"))
        assert result.to_dict() == snapshots[f"{case}:{path}"]

    def test_reproduces_snapshot_without_kernel(self, snapshots, monkeypatch):
        monkeypatch.setitem(os.environ, "REPRO_DISABLE_KERNEL", "1")
        result = run_channelized("static", fast=True)
        assert result.to_dict() == snapshots["static:fast"]
