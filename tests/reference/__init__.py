"""The scalar per-UE reference engine: the test oracle for the engine.

It keeps the scalar formulation the array-native
:class:`~repro.sim.engine.CellSimulation` replaced: per-UE
:class:`~repro.lte.channel.UplinkChannel` objects with dict CSI, per-terminal
activity stepping with edge-set intersection, the generic per-RB receiver,
and the scalar ``SchedulingContext(vectorized=False)`` scheduler flavour.
It draws the same random numbers in the same order (the parent generator
seeds the default activity processes, then each UE channel, then the eNB),
so a seeded run equals the engine's field for field; both must reproduce
``tests/sim/data/engine_snapshots.json``.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.core.scheduling.types import SchedulingContext
from repro.lte import consts
from repro.lte.channel import UplinkChannel
from repro.lte.enb import ENodeB, SubframeReception
from repro.lte.noma import receive_rb_sic
from repro.lte.phy import receive_rb
from repro.sim import stages
from repro.sim.engine import CellSimulation

__all__ = ["ReferenceCellSimulation", "reference_simulation"]


class _SeedRecorder(np.random.Generator):
    """``np.random.default_rng(seed)`` that records the child seeds it
    hands out (``default_rng`` passes a generator through unchanged)."""

    def __init__(self, seed) -> None:
        super().__init__(np.random.PCG64(seed))
        self.child_seeds: List[int] = []

    def integers(self, *args, **kwargs):
        value = super().integers(*args, **kwargs)
        self.child_seeds.append(value)
        return value


class ChannelObjects:
    """Per-UE channel objects behind the engine's channel-bank surface."""

    def __init__(self, channels: List[UplinkChannel]) -> None:
        self.channels = channels

    @property
    def sinr_db(self) -> np.ndarray:
        return np.stack([channel.sinr_db for channel in self.channels])

    def adjust_mean_snr_db(self, ue: int, delta_db: float) -> None:
        self.channels[ue].adjust_mean_snr_db(delta_db)


class ReferenceENodeB(ENodeB):
    """The eNB with the generic per-RB receiver."""

    def receive_subframe(self, subframe, schedule, transmitting_ues,
                         sinr_db_by_ue_rb) -> SubframeReception:
        transmitting = set(transmitting_ues)
        result = SubframeReception(subframe=subframe)
        receive = receive_rb_sic if self.receiver == "sic" else receive_rb
        for rb in schedule.allocated_rbs():
            rb_schedule = schedule.rb(rb)
            senders = [u for u in rb_schedule.ue_ids if u in transmitting]
            result.rb_receptions[rb] = receive(
                rb_schedule=rb_schedule,
                transmitting_ues=senders,
                sinr_db_by_ue={
                    ue: float(sinr_db_by_ue_rb[ue][rb])
                    for ue in senders
                    if ue in sinr_db_by_ue_rb
                },
                num_antennas=self.num_antennas,
                subframe_duration_s=consts.SUBFRAME_DURATION_S,
                rate_scale=self.rate_scale,
            )
        return result


class LegacyInterferenceStage(stages.InterferenceStage):
    """Per-terminal process stepping + per-UE edge-set intersection."""

    def run(self, sim, ctx) -> None:
        active = sim._activity.step()
        if sim._silencer is not None:
            ctx.silenced = set(sim._silencer(active))
        else:
            ctx.silenced = {
                ue for ue, edges in sim._ue_edges.items() if edges & active
            }


class LegacyChannelStage(stages.ChannelStage):
    """Per-UE channel objects stepped one by one; dict CSI snapshots."""

    def run(self, sim, ctx) -> None:
        for channel in sim._bank.channels:
            channel.step()
        sim._csi_history.append(
            {ue: ch.sinr_db.copy() for ue, ch in enumerate(sim._bank.channels)}
        )


class ReferenceCellSimulation(CellSimulation):
    """:class:`CellSimulation` on the scalar substrate (same arguments;
    ``seed`` is an int or ``None``).  The scalar channels, receiver and
    stages replace what the production constructor built."""

    def __init__(self, topology, mean_snr_db, scheduler, config=None, *,
                 seed=None, **kwargs) -> None:
        parent = _SeedRecorder(seed)
        super().__init__(
            topology, mean_snr_db, scheduler, config, seed=parent, **kwargs
        )
        # The last child seeds went to the UE channels, then to the eNB.
        num_ues = topology.num_ues
        assert len(parent.child_seeds) >= num_ues + 1
        self._bank = ChannelObjects([
            UplinkChannel(
                mean_rx_power_dbm=consts.NOISE_FLOOR_10MHZ_DBM + mean_snr_db[ue],
                num_rbs=self.config.num_rbs,
                doppler_coherence=self.config.doppler_coherence,
                rng=np.random.default_rng(child),
            )
            for ue, child in enumerate(parent.child_seeds[-num_ues - 1:-1])
        ])
        # Same eNB state and RNG stream; only the receiver differs.
        self.enb.__class__ = ReferenceENodeB
        self._ue_edges = topology.ue_edge_map()
        self.pipeline = stages.SubframePipeline(
            [
                stages.TimelineStage(),
                LegacyInterferenceStage(),
                LegacyChannelStage(),
                stages.ArrivalStage(),
                stages.ScheduleStage(),
                stages.TransmitDecodeStage(),
                stages.HarqFeedbackStage(),
            ],
            hooks=self.pipeline.hooks,
        )

    def set_topology(self, topology) -> None:
        super().set_topology(topology)
        self._ue_edges = topology.ue_edge_map()

    def _context(self, subframe: int, silenced: Set[int]) -> SchedulingContext:
        ues = range(self.topology.num_ues)
        return SchedulingContext(
            subframe=subframe,
            num_rbs=self.config.num_rbs,
            num_antennas=self.config.num_antennas,
            ue_ids=tuple(
                ue for ue in ues
                if ue in self._active_ues and self._queues[ue].backlogged
            ),
            sinr_db=self._csi_history[0],
            avg_throughput_bps=self.tracker.averages(),
            max_distinct_ues=self.config.max_distinct_ues,
            clear_ues=frozenset(ue for ue in ues if ue not in silenced),
            rate_scale=float(self.config.rb_group_size),
            link_margin_db=self.config.link_margin_db,
            vectorized=False,
        )


def reference_simulation(plan, name: str, *, seed=None, **overrides):
    """The reference counterpart of ``plan.simulation(name, ...)`` for a
    built :class:`~repro.experiments.ExperimentPlan`."""
    spec = plan.spec
    overrides.setdefault("record_series", spec.record_series)
    return ReferenceCellSimulation(
        plan.topology, plan.mean_snr_db, plan.build_scheduler(name), spec.sim,
        seed=spec.seed if seed is None else seed, timeline=plan.timeline,
        **overrides,
    )
