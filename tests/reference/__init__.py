"""The scalar per-UE reference engine: the test oracle for the engine.

It keeps the scalar formulation the array-native
:class:`~repro.sim.engine.CellSimulation` replaced: per-UE
:class:`~repro.lte.channel.UplinkChannel` objects with dict CSI, per-terminal
activity stepping with edge-set intersection, the generic per-RB receiver
(:func:`repro.lte.phy.receive_rb` / :func:`repro.lte.noma.receive_rb_sic`)
with object-walking outcome accounting, HARQ and pilot classification, and
the scalar ``SchedulingContext(vectorized=False)`` scheduler flavour.
It draws the same random numbers in the same order (the parent generator
seeds the default activity processes, then each UE channel, then the eNB),
so a seeded run equals the engine's field for field; both must reproduce
``tests/sim/data/engine_snapshots.json``.  Nothing under ``src/`` imports it.

The control plane's oracles sit beside it: :mod:`tests.reference.measurement`
(Algorithm 1) and :mod:`tests.reference.blueprint` (gradient repair); so
does :mod:`tests.reference.deploy` (the scalar deployment build).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

import numpy as np

from repro.core.measurement.classifier import AccessObservation
from repro.core.scheduling.types import SchedulingContext
from repro.lte import consts, mcs, noma, phy
from repro.lte.channel import UplinkChannel
from repro.lte.enb import ENodeB
from repro.lte.phy import GrantOutcome, RBReception
from repro.sim import stages
from repro.sim.engine import CellSimulation

__all__ = [
    "ObjectReception",
    "ReferenceCellSimulation",
    "legacy_classify_subframe",
    "reference_simulation",
]


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


@dataclass
class ObjectReception:
    """One uplink subframe's reception as per-RB objects."""

    subframe: int
    rb_receptions: Dict[int, RBReception] = field(default_factory=dict)


class ReferenceENodeB(ENodeB):
    """The eNB with the generic per-RB receiver.  The receivers are looked
    up on their modules at call time, so a test can count the calls."""

    def receive_subframe(self, subframe, schedule, transmitting_ues,
                         sinr_db_by_ue_rb) -> ObjectReception:
        transmitting = set(transmitting_ues)
        result = ObjectReception(subframe=subframe)
        receive = noma.receive_rb_sic if self.receiver == "sic" else phy.receive_rb
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


def legacy_classify_subframe(schedule, reception) -> AccessObservation:
    """Pilot classification by walking the per-RB reception objects."""
    scheduled: Set[int] = set(schedule.scheduled_ues())
    outcome_by_ue: Dict[int, Set[GrantOutcome]] = {ue: set() for ue in scheduled}
    for rb_reception in reception.rb_receptions.values():
        for ue, outcome in rb_reception.outcomes.items():
            outcome_by_ue.setdefault(ue, set()).add(outcome)

    accessed: Set[int] = set()
    blocked: Set[int] = set()
    collided: Set[int] = set()
    faded: Set[int] = set()
    decoded: Set[int] = set()
    for ue, outcomes in outcome_by_ue.items():
        if outcomes and outcomes != {GrantOutcome.BLOCKED}:
            accessed.add(ue)
        else:
            blocked.add(ue)
        if GrantOutcome.DECODED in outcomes:
            decoded.add(ue)
        elif GrantOutcome.COLLIDED in outcomes:
            collided.add(ue)
        elif GrantOutcome.FADED in outcomes:
            faded.add(ue)

    return AccessObservation(
        subframe=reception.subframe,
        scheduled=frozenset(scheduled),
        accessed=frozenset(accessed),
        blocked=frozenset(blocked),
        collided=frozenset(collided),
        faded=frozenset(faded),
        decoded=frozenset(decoded),
    )


def legacy_apply_harq(sim, schedule, reception, transmitting, raw_delivered):
    """HARQ resolution by walking the schedule's grants and the per-RB
    reception objects (see ``CellSimulation._apply_harq``)."""
    harq = sim._harq
    delivered = dict(raw_delivered)
    retx_grant: Dict[int, tuple] = {}
    for rb in schedule.allocated_rbs():
        rb_reception = reception.rb_receptions[rb]
        for grant in schedule.rb(rb):
            ue = grant.ue_id
            outcome = rb_reception.outcomes[ue]
            if (
                ue not in retx_grant
                and harq.pending(ue) is not None
                and outcome in (GrantOutcome.DECODED, GrantOutcome.FADED)
            ):
                retx_grant[ue] = (rb, grant, outcome)

    sinr = sim._bank.sinr_db
    consumed = set()
    for ue, (rb, grant, outcome) in retx_grant.items():
        sinr_db = float(sinr[ue, rb])
        energy = 10.0 ** (sinr_db / 10.0)
        recovered = harq.retransmission_result(ue, energy)
        if outcome is GrantOutcome.DECODED:
            delivered[ue] = delivered.get(ue, 0.0) - grant.rate_bps * (
                consts.SUBFRAME_DURATION_S
            )
            if delivered.get(ue, 0.0) <= 1e-12:
                delivered.pop(ue, None)
        if recovered is not None:
            delivered[ue] = delivered.get(ue, 0.0) + recovered
        consumed.add((ue, rb))

    for rb in schedule.allocated_rbs():
        rb_reception = reception.rb_receptions[rb]
        for grant in schedule.rb(rb):
            ue = grant.ue_id
            if (ue, rb) in consumed:
                continue
            if rb_reception.outcomes[ue] is GrantOutcome.FADED:
                sinr_db = float(sinr[ue, rb])
                per_rb_rate = grant.rate_bps / max(sim.config.rb_group_size, 1)
                try:
                    required_db = mcs.min_sinr_db_for_rate(per_rb_rate)
                except ValueError:
                    continue
                harq.first_attempt_failed(
                    ue,
                    bits=grant.rate_bps * consts.SUBFRAME_DURATION_S,
                    required_sinr_linear=10.0 ** (required_db / 10.0),
                    attempt_sinr_linear=10.0 ** (sinr_db / 10.0),
                )
    for ue in set(schedule.scheduled_ues()) - transmitting:
        if harq.pending(ue) is not None:
            harq.retransmission_blocked(ue)
    return delivered


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


class LegacyTransmitDecodeStage(stages.TransmitDecodeStage):
    """The per-RB receiver, then one pass over the reception objects for
    the outcome counters and raw delivered bits."""

    def run(self, sim, ctx) -> None:
        schedule = ctx.schedule
        result = ctx.result
        scheduled = set(schedule.scheduled_ues())
        ctx.transmitting = sorted(scheduled - ctx.silenced)
        sinr = sim._bank.sinr_db
        reception = sim.enb.receive_subframe(
            subframe=ctx.subframe,
            schedule=schedule,
            transmitting_ues=ctx.transmitting,
            sinr_db_by_ue_rb={ue: sinr[ue] for ue in scheduled},
        )
        ctx.reception = reception

        decoded = blocked = collided = faded = utilized = 0
        raw_delivered: Dict[int, float] = {}
        for rb_reception in reception.rb_receptions.values():
            rb_decoded = False
            for outcome in rb_reception.outcomes.values():
                if outcome is GrantOutcome.DECODED:
                    decoded += 1
                    rb_decoded = True
                elif outcome is GrantOutcome.BLOCKED:
                    blocked += 1
                elif outcome is GrantOutcome.COLLIDED:
                    collided += 1
                else:
                    faded += 1
            if rb_decoded:
                utilized += 1
            for ue, bits in rb_reception.delivered_bits.items():
                raw_delivered[ue] = raw_delivered.get(ue, 0.0) + bits
        ctx.raw_delivered = raw_delivered

        result.grants_issued += schedule.total_grants
        result.grants_decoded += decoded
        result.grants_blocked += blocked
        result.grants_collided += collided
        result.grants_faded += faded
        allocated = schedule.allocated_rbs()
        result.rbs_allocated += len(allocated)
        result.rbs_utilized += utilized
        result.ul_subframes += 1
        if allocated and utilized == len(allocated):
            result.fully_utilized_subframes += 1
        if sim.record_series and allocated:
            result.utilization_series.append(utilized / len(allocated))


class LegacyHarqFeedbackStage(stages.HarqFeedbackStage):
    """HARQ, buffers, PF and pilot classification over the reception
    objects."""

    def run(self, sim, ctx) -> None:
        result = ctx.result
        raw_delivered = ctx.raw_delivered
        if sim._harq is not None:
            raw_delivered = legacy_apply_harq(
                sim, ctx.schedule, ctx.reception, set(ctx.transmitting),
                raw_delivered,
            )
        delivered = {
            ue: sim._queues[ue].drain(bits)
            for ue, bits in raw_delivered.items()
        }
        for ue, bits in delivered.items():
            result.delivered_bits_by_ue[ue] += bits
        sim.tracker.update({
            ue: bits / consts.SUBFRAME_DURATION_S
            for ue, bits in delivered.items()
        })
        if sim._harq is not None:
            result.harq_retransmissions = sim._harq.retransmissions
            result.harq_blocks_recovered = sim._harq.blocks_delivered
            result.harq_blocks_dropped = sim._harq.blocks_dropped
        observe = getattr(sim.scheduler, "observe", None)
        if observe is not None:
            observe(legacy_classify_subframe(ctx.schedule, ctx.reception))


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
                LegacyTransmitDecodeStage(),
                LegacyHarqFeedbackStage(),
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
