"""SimHooks adapters: metrics and tracing riding the stage seam.

Both hooks honour the seam's contract — they read the
:class:`~repro.sim.stages.SubframeContext`, never mutate it — so an
instrumented run is bit-exact with an uninstrumented one.  Everything here
costs nothing when observability is off, because the engine then attaches
no hooks at all and the pipeline takes its direct-call path.
:class:`MetricsHooks` reads only ``on_subframe_end``, so a session without
tracing observes no stage and its pipeline runs the stages without per-stage
callbacks.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.lte.enb import OUTCOMES
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import EventTracer
from repro.sim.stages import IDLE, UPLINK, SimHooks, SubframeContext, SubframeStage

__all__ = ["MetricsHooks", "TracingHooks"]

#: RB-utilization histogram bucket edges (fraction of allocated RBs used).
_UTIL_BUCKETS = (0.2, 0.4, 0.6, 0.8, 0.99)

#: ``outcome`` label value per outcome code.
_OUTCOME_LABELS = tuple(outcome.name.lower() for outcome in OUTCOMES)


class MetricsHooks(SimHooks):
    """Feed engine-level counters from the per-subframe context.

    All accounting happens in :meth:`on_subframe_end`, from the outcome
    tallies the transmit/decode stage stored on the context (``ctx.counts``
    — the same numbers the result counters add up); only the per-channel
    breakdown walks the per-grant outcome codes.  Grant
    *bursts* (one scheduler consultation per TxOP) are detected by
    schedule identity, which is exact even for back-to-back TxOPs.

    With a per-UE ``ue_channels`` assignment (multi-channel specs), three
    extra channel-labelled families break the headline counters down by
    the channel each UE transmits on: ``engine.channel_ues`` (assignment
    size), ``engine.channel_grant_outcomes``, and
    ``engine.channel_silenced``.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        ue_channels: Optional[Sequence[int]] = None,
    ) -> None:
        self.registry = registry
        self._ue_channels = (
            tuple(int(c) for c in ue_channels)
            if ue_channels is not None
            else None
        )
        self._subframes = registry.counter(
            "engine.subframes", help="subframes simulated, by kind", labels=("kind",)
        )
        #: ``engine.subframes`` children by kind, each created by its
        #: kind's first subframe (so series order is unchanged).
        self._subframes_by_kind: Dict[str, Any] = {}
        self._cca = registry.counter(
            "engine.cca_failures",
            help="per-subframe count of UEs silenced by CCA",
        )
        self._grants_issued = registry.counter(
            "engine.grants_issued", help="uplink grants issued"
        )
        self._ues_silenced = registry.counter(
            "engine.scheduled_ues_silenced",
            help="scheduled UEs that lost CCA in their subframe",
        )
        outcomes = registry.counter(
            "engine.grant_outcomes",
            help="per-grant decode outcome",
            labels=("outcome",),
        )
        self._decoded = outcomes.labels(outcome="decoded")
        self._blocked = outcomes.labels(outcome="blocked")
        self._collided = outcomes.labels(outcome="collided")
        self._faded = outcomes.labels(outcome="faded")
        self._harq = registry.counter(
            "engine.harq_retransmissions", help="HARQ retransmissions granted"
        )
        self._rb_util = registry.histogram(
            "engine.rb_utilization",
            buckets=_UTIL_BUCKETS,
            help="per-UL-subframe fraction of allocated RBs that decoded",
        )
        self._bursts = registry.counter(
            "engine.grant_bursts", help="scheduler consultations (TxOP grants)"
        )
        self._channel_outcomes = None
        self._channel_silenced = None
        if self._ue_channels is not None:
            channel_ues = registry.counter(
                "engine.channel_ues",
                help="UEs assigned to each channel",
                labels=("channel",),
            )
            for channel in self._ue_channels:
                channel_ues.labels(channel=str(channel)).inc()
            self._channel_outcomes = registry.counter(
                "engine.channel_grant_outcomes",
                help="per-grant decode outcome by assigned channel",
                labels=("channel", "outcome"),
            )
            self._channel_silenced = registry.counter(
                "engine.channel_silenced",
                help="UEs silenced by CCA, by assigned channel",
                labels=("channel",),
            )
        self._last_schedule: Optional[object] = None
        self._last_harq = 0

    def on_subframe_end(self, ctx: SubframeContext) -> None:
        """Account one finished subframe's outcomes into the registry."""
        kind = ctx.kind
        subframes = self._subframes_by_kind.get(kind)
        if subframes is None:
            subframes = self._subframes_by_kind[kind] = self._subframes.labels(
                kind=kind
            )
        subframes.inc()
        if ctx.silenced:
            self._cca.inc(len(ctx.silenced))
            if self._channel_silenced is not None:
                for ue in ctx.silenced:
                    if ue < len(self._ue_channels):
                        self._channel_silenced.labels(
                            channel=str(self._ue_channels[ue])
                        ).inc()
        if kind != UPLINK:
            return
        schedule = ctx.schedule
        if schedule is None:
            return
        if schedule is not self._last_schedule:
            self._last_schedule = schedule
            self._bursts.inc()
        counts = ctx.counts
        if counts is not None:
            self._grants_issued.inc(counts.issued)
            scheduled = ctx.reception.grants.scheduled_set
        else:
            self._grants_issued.inc(schedule.total_grants)
            scheduled = schedule.scheduled_ues()
        silenced_scheduled = len(ctx.silenced.intersection(scheduled))
        if silenced_scheduled:
            self._ues_silenced.inc(silenced_scheduled)

        if counts is not None:
            if counts.decoded:
                self._decoded.inc(counts.decoded)
            if counts.blocked:
                self._blocked.inc(counts.blocked)
            if counts.collided:
                self._collided.inc(counts.collided)
            if counts.faded:
                self._faded.inc(counts.faded)
            if counts.allocated:
                self._rb_util.observe(counts.utilized / counts.allocated)
            if self._channel_outcomes is not None:
                self._count_channel_outcomes(ctx.reception)

        harq = ctx.result.harq_retransmissions
        if harq != self._last_harq:
            self._harq.inc(harq - self._last_harq)
            self._last_harq = harq

    def _count_channel_outcomes(self, reception) -> None:
        """Per-(channel, outcome) grant counts, children created in the
        order the grants first reach each pair (RB, then grant order)."""
        channels = self._ue_channels
        known = len(channels)
        tally: dict = {}
        for ue, code in zip(reception.grants.ue_list, reception.codes.tolist()):
            if ue < known:
                key = (channels[ue], code)
                tally[key] = tally.get(key, 0) + 1
        family = self._channel_outcomes
        for (channel, code), count in tally.items():
            family.labels(
                channel=str(channel), outcome=_OUTCOME_LABELS[code]
            ).inc(count)


class TracingHooks(SimHooks):
    """Emit span-style stage/subframe/TxOP events into an :class:`EventTracer`.

    Three viewer lanes (``tid``): 0 carries per-stage spans (suppressible
    via ``stage_events=False`` — they dominate trace volume), 1 carries
    per-subframe spans tagged with the subframe kind, 2 carries channel-
    occupancy (TxOP) spans and grant-burst instants.
    """

    def __init__(self, tracer: EventTracer, stage_events: bool = True) -> None:
        self.tracer = tracer
        self.stage_events = bool(stage_events)
        tracer.metadata("thread_name", {"name": "stages"}, tid=0)
        tracer.metadata("thread_name", {"name": "subframes"}, tid=1)
        tracer.metadata("thread_name", {"name": "txops"}, tid=2)
        self._cur_subframe: Optional[int] = None
        self._sf_start = 0.0
        self._stage_start = 0.0
        self._txop_start: Optional[float] = None
        self._txop_end = 0.0
        self._txop_first = 0
        self._txop_last = 0
        self._last_schedule: Optional[object] = None

    def on_stage_start(self, stage: SubframeStage, ctx: SubframeContext) -> None:
        """Timestamp the stage (and the subframe, on its first stage)."""
        now = self.tracer.now_us()
        if ctx.subframe != self._cur_subframe:
            self._cur_subframe = ctx.subframe
            self._sf_start = now
        self._stage_start = now

    def on_stage_end(self, stage: SubframeStage, ctx: SubframeContext) -> None:
        """Close the stage span opened by :meth:`on_stage_start`."""
        if not self.stage_events:
            return
        now = self.tracer.now_us()
        self.tracer.complete(
            stage.name,
            "stage",
            self._stage_start,
            now - self._stage_start,
            args={"subframe": ctx.subframe},
        )

    def _close_txop(self) -> None:
        if self._txop_start is None:
            return
        self.tracer.complete(
            "txop",
            "txop",
            self._txop_start,
            self._txop_end - self._txop_start,
            args={"first_subframe": self._txop_first, "last_subframe": self._txop_last},
            tid=2,
        )
        self._txop_start = None

    def on_subframe_end(self, ctx: SubframeContext) -> None:
        """Emit the subframe span; open/extend/close the occupancy span."""
        now = self.tracer.now_us()
        start = self._sf_start if ctx.subframe == self._cur_subframe else now
        self.tracer.complete(
            "subframe",
            "subframe",
            start,
            now - start,
            args={"t": ctx.subframe, "kind": ctx.kind},
            tid=1,
        )
        if ctx.kind == IDLE:
            self._close_txop()
            return
        if self._txop_start is None:
            self._txop_start = start
            self._txop_first = ctx.subframe
        self._txop_end = now
        self._txop_last = ctx.subframe
        schedule = ctx.schedule
        if (
            ctx.kind == UPLINK
            and schedule is not None
            and schedule is not self._last_schedule
        ):
            self._last_schedule = schedule
            self.tracer.instant(
                "grant-burst",
                "scheduler",
                args={"t": ctx.subframe, "grants": schedule.total_grants},
                ts=now,
                tid=2,
            )

    def finish(self) -> None:
        """Close any span left open by the run's final subframe."""
        self._close_txop()
