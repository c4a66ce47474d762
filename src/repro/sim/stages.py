"""The staged subframe pipeline: the engine's per-subframe sequence as
composable, observable stages.

BLU's cell behaviour emerges from a fixed per-subframe sequence — timeline
events, interference/CCA, channel evolution, traffic arrivals, scheduling,
transmission/decoding, HARQ/feedback.  Each step is a
:class:`SubframeStage`; a :class:`SubframePipeline` runs the stages that
apply to the current subframe kind (idle / DL / UL) in order, firing
:class:`SimHooks` callbacks around each one.

The medium-facing stages work on whole-cell arrays: interference is a
boolean reduction over the topology's cached edge matrix, the channels
step as one :class:`~repro.lte.channel.UplinkChannelBank` row (the bank
computes each UE's AR(1) fading a 128-subframe block at a time, in the
compiled kernel library when it is available), and the eNB decodes a
burst's grants as arrays, with SINRs gathered from the bank in one
indexing op.  A seeded run must
reproduce ``tests/sim/data/engine_snapshots.json`` field for field; the
scalar per-UE reference engine in ``tests/reference/`` is held to the same
snapshots and checked against this pipeline by the equivalence suites.

Hooks subsume the engine's older perf phase hooks:
:class:`PhaseTimerHooks` adapts a :class:`~repro.obs.timing.PhaseTimer`
to the stage seam, accumulating wall time under each stage's ``phase``
label (``activity``, ``channels``, ``schedule``, ``receive``, ...).
Observability (``repro.obs`` metrics and tracing) and dynamics code
attach their own :class:`SimHooks` the same way, without touching the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.measurement.classifier import classify_subframe
from repro.lte import consts
from repro.lte.enb import OutcomeCounts, SubframeReception
from repro.lte.resources import SubframeSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.timing import PhaseTimer
    from repro.sim.engine import CellSimulation
    from repro.sim.results import SimulationResult

__all__ = [
    "IDLE",
    "DOWNLINK",
    "UPLINK",
    "SubframeContext",
    "SimHooks",
    "PhaseTimerHooks",
    "CompositeHooks",
    "SubframeStage",
    "TimelineStage",
    "InterferenceStage",
    "ChannelStage",
    "ArrivalStage",
    "ScheduleStage",
    "TransmitDecodeStage",
    "HarqFeedbackStage",
    "SubframePipeline",
    "build_subframe_pipeline",
]

#: Subframe kinds; every stage declares which it participates in.
IDLE = "idle"
DOWNLINK = "dl"
UPLINK = "ul"

_ALL_KINDS = (IDLE, DOWNLINK, UPLINK)

try:  # ExceptionGroup is a builtin from Python 3.11.
    _ExceptionGroup = ExceptionGroup
except NameError:  # pragma: no cover - pre-3.11 fallback
    _ExceptionGroup = None


@dataclass(slots=True)
class SubframeContext:
    """Mutable state threaded through one subframe's stages.

    Earlier stages populate fields that later stages consume: the
    interference stage writes ``silenced``, the schedule stage writes
    ``schedule``, the transmit/decode stage writes ``transmitting``,
    ``reception`` (the per-grant outcome codes), ``counts`` (the
    subframe's outcome and RB tallies, read by the result accounting and
    the metrics hooks alike) and ``raw_delivered`` for the HARQ/feedback
    stage.
    """

    subframe: int
    kind: str
    result: "SimulationResult"
    silenced: Set[int] = field(default_factory=set)
    schedule: Optional[SubframeSchedule] = None
    transmitting: List[int] = field(default_factory=list)
    reception: Optional[SubframeReception] = None
    counts: Optional[OutcomeCounts] = None
    raw_delivered: Dict[int, float] = field(default_factory=dict)


class SimHooks:
    """Observation seam around the pipeline; all callbacks are no-ops.

    Subclass and override what you need — per-stage timing, per-subframe
    metric streaming, dynamics probes.  Hooks must not mutate simulation
    state: the engine's bit-exactness contract says an attached hook cannot
    change a seeded result.

    A hook whose class overrides neither stage callback is not a stage
    observer (:attr:`observes_stages`): the pipeline and
    :class:`CompositeHooks` skip its stage calls and deliver only
    :meth:`on_subframe_end`.
    """

    @property
    def observes_stages(self) -> bool:
        """Whether this hook receives ``on_stage_start``/``on_stage_end``:
        true when its class overrides either one."""
        cls = type(self)
        return (
            cls.on_stage_start is not SimHooks.on_stage_start
            or cls.on_stage_end is not SimHooks.on_stage_end
        )

    def on_stage_start(
        self, stage: "SubframeStage", ctx: SubframeContext
    ) -> None:
        """Called immediately before ``stage.run``."""

    def on_stage_end(
        self, stage: "SubframeStage", ctx: SubframeContext
    ) -> None:
        """Called immediately after ``stage.run``."""

    def on_subframe_end(self, ctx: SubframeContext) -> None:
        """Called once per subframe, after its last stage."""


class PhaseTimerHooks(SimHooks):
    """Adapts a :class:`PhaseTimer` to the stage seam.

    Each stage's wall time accumulates under its ``phase`` label, keeping
    the pre-pipeline phase names (``activity``, ``channels``, ``schedule``,
    ``receive``) stable for the perf harness.
    """

    def __init__(self, timer: "PhaseTimer") -> None:
        self.timer = timer
        self._start = 0.0

    def on_stage_start(
        self, stage: "SubframeStage", ctx: SubframeContext
    ) -> None:
        self._start = perf_counter()

    def on_stage_end(
        self, stage: "SubframeStage", ctx: SubframeContext
    ) -> None:
        self.timer.add(stage.phase, perf_counter() - self._start)


class CompositeHooks(SimHooks):
    """Fan one hook stream out to several receivers, in order.

    Delivery is all-or-error: every child sees every callback even when a
    sibling raises, so one faulty observer cannot starve the others of
    events (a tracer dying mid-run must not corrupt the metrics counters).
    Collected exceptions re-raise after the fan-out — the single error
    as-is, multiple as an ``ExceptionGroup`` (the first alone on Pythons
    without exception groups).  Stage callbacks go only to the children
    that observe stages (:attr:`SimHooks.observes_stages`);
    :meth:`on_subframe_end` goes to every child.
    """

    def __init__(self, hooks: Sequence[SimHooks]) -> None:
        self.hooks = tuple(hooks)
        self._stage_hooks = tuple(
            hook for hook in self.hooks if hook.observes_stages
        )

    @property
    def observes_stages(self) -> bool:
        return bool(self._stage_hooks)

    @staticmethod
    def _raise_collected(errors: List[BaseException]) -> None:
        if len(errors) == 1 or _ExceptionGroup is None:
            raise errors[0]
        raise _ExceptionGroup("multiple hooks failed", errors)

    def on_stage_start(
        self, stage: "SubframeStage", ctx: SubframeContext
    ) -> None:
        errors: List[BaseException] = []
        for hook in self._stage_hooks:
            try:
                hook.on_stage_start(stage, ctx)
            except Exception as error:  # noqa: BLE001 - collected and re-raised
                errors.append(error)
        if errors:
            self._raise_collected(errors)

    def on_stage_end(
        self, stage: "SubframeStage", ctx: SubframeContext
    ) -> None:
        errors: List[BaseException] = []
        for hook in self._stage_hooks:
            try:
                hook.on_stage_end(stage, ctx)
            except Exception as error:  # noqa: BLE001 - collected and re-raised
                errors.append(error)
        if errors:
            self._raise_collected(errors)

    def on_subframe_end(self, ctx: SubframeContext) -> None:
        errors: List[BaseException] = []
        for hook in self.hooks:
            try:
                hook.on_subframe_end(ctx)
            except Exception as error:  # noqa: BLE001 - collected and re-raised
                errors.append(error)
        if errors:
            self._raise_collected(errors)


class SubframeStage:
    """One typed step of the per-subframe sequence.

    Attributes:
        name: stable identifier (also the default timing label).
        phase: :class:`PhaseTimer` bucket this stage accumulates under.
        kinds: subframe kinds the stage participates in.
    """

    name: str = "stage"
    phase: str = "stage"
    kinds: Tuple[str, ...] = _ALL_KINDS

    def run(self, sim: "CellSimulation", ctx: SubframeContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class TimelineStage(SubframeStage):
    """Apply scripted environment churn at the subframe boundary.

    Events land *before* the medium is sampled, so an arrival at subframe
    ``t`` already contends in subframe ``t``.
    """

    name = "timeline"
    phase = "timeline"

    def run(self, sim: "CellSimulation", ctx: SubframeContext) -> None:
        if sim._timeline_runtime is not None:
            sim._apply_timeline(ctx.subframe)


class InterferenceStage(SubframeStage):
    """Advance hidden-terminal activity one subframe; resolve CCA.

    Activity is batch-sampled as a boolean vector; the silenced-UE set
    (clients whose CCA fails this subframe) is a reduction over the edge
    matrix rows of the active terminals, or the engine's custom silencer.
    """

    name = "interference"
    phase = "activity"

    def run(self, sim: "CellSimulation", ctx: SubframeContext) -> None:
        active_vec = sim._activity.step_vector()
        if sim._silencer is not None:
            active = frozenset(int(k) for k in np.flatnonzero(active_vec))
            ctx.silenced = set(sim._silencer(active))
        elif not active_vec.any():
            ctx.silenced = set()
        else:
            hit = sim._edge_matrix[active_vec].any(axis=0)
            ctx.silenced = {int(ue) for ue in np.flatnonzero(hit)}


class ChannelStage(SubframeStage):
    """Advance every UE's fading channel (one bank step: a row of the
    bank's precomputed fading block plus the mean); keep the step's SINR
    matrix as the CSI snapshot for delayed feedback.  Each step's matrix
    is a fresh array that nothing writes to, so it needs no copy."""

    name = "channels"
    phase = "channels"

    def run(self, sim: "CellSimulation", ctx: SubframeContext) -> None:
        sim._csi_history.append(sim._bank.step())


class ArrivalStage(SubframeStage):
    """Step every client's traffic source (finite-buffer extension)."""

    name = "arrivals"
    phase = "arrivals"

    def run(self, sim: "CellSimulation", ctx: SubframeContext) -> None:
        for queue in sim._queues.values():
            queue.step_arrivals()


class ScheduleStage(SubframeStage):
    """Consult the scheduler under test (grant bursts per TxOP).

    The engine clears its held schedule at each TxOP boundary; this stage
    recomputes only then — or every UL subframe for genie schedulers that
    set ``reschedule_every_subframe``.
    """

    name = "schedule"
    phase = "schedule"
    kinds = (UPLINK,)

    def run(self, sim: "CellSimulation", ctx: SubframeContext) -> None:
        if sim._current_schedule is None or sim._reschedule_each:
            context = sim._context(ctx.subframe, ctx.silenced)
            sim._current_schedule = sim.scheduler.schedule(context)
        ctx.schedule = sim._current_schedule


class TransmitDecodeStage(SubframeStage):
    """Scheduled UEs sense and transmit; the eNB decodes every grant.

    The burst's grants are flattened once per schedule
    (:class:`~repro.lte.enb.GrantArrays`); each UL subframe then gathers
    the grants' SINRs from the channel bank and decodes them in one array
    pass.  The outcome tallies are computed once, from the codes, into
    ``ctx.counts``; raw delivered bits are summed per UE in RB order.
    HARQ resolution and feedback are left to the next stage.
    """

    name = "transmit-decode"
    phase = "receive"
    kinds = (UPLINK,)

    def run(self, sim: "CellSimulation", ctx: SubframeContext) -> None:
        schedule = ctx.schedule
        grants = sim._grants
        if grants is None or grants.schedule is not schedule:
            grants = sim._grants = sim.enb.grant_arrays(schedule)
        silenced = ctx.silenced
        ctx.transmitting = sorted(grants.scheduled_set.difference(silenced))
        sinr = sim._bank.sinr_db
        reception = ctx.reception = sim.enb.decode(
            ctx.subframe,
            grants,
            grants.transmit_mask(silenced),
            sinr.take(grants.flat_index(sinr.shape[1])),
        )
        counts = ctx.counts = reception.counts()
        ctx.raw_delivered = reception.delivered_bits_by_ue()

        result = ctx.result
        result.grants_issued += counts.issued
        result.grants_decoded += counts.decoded
        result.grants_blocked += counts.blocked
        result.grants_collided += counts.collided
        result.grants_faded += counts.faded
        allocated = counts.allocated
        utilized = counts.utilized
        result.rbs_allocated += allocated
        result.rbs_utilized += utilized
        result.ul_subframes += 1
        if allocated and utilized == allocated:
            result.fully_utilized_subframes += 1
        if sim.record_series and allocated:
            result.utilization_series.append(utilized / allocated)


class HarqFeedbackStage(SubframeStage):
    """Resolve HARQ, drain client buffers, update PF, feed observations.

    This is the closing of the loop: delivered rates update the PF
    averages, and the access observation (pilot classification) flows back
    to adaptive schedulers — which is how the BLU controller measures.
    """

    name = "harq-feedback"
    phase = "feedback"
    kinds = (UPLINK,)

    def run(self, sim: "CellSimulation", ctx: SubframeContext) -> None:
        result = ctx.result
        raw_delivered = ctx.raw_delivered
        if sim._harq is not None:
            raw_delivered = sim._apply_harq(
                ctx.reception, set(ctx.transmitting), raw_delivered
            )
        # Bits are scaled by the allocation-unit width already (grant rates
        # carry rate_scale); delivered_bits uses the grant rate, capped by
        # what the client's buffer actually held.
        delivered = {
            ue: sim._queues[ue].drain(bits)
            for ue, bits in raw_delivered.items()
        }
        for ue, bits in delivered.items():
            result.delivered_bits_by_ue[ue] += bits

        # PF update with delivered rates (bits per subframe -> bps).
        served_bps = {
            ue: bits / consts.SUBFRAME_DURATION_S
            for ue, bits in delivered.items()
        }
        sim.tracker.update(served_bps)

        if sim._harq is not None:
            result.harq_retransmissions = sim._harq.retransmissions
            result.harq_blocks_recovered = sim._harq.blocks_delivered
            result.harq_blocks_dropped = sim._harq.blocks_dropped

        observe = getattr(sim.scheduler, "observe", None)
        if observe is not None:
            observe(classify_subframe(ctx.schedule, ctx.reception))


class SubframePipeline:
    """Run the applicable stages, in order, for each subframe.

    Stage lists are pre-partitioned by subframe kind so the hot loop pays
    one tuple lookup per subframe; with no hooks attached the pipeline adds
    nothing but direct stage calls, and with hooks that observe no stage
    (:attr:`SimHooks.observes_stages`) only the closing
    ``on_subframe_end``.  Whether the attached hooks observe stages is
    read once, when the pipeline is built.
    """

    def __init__(
        self,
        stages: Sequence[SubframeStage],
        hooks: Optional[SimHooks] = None,
    ) -> None:
        self.stages = tuple(stages)
        self.hooks = hooks
        self._observed = hooks is not None and hooks.observes_stages
        self._by_kind = {
            kind: tuple(stage for stage in self.stages if kind in stage.kinds)
            for kind in _ALL_KINDS
        }

    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def run_subframe(self, sim: "CellSimulation", ctx: SubframeContext) -> None:
        hooks = self.hooks
        if hooks is None:
            for stage in self._by_kind[ctx.kind]:
                stage.run(sim, ctx)
            return
        if self._observed:
            for stage in self._by_kind[ctx.kind]:
                hooks.on_stage_start(stage, ctx)
                stage.run(sim, ctx)
                hooks.on_stage_end(stage, ctx)
        else:
            for stage in self._by_kind[ctx.kind]:
                stage.run(sim, ctx)
        hooks.on_subframe_end(ctx)


def build_subframe_pipeline(hooks: Optional[SimHooks] = None) -> SubframePipeline:
    """The canonical stage order of the engine."""
    return SubframePipeline(
        [
            TimelineStage(),
            InterferenceStage(),
            ChannelStage(),
            ArrivalStage(),
            ScheduleStage(),
            TransmitDecodeStage(),
            HarqFeedbackStage(),
        ],
        hooks=hooks,
    )
