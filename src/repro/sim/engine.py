"""The subframe-granularity cell simulation engine.

One run couples four processes at 1 ms resolution:

* hidden-terminal activity (independent per-terminal busy processes);
* per-UE uplink fading channels (AR(1) Rayleigh over the RB grid);
* the eNB's TxOP loop: CCA/backoff, then ``dl + ul`` owned subframes;
* the scheduler under test, consulted once per TxOP (grant bursts, as in
  the WARP testbed) — or per UL subframe for genie schedulers.

The per-subframe sequence itself lives in :mod:`repro.sim.stages`: a
:class:`~repro.sim.stages.SubframePipeline` of typed stages (timeline →
interference/CCA → channels → arrivals → schedule → transmit/decode →
HARQ/feedback).  The engine owns the state those stages operate on and
drives the TxOP loop around them.

The medium is array-native: one :class:`~repro.lte.channel.UplinkChannelBank`
steps every UE channel as a ``(num_ues, num_rbs)`` array op, hidden-terminal
silencing is a boolean reduction over the topology's cached edge matrix,
activity is batch-sampled, and schedulers see the CSI snapshot as a dense
matrix.  The engine has this one substrate.  A scalar per-UE reference
engine lives outside the package, in ``tests/reference/``, as a test
oracle: it consumes the same RNG streams, and the equivalence suites hold
both engines to ``tests/sim/data/engine_snapshots.json``.

Observers attach through :class:`~repro.sim.stages.SimHooks` (per-stage
and per-subframe callbacks); a ``phase_timer`` is adapted onto the same
seam via :class:`~repro.sim.stages.PhaseTimerHooks`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, List, Mapping, Optional, Set

import numpy as np

from repro.core.scheduling.base import UplinkScheduler
from repro.core.scheduling.fairness import PfAverageTracker
from repro.core.scheduling.types import SchedulingContext
from repro.errors import ConfigurationError, SimulationError
from repro.lte import consts
from repro.lte import mcs
from repro.lte.channel import UplinkChannelBank
from repro.lte.enb import DECODED, FADED, ENodeB, GrantArrays, SubframeReception
from repro.lte.harq import HarqConfig, HarqPool
from repro.lte.traffic import FullBufferTraffic, TrafficSource, UeQueue
from repro.lte.resources import SubframeSchedule
from repro.obs.timing import PhaseTimer
from repro.dynamics.timeline import (
    AddTerminalOp,
    EnvironmentTimeline,
    RemoveTerminalOp,
    RetuneOp,
)
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.sim.stages import (
    DOWNLINK,
    IDLE,
    UPLINK,
    CompositeHooks,
    PhaseTimerHooks,
    SimHooks,
    SubframeContext,
    SubframePipeline,
    build_subframe_pipeline,
)
from repro.spectrum.activity import (
    ActivityProcess,
    BernoulliActivity,
    DynamicIndependentActivity,
    IndependentActivity,
    JointActivityModel,
    MarkovOnOffActivity,
)
from repro.topology.graph import InterferenceTopology

__all__ = ["CellSimulation"]


class _MatrixRows(Mapping):
    """Read-only per-UE-id row view of a dense ``(num_ues, num_rbs)``
    CSI matrix, satisfying the ``sinr_db`` mapping contract without
    materializing one row object per client per scheduling call."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix

    def __getitem__(self, ue: int) -> np.ndarray:
        if not 0 <= ue < self._matrix.shape[0]:
            raise KeyError(ue)
        return self._matrix[ue]

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def __iter__(self):
        return iter(range(self._matrix.shape[0]))


class CellSimulation:
    """Simulate one LTE cell under hidden-terminal interference."""

    def __init__(
        self,
        topology: InterferenceTopology,
        mean_snr_db: Mapping[int, float],
        scheduler: UplinkScheduler,
        config: Optional[SimulationConfig] = None,
        activity_processes: Optional[List[ActivityProcess]] = None,
        activity_model: Optional[JointActivityModel] = None,
        traffic_sources: Optional[Mapping[int, TrafficSource]] = None,
        silencer: Optional[Callable[[FrozenSet[int]], Set[int]]] = None,
        seed: Optional[int] = None,
        record_series: bool = False,
        phase_timer: Optional[PhaseTimer] = None,
        timeline: Optional[EnvironmentTimeline] = None,
        hooks: Optional[SimHooks] = None,
        pipeline: Optional[SubframePipeline] = None,
    ) -> None:
        if config is None:
            config = SimulationConfig()
        if set(mean_snr_db) != set(range(topology.num_ues)):
            raise ConfigurationError(
                "mean_snr_db must cover exactly the topology's UEs"
            )
        self.topology = topology
        self.config = config
        self.scheduler = scheduler
        self.record_series = record_series
        self._rng = np.random.default_rng(seed)
        self._timeline_runtime = None
        structural_timeline = False
        if timeline is not None:
            for event in timeline.events:
                ue = getattr(event, "ue", None)
                if ue is not None and not 0 <= ue < topology.num_ues:
                    raise ConfigurationError(
                        f"timeline event references unknown UE {ue}: {event}"
                    )
            structural_timeline = timeline.has_structural_events
            self._timeline_runtime = timeline.runtime(topology)

        if activity_model is not None and activity_processes is not None:
            raise ConfigurationError(
                "pass either activity_processes or activity_model, not both"
            )
        if structural_timeline and (
            activity_model is not None
            or activity_processes is not None
            or silencer is not None
        ):
            # Arrivals/departures/drift must flow into the activity substrate
            # and the edge-based silencer; arbitrary user substrates cannot
            # be mutated consistently.
            raise ConfigurationError(
                "a timeline with hidden-terminal events requires the "
                "default activity model and silencer"
            )
        if activity_model is not None:
            self._activity = activity_model
        elif activity_processes is not None:
            self._activity = IndependentActivity(activity_processes)
        elif timeline is not None:
            # Per-subframe stepping (no block prefetch) so mid-run arrivals,
            # departures and re-tunes take effect immediately.
            self._activity = DynamicIndependentActivity(self._build_activity())
        else:
            self._activity = IndependentActivity(self._build_activity())
        if self._activity.num_terminals != topology.num_terminals:
            raise ConfigurationError(
                f"activity model covers {self._activity.num_terminals} "
                f"terminals, topology has {topology.num_terminals}"
            )

        #: Maps the active-terminal set to the silenced-UE set.  The default
        #: is the binary edge model of the blueprint; an energy-aggregation
        #: silencer (e.g. Scenario.power_silencer()) can replace it to model
        #: sub-threshold interferers that jointly cross the ED threshold.
        self._silencer = silencer
        #: (num_terminals, num_ues) boolean silencing matrix:
        #: silenced = any(edge row of an active terminal).
        self._edge_matrix = topology.edge_matrix()
        # The bank spawns one child generator per UE, in UE order, from the
        # parent stream — after the activity processes, before the eNB.
        self._bank = UplinkChannelBank(
            mean_rx_power_dbm=[
                consts.NOISE_FLOOR_10MHZ_DBM + mean_snr_db[ue]
                for ue in range(topology.num_ues)
            ],
            num_rbs=config.num_rbs,
            doppler_coherence=config.doppler_coherence,
            rng=self._rng,
        )

        self.enb = ENodeB(
            num_antennas=config.num_antennas,
            num_rbs=config.num_rbs,
            enb_busy_probability=config.enb_busy_probability,
            dl_subframes_per_txop=config.dl_subframes_per_txop,
            ul_subframes_per_txop=config.ul_subframes_per_txop,
            rate_scale=float(config.rb_group_size),
            receiver=config.receiver,
            rng=np.random.default_rng(self._rng.integers(0, 2**63)),
        )
        self.tracker = PfAverageTracker(
            range(topology.num_ues),
            alpha=config.pf_alpha,
            initial_bps=config.pf_initial_bps,
        )
        # Ring buffer of past (U, R) SINR snapshots for CSI feedback delay.
        self._csi_history: Deque[np.ndarray] = deque(
            maxlen=config.csi_delay_subframes + 1
        )
        self._harq: Optional[HarqPool] = (
            HarqPool(
                topology.num_ues,
                HarqConfig(max_transmissions=config.harq_max_transmissions),
            )
            if config.harq_enabled
            else None
        )
        # Full buffer unless per-UE traffic sources are supplied (paper
        # footnote 1's finite-buffer extension).
        self._queues: Dict[int, UeQueue] = {}
        for ue in range(topology.num_ues):
            source = (
                traffic_sources.get(ue, FullBufferTraffic())
                if traffic_sources is not None
                else FullBufferTraffic()
            )
            self._queues[ue] = UeQueue(source)
        #: Clients currently attached (UeJoin/UeLeave gate traffic; the UE
        #: id space itself is fixed for the run).
        self._active_ues: Set[int] = set(range(topology.num_ues))

        #: Schedule held across the UL subframes of one TxOP; the run loop
        #: clears it at each TxOP boundary and the ScheduleStage refills it.
        self._current_schedule: Optional[SubframeSchedule] = None
        #: The held schedule flattened for the receiver; the decode stage
        #: rebuilds it whenever the schedule object changes.
        self._grants: Optional[GrantArrays] = None
        self._reschedule_each = bool(
            getattr(scheduler, "reschedule_every_subframe", False)
        )
        if phase_timer is not None:
            timer_hooks = PhaseTimerHooks(phase_timer)
            hooks = (
                timer_hooks
                if hooks is None
                else CompositeHooks([hooks, timer_hooks])
            )
        #: The per-subframe stage sequence.  A custom pipeline (extra
        #: stages, alternative substrates) may be injected; it must keep the
        #: canonical stage contract to stay bit-exact with the defaults.
        self.pipeline: SubframePipeline = (
            pipeline
            if pipeline is not None
            else build_subframe_pipeline(hooks=hooks)
        )

    # -- internals ---------------------------------------------------------

    def set_topology(self, topology: InterferenceTopology) -> None:
        """Swap in a new interference topology mid-run.

        The topology class is frozen, so a change is always a *new*
        instance; re-deriving the silencing matrix here is what keeps the
        memoized cache from going stale.
        """
        if topology.num_ues != self.topology.num_ues:
            raise ConfigurationError(
                f"cannot change the UE population mid-run: "
                f"{self.topology.num_ues} -> {topology.num_ues}"
            )
        self.topology = topology
        self._edge_matrix = topology.edge_matrix()

    def _apply_timeline(self, t: int) -> None:
        update = self._timeline_runtime.step(t)
        if update is None:
            return
        for op in update.activity_ops:
            if isinstance(op, AddTerminalOp):
                self._activity.add_process(op.process)
            elif isinstance(op, RemoveTerminalOp):
                self._activity.remove_process(op.index)
            elif isinstance(op, RetuneOp):
                self._activity.retune(op.index, op.q)
            else:  # pragma: no cover - op set is closed
                raise SimulationError(f"unknown activity op {op!r}")
        if update.topology is not None:
            self.set_topology(update.topology)
            if self._activity.num_terminals != update.topology.num_terminals:
                raise SimulationError(
                    "activity model and topology disagree after timeline "
                    f"update at subframe {t}"
                )
        for ue in sorted(update.snr_delta_db):
            self._bank.adjust_mean_snr_db(ue, update.snr_delta_db[ue])
        for ue in update.joins:
            self._active_ues.add(ue)
        for ue in update.leaves:
            self._active_ues.discard(ue)

    def _build_activity(self) -> List[ActivityProcess]:
        processes: List[ActivityProcess] = []
        for q in self.topology.q:
            child = np.random.default_rng(self._rng.integers(0, 2**63))
            if self.config.activity_kind == "markov":
                processes.append(
                    MarkovOnOffActivity(
                        q, self.config.mean_busy_subframes, rng=child
                    )
                )
            else:
                processes.append(BernoulliActivity(q, rng=child))
        return processes

    def _context(self, subframe: int, silenced: Set[int]) -> SchedulingContext:
        """The scheduler's view of one UL subframe.

        The CSI it sees is the oldest snapshot in the feedback ring
        (stale by ``csi_delay_subframes``), handed over as the dense
        ``(num_ues, num_rbs)`` matrix the context's rate machinery reads;
        ``sinr_db`` wraps the same matrix as lazy per-UE rows.
        """
        snapshot = self._csi_history[0]
        return SchedulingContext.trusted(
            subframe=subframe,
            num_rbs=self.config.num_rbs,
            num_antennas=self.config.num_antennas,
            ue_ids=tuple(
                ue
                for ue in range(self.topology.num_ues)
                if ue in self._active_ues and self._queues[ue].backlogged
            ),
            sinr_db=_MatrixRows(snapshot),
            sinr_matrix=snapshot,
            avg_throughput_bps=self.tracker.averages(),
            max_distinct_ues=self.config.max_distinct_ues,
            clear_ues=frozenset(
                ue for ue in range(self.topology.num_ues) if ue not in silenced
            ),
            rate_scale=float(self.config.rb_group_size),
            link_margin_db=self.config.link_margin_db,
        )

    # -- HARQ ----------------------------------------------------------------

    def _apply_harq(
        self,
        reception: SubframeReception,
        transmitting: Set[int],
        raw_delivered: Dict[int, float],
    ) -> Dict[int, float]:
        """Resolve HARQ retransmissions and register new fades.

        A transmitting UE with a pending soft buffer spends its first
        usable grant of the subframe on the retransmission: a DECODED grant
        gives full energy (and its new-data bits are forfeited), a FADED
        one still contributes soft energy.  Fresh FADED grants enter the
        pool; collided grants produce no usable soft bits and are dropped.
        Grants are visited in RB order, then grant order.
        """
        harq = self._harq
        grants = reception.grants
        ue_list = grants.ue_list
        codes = reception.codes.tolist()
        delivered = dict(raw_delivered)
        retx_grant: Dict[int, int] = {}
        for index, code in enumerate(codes):
            if code == DECODED or code == FADED:
                ue = ue_list[index]
                if ue not in retx_grant and harq.pending(ue) is not None:
                    retx_grant[ue] = index

        sinr = self._bank.sinr_db
        rb_list = grants.rb_list
        rate_list = grants.rate_list
        for ue, index in retx_grant.items():
            sinr_db = float(sinr[ue, rb_list[index]])
            energy = 10.0 ** (sinr_db / 10.0)
            recovered = harq.retransmission_result(ue, energy)
            if codes[index] == DECODED:
                # The grant carried the retransmission, not new data.
                delivered[ue] = delivered.get(ue, 0.0) - rate_list[index] * (
                    consts.SUBFRAME_DURATION_S
                )
                if delivered.get(ue, 0.0) <= 1e-12:
                    delivered.pop(ue, None)
            if recovered is not None:
                delivered[ue] = delivered.get(ue, 0.0) + recovered

        consumed = set(retx_grant.values())
        group = max(self.config.rb_group_size, 1)
        for index, code in enumerate(codes):
            if code != FADED or index in consumed:
                continue
            ue = ue_list[index]
            sinr_db = float(sinr[ue, rb_list[index]])
            rate = rate_list[index]
            try:
                required_db = mcs.min_sinr_db_for_rate(rate / group)
            except ValueError:
                continue
            harq.first_attempt_failed(
                ue,
                bits=rate * consts.SUBFRAME_DURATION_S,
                required_sinr_linear=10.0 ** (required_db / 10.0),
                attempt_sinr_linear=10.0 ** (sinr_db / 10.0),
            )
        for ue in grants.scheduled_set - transmitting:
            if harq.pending(ue) is not None:
                harq.retransmission_blocked(ue)
        return delivered

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run the configured number of subframes; return aggregated metrics."""
        result = SimulationResult(scheduler_name=self.scheduler.name)
        result.delivered_bits_by_ue = {
            ue: 0.0 for ue in range(self.topology.num_ues)
        }
        pipeline = self.pipeline

        t = 0
        total = self.config.num_subframes
        while t < total:
            txop = self.enb.try_acquire_txop(t)
            if txop is None:
                # eNB backed off: the medium still evolves.
                pipeline.run_subframe(self, SubframeContext(t, IDLE, result))
                result.idle_subframes += 1
                t += 1
                continue

            # DL part of the TxOP (grants go out; medium evolves).
            dl = min(txop.dl_subframes, total - t)
            for _ in range(dl):
                pipeline.run_subframe(self, SubframeContext(t, DOWNLINK, result))
                result.dl_subframes += 1
                t += 1

            # UL part: one grant burst per TxOP (the ScheduleStage refills
            # the held schedule, per subframe for genie schedulers).
            self._current_schedule = None
            for _ in range(txop.ul_subframes):
                if t >= total:
                    break
                pipeline.run_subframe(self, SubframeContext(t, UPLINK, result))
                t += 1

        result.num_subframes = t
        return result
