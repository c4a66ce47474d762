"""The BLU controller: the two-phase eNB loop of Fig. 9.

The controller *is* an uplink scheduler, so it plugs straight into the
simulation engine; internally it sequences the whole system:

1. **Measurement phase** — schedules clients per Algorithm 1 (data still
   flows, but the schedule is optimized for pair coverage), classifies each
   subframe's pilots into access observations, and accumulates ``p(i)``,
   ``p(i, j)`` until every pair has ``T`` joint samples.
2. **Blueprint** — transforms the measurements, runs the multi-start
   gradient-repair inference, and instantiates the exact joint-access
   provider on the inferred topology (Section 3.6 conditioning happens
   inside the provider).
3. **Speculative phase** — delegates to the speculative scheduler
   (Eqns. 3–4).  Observations keep flowing into the estimator ("the outcome
   of the schedule during the speculative phase implicitly contributes to
   measurements"), and the blueprint can be re-inferred every
   ``reinfer_interval`` UL subframes to track slow topology dynamics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.blueprint.inference import (
    BlueprintInference,
    InferenceConfig,
    InferenceResult,
)
from repro.core.joint.provider import TopologyJointProvider
from repro.core.measurement.classifier import AccessObservation
from repro.core.measurement.estimator import AccessEstimator
from repro.core.measurement.feedback import ScheduledIds
from repro.core.measurement.pair_scheduler import MeasurementScheduler
from repro.core.scheduling.base import UplinkScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.core.scheduling.speculative import SpeculativeScheduler
from repro.core.scheduling.types import SchedulingContext
from repro.errors import ConfigurationError, MeasurementError
from repro.lte.resources import SubframeSchedule, UplinkGrant
from repro.obs.metrics import active_registry
from repro.topology.graph import InterferenceTopology

__all__ = ["BLUPhase", "BLUConfig", "BLUController"]


class BLUPhase(enum.Enum):
    """Where the controller is in its scheduling loop (Fig. 9).

    The base controller cycles MEASUREMENT → SPECULATIVE; the adaptive
    controller (``repro.dynamics``) adds PARTIAL_REMEASURE, entered when
    drift detection flags a subset of clients whose pair statistics must be
    re-collected before an incremental re-blueprint.  DEGRADED is the
    graceful-degradation fallback: inference health gating rejected the
    blueprint (residual too high, coverage too thin, or a forced solver
    divergence), so the controller schedules plain PF with periodic
    re-measurement until a later inference passes the gate.
    """

    MEASUREMENT = "measurement"
    SPECULATIVE = "speculative"
    PARTIAL_REMEASURE = "partial_remeasure"
    DEGRADED = "degraded"


@dataclass(frozen=True)
class BLUConfig:
    """Controller parameters (paper defaults: T=50, K=8, f=2)."""

    samples_per_pair: int = 50
    measurement_k: int = 8
    overschedule_factor: float = 2.0
    z_sigma: float = 3.0
    reinfer_interval: int = 0  # UL subframes; 0 disables re-inference
    #: Exponential forgetting of access statistics (1.0 = cumulative);
    #: pair with ``reinfer_interval`` to track topology dynamics.
    estimator_decay: float = 1.0
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    #: Inference health gate: reject a blueprint whose winning aggregate
    #: violation exceeds this and fall back to DEGRADED scheduling.
    #: ``None`` — the default — disables gating entirely, keeping the
    #: controller bit-exact with its pre-resilience behaviour.
    degrade_residual_threshold: Optional[float] = None
    #: Health gate on measurement coverage: the estimator must hold at
    #: least this many samples for its least-sampled pair (0 disables).
    degrade_min_pair_samples: int = 0
    #: In DEGRADED, every Nth TxOP is a measurement layout (the rest are
    #: plain PF) so the estimator keeps improving toward recovery.
    degraded_measure_every: int = 8
    #: Per-pair sample target for the DEGRADED re-measurement campaign
    #: (``None`` reuses ``samples_per_pair``).
    degraded_samples_per_pair: Optional[int] = None

    def __post_init__(self) -> None:
        if self.samples_per_pair < 1:
            raise ConfigurationError(
                f"samples_per_pair must be positive: {self.samples_per_pair}"
            )
        if self.measurement_k < 2:
            raise ConfigurationError(
                f"measurement_k must be at least 2: {self.measurement_k}"
            )
        if self.reinfer_interval < 0:
            raise ConfigurationError(
                f"reinfer_interval must be >= 0 (0 disables): "
                f"{self.reinfer_interval}"
            )
        if not 0.0 < self.estimator_decay <= 1.0:
            raise ConfigurationError(
                f"estimator_decay must be in (0, 1]: {self.estimator_decay}"
            )
        if self.overschedule_factor < 1.0:
            raise ConfigurationError(
                f"overschedule_factor must be >= 1: {self.overschedule_factor}"
            )
        if (
            self.degrade_residual_threshold is not None
            and self.degrade_residual_threshold <= 0.0
        ):
            raise ConfigurationError(
                f"degrade_residual_threshold must be positive or None: "
                f"{self.degrade_residual_threshold}"
            )
        if self.degrade_min_pair_samples < 0:
            raise ConfigurationError(
                f"degrade_min_pair_samples must be >= 0: "
                f"{self.degrade_min_pair_samples}"
            )
        if self.degraded_measure_every < 1:
            raise ConfigurationError(
                f"degraded_measure_every must be >= 1: "
                f"{self.degraded_measure_every}"
            )
        if (
            self.degraded_samples_per_pair is not None
            and self.degraded_samples_per_pair < 1
        ):
            raise ConfigurationError(
                f"degraded_samples_per_pair must be positive or None: "
                f"{self.degraded_samples_per_pair}"
            )

    @property
    def degradation_enabled(self) -> bool:
        """Whether any inference health gate is configured."""
        return (
            self.degrade_residual_threshold is not None
            or self.degrade_min_pair_samples > 0
        )


class BLUController(UplinkScheduler):
    """Measurement -> blueprint -> speculative scheduling, end to end."""

    name = "blu"

    def __init__(
        self, num_ues: int, config: Optional[BLUConfig] = None
    ) -> None:
        if config is None:
            config = BLUConfig()
        if num_ues < 2:
            raise ConfigurationError(
                "BLU needs at least two clients (pair-wise measurements)"
            )
        self.num_ues = num_ues
        self.config = config
        self.estimator = AccessEstimator(num_ues, decay=config.estimator_decay)
        self.measurement_scheduler = MeasurementScheduler(
            num_ues=num_ues,
            distinct_per_subframe=config.measurement_k,
            samples=config.samples_per_pair,
        )
        self.phase = BLUPhase.MEASUREMENT
        self.inference_result: Optional[InferenceResult] = None
        self._speculative: Optional[SpeculativeScheduler] = None
        self._pending_measurement_ues: Optional[list] = None
        self._ul_subframes_since_inference = 0
        self.measurement_subframes_used = 0
        #: The last observation's scheduled ids, kept while a held
        #: schedule's TxOP hands over the same scheduled set.
        self._burst_ids: Optional[ScheduledIds] = None
        # Graceful degradation (residual-gated): PF fallback + periodic
        # re-measurement while inference is unhealthy.
        self._fallback = ProportionalFairScheduler()
        self._degraded_measurement: Optional[MeasurementScheduler] = None
        self._degraded_txops = 0
        self._degraded_measuring = False
        self.degraded_entries = 0
        self.degraded_recoveries = 0
        # Fault-injection seam (repro.resilience); duck-typed so the core
        # never imports the resilience package.
        self._fault_injector = None
        self._inference_count = 0

    def set_fault_injector(self, injector) -> None:
        """Attach a resilience fault injector (report/solver faults)."""
        self._fault_injector = injector

    # -- phase transitions ----------------------------------------------------

    @property
    def inferred_topology(self) -> Optional[InterferenceTopology]:
        if self.inference_result is None:
            return None
        return self.inference_result.topology

    def _infer_and_switch(
        self,
        extra_starts: Optional[list] = None,
        inference_config: Optional[InferenceConfig] = None,
    ) -> None:
        """Infer a blueprint from current estimates; enter SPECULATIVE.

        ``extra_starts`` (``(label, WorkingTopology)`` pairs) and
        ``inference_config`` let the adaptive controller warm-start a
        cheaper incremental re-inference; the base controller always runs
        the configured cold multi-start.
        """
        target = self.estimator.to_transformed(z=self.config.z_sigma)
        inference = BlueprintInference(
            inference_config if inference_config is not None
            else self.config.inference
        )
        result = inference.infer(target, extra_starts=extra_starts)
        inference_index = self._inference_count
        self._inference_count += 1
        if self._fault_injector is not None and self._fault_injector.solver_diverges(
            inference_index
        ):
            # Injected divergence: keep the topology (the scheduler never
            # sees it) but report non-convergence to the health gate.
            result = InferenceResult(
                topology=result.topology,
                aggregate_violation=float("inf"),
                satisfied=False,
                winning_start=result.winning_start,
                outcomes=result.outcomes,
            )
        self.inference_result = result
        if not self._inference_healthy(result):
            self._enter_degraded()
            return
        provider = TopologyJointProvider(result.topology)
        self._speculative = SpeculativeScheduler(
            provider, overschedule_factor=self.config.overschedule_factor
        )
        if self.phase is BLUPhase.DEGRADED:
            self.degraded_recoveries += 1
            registry = active_registry()
            if registry is not None:
                registry.counter(
                    "controller.degraded_recoveries",
                    help="DEGRADED -> SPECULATIVE recoveries after a "
                    "healthy re-inference",
                ).inc()
        self.phase = BLUPhase.SPECULATIVE
        self._ul_subframes_since_inference = 0

    def _inference_healthy(self, result: InferenceResult) -> bool:
        """Residual-and-coverage health gate over one inference result.

        Always true when no gate is configured (the default), keeping the
        pre-resilience controller behaviour bit-exact.
        """
        cfg = self.config
        if not cfg.degradation_enabled:
            return True
        if (
            cfg.degrade_residual_threshold is not None
            and not result.aggregate_violation <= cfg.degrade_residual_threshold
        ):
            return False
        if (
            cfg.degrade_min_pair_samples > 0
            and self.estimator.min_pair_samples() < cfg.degrade_min_pair_samples
        ):
            return False
        return True

    def _enter_degraded(self) -> None:
        """Reject the blueprint: PF fallback + periodic re-measurement."""
        self._speculative = None
        self.phase = BLUPhase.DEGRADED
        self._ul_subframes_since_inference = 0
        self._degraded_txops = 0
        self._degraded_measuring = False
        samples = (
            self.config.degraded_samples_per_pair
            if self.config.degraded_samples_per_pair is not None
            else self.config.samples_per_pair
        )
        self._degraded_measurement = MeasurementScheduler(
            num_ues=self.num_ues,
            distinct_per_subframe=self.config.measurement_k,
            samples=samples,
        )
        self.degraded_entries += 1
        registry = active_registry()
        if registry is not None:
            registry.counter(
                "controller.degraded_entries",
                help="times the health gate rejected a blueprint and the "
                "controller fell back to DEGRADED scheduling",
            ).inc()

    # -- scheduling --------------------------------------------------------------

    def _layout_measurement(
        self, context: SchedulingContext, ues: list
    ) -> SubframeSchedule:
        """OFDMA round-robin of the chosen clients, one per RB."""
        schedule = SubframeSchedule(num_rbs=context.num_rbs)
        for rb in range(context.num_rbs):
            ue = ues[rb % len(ues)]
            schedule.add_grant(
                UplinkGrant(
                    ue_id=ue,
                    rb=rb,
                    rate_bps=context.rate_bps(ue, rb, 1),
                    pilot_index=0,
                )
            )
        return schedule

    def _measurement_schedule(self, context: SchedulingContext) -> SubframeSchedule:
        """Algorithm-1 pick of K clients, laid out one per RB."""
        ues = self.measurement_scheduler.next_schedule()
        self._pending_measurement_ues = ues
        return self._layout_measurement(context, ues)

    def _degraded_schedule(self, context: SchedulingContext) -> SubframeSchedule:
        """PF fallback, with every Nth TxOP spent on re-measurement."""
        assert self._degraded_measurement is not None
        self._degraded_txops += 1
        if (
            not self._degraded_measurement.finished
            and self._degraded_txops % self.config.degraded_measure_every == 0
        ):
            self._degraded_measuring = True
            ues = self._degraded_measurement.next_schedule()
            return self._layout_measurement(context, ues)
        self._degraded_measuring = False
        return self._fallback.schedule(context)

    def schedule(self, context: SchedulingContext) -> SubframeSchedule:
        if self.phase is BLUPhase.MEASUREMENT:
            return self._measurement_schedule(context)
        if self.phase is BLUPhase.DEGRADED:
            return self._degraded_schedule(context)
        assert self._speculative is not None
        return self._speculative.schedule(context)

    # -- observation feedback -------------------------------------------------------

    def observe(self, observation: AccessObservation) -> None:
        """Per-UL-subframe feedback from the eNB (pilot classification).

        Report-level faults (loss/corruption/bias from an attached
        :class:`~repro.resilience.inject.FaultInjector`) are applied
        here, before any controller state sees the observation.
        """
        if self._fault_injector is not None:
            observation = self._fault_injector.apply_observation(observation)
            if observation is None:  # report lost in transit
                return
        self._observe(observation)

    def _record(self, observation: AccessObservation, monitor=None) -> int:
        """Feed one observation to the estimator (and, given one, a drift
        monitor in the same pass); returns the monitor's flagged count.

        The scheduled ids are converted once per burst: every UL subframe
        of a TxOP reports the held schedule's own ``scheduled_set``.
        """
        scheduled = observation.scheduled
        ids = self._burst_ids
        if (
            ids is None
            or ids.source is not scheduled
            or not isinstance(scheduled, frozenset)
        ):
            ids = ScheduledIds(scheduled, self.num_ues, MeasurementError)
            self._burst_ids = ids
        flags = ids.accessed_flags(observation.accessed, MeasurementError)
        return self.estimator.record(ids, flags, monitor)

    def _reinference_due(self) -> bool:
        """Whether the next SPECULATIVE subframe re-infers on the timer."""
        interval = self.config.reinfer_interval
        return (
            interval > 0 and self._ul_subframes_since_inference + 1 >= interval
        )

    def _observe(self, observation: AccessObservation) -> None:
        """Phase-dispatched handling of one (possibly faulted) report."""
        self._record(observation)
        if self.phase is BLUPhase.MEASUREMENT:
            self.measurement_scheduler.record(sorted(observation.scheduled))
            self.measurement_subframes_used += 1
            registry = active_registry()
            if registry is not None:
                registry.counter(
                    "controller.measurement_subframes",
                    help="UL subframes spent in the MEASUREMENT phase",
                ).inc()
            if self.measurement_scheduler.finished:
                self._infer_and_switch()
            return

        if self.phase is BLUPhase.DEGRADED:
            registry = active_registry()
            if registry is not None:
                registry.counter(
                    "controller.degraded_subframes",
                    help="UL subframes scheduled in the DEGRADED phase",
                ).inc()
            if self._degraded_measuring:
                assert self._degraded_measurement is not None
                self._degraded_measurement.record(sorted(observation.scheduled))
                if self._degraded_measurement.finished:
                    # Campaign done: retry inference; an unhealthy result
                    # re-enters DEGRADED with a fresh campaign.
                    self._infer_and_switch()
            return

        due = self._reinference_due()
        self._ul_subframes_since_inference += 1
        if due:
            self._infer_and_switch()
