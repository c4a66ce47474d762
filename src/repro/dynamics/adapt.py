"""Online blueprint adaptation: detect drift, re-measure only what moved.

The base :class:`~repro.core.controller.BLUController` re-infers, at best,
on a fixed timer over decayed statistics.  The adaptive controller closes
the loop properly:

1. **SPECULATIVE** — normal speculative scheduling; every observation also
   feeds a :class:`~repro.dynamics.detect.DriftMonitor`.
2. **Drift detected** — the flagged clients' statistics are discarded
   (:meth:`AccessEstimator.reset_ues`), and a *targeted*
   :class:`~repro.core.measurement.pair_scheduler.MeasurementScheduler`
   sub-schedule is built over only the pairs touching them.
3. **PARTIAL_REMEASURE** — Algorithm-1 layout over the affected pairs; far
   fewer subframes than the full ``C(N,2)`` campaign.
4. **Incremental re-blueprint** — inference warm-started from the previous
   ``(h, Q, Z)`` solution (most constraints are still satisfied), with a
   trimmed start set; then back to SPECULATIVE with re-baselined detectors.

Two reference schedulers close the evaluation loop: a *from-scratch*
restart baseline (:class:`FullRestartController`) and a dynamics-aware
oracle (:class:`StagedBlueprintScheduler`) for utilization regret.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.blueprint.inference import InferenceConfig
from repro.core.blueprint.initializers import topology_start
from repro.core.controller import BLUConfig, BLUController, BLUPhase
from repro.core.joint.provider import TopologyJointProvider
from repro.core.measurement.classifier import AccessObservation
from repro.core.measurement.estimator import AccessEstimator
from repro.core.measurement.pair_scheduler import MeasurementScheduler
from repro.core.scheduling.base import UplinkScheduler
from repro.core.scheduling.speculative import SpeculativeScheduler
from repro.core.scheduling.types import SchedulingContext
from repro.dynamics.detect import DriftMonitor
from repro.dynamics.metrics import DriftEvent, DynamicsMetrics
from repro.errors import ConfigurationError
from repro.lte.resources import SubframeSchedule
from repro.obs.metrics import active_registry
from repro.topology.graph import InterferenceTopology

__all__ = [
    "AdaptiveConfig",
    "AdaptiveBLUController",
    "FullRestartController",
    "StagedBlueprintScheduler",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the drift-detect / partial-remeasure loop."""

    #: Sequential detector family: "page-hinkley" or "cusum".
    detector: str = "page-hinkley"
    #: Drift allowance (PH delta / CUSUM slack) in access-rate units.
    #: Access indicators are Bernoulli (variance up to 0.25); the PH
    #: false-alarm rate goes as exp(-2*delta*threshold/variance), so
    #: ``delta * threshold`` must be large against 0.25.  These defaults
    #: make false alarms negligible across dozens of concurrent detectors
    #: over ~10^5-sample runs, while a hidden-node arrival (access-rate
    #: shift >= 0.3) is still caught within ~100-150 samples.
    detector_delta: float = 0.1
    #: Detection envelope threshold (lambda).
    detector_threshold: float = 30.0
    #: Samples a detector needs before it may fire.
    detector_min_samples: int = 50
    #: Also run per-pair joint-access detectors.
    pair_detectors: bool = True
    #: On any firing, co-flag clients whose envelope is past this fraction
    #: of the threshold (one episode instead of two back-to-back).
    co_flag_fraction: float = 0.5
    #: Joint samples per affected pair in the targeted re-measurement
    #: (smaller than the initial ``samples_per_pair``: the unaffected
    #: pairs' statistics are retained, so less evidence suffices).
    remeasure_samples: int = 25
    #: Warm-start re-inference from the previous blueprint.
    warm_start: bool = True
    #: Random starts for the incremental re-inference (cold uses the full
    #: configured set).
    partial_random_starts: int = 1
    #: Subframes after a (re-)blueprint during which detector firings only
    #: re-baseline, never trigger another re-measurement — the new schedule
    #: changes observed access rates even in a static world.
    cooldown_subframes: int = 400

    def __post_init__(self) -> None:
        if self.detector not in ("page-hinkley", "cusum"):
            raise ConfigurationError(
                f"unknown detector: {self.detector!r}"
            )
        if self.remeasure_samples < 1:
            raise ConfigurationError(
                f"remeasure_samples must be positive: {self.remeasure_samples}"
            )
        if self.partial_random_starts < 0:
            raise ConfigurationError(
                f"partial_random_starts must be >= 0: "
                f"{self.partial_random_starts}"
            )
        if self.cooldown_subframes < 0:
            raise ConfigurationError(
                f"cooldown_subframes must be >= 0: {self.cooldown_subframes}"
            )


class AdaptiveBLUController(BLUController):
    """BLU with streaming drift detection and incremental re-blueprinting."""

    name = "blu-adaptive"

    def __init__(
        self,
        num_ues: int,
        config: Optional[BLUConfig] = None,
        adaptive: Optional[AdaptiveConfig] = None,
    ) -> None:
        super().__init__(num_ues, config)
        adaptive = AdaptiveConfig() if adaptive is None else adaptive
        self.adaptive = adaptive
        self.monitor = DriftMonitor(
            num_ues,
            detector=adaptive.detector,
            delta=adaptive.detector_delta,
            threshold=adaptive.detector_threshold,
            min_samples=adaptive.detector_min_samples,
            track_pairs=adaptive.pair_detectors,
            co_flag_fraction=adaptive.co_flag_fraction,
        )
        self.metrics = DynamicsMetrics()
        self._partial_scheduler: Optional[MeasurementScheduler] = None
        self._active_event: Optional[DriftEvent] = None
        self._cooldown_remaining = 0
        self._obs_registry = None
        self._obs = None

    def _obs_counters(self, registry):
        """Per-registry dynamics counter handles, registered eagerly.

        Registering the full set on first observation (not on first
        increment) makes every dynamics metric visible in a run's snapshot
        even when its count stays zero — a run with no drift still reports
        ``dynamics.drift_detections = 0``.
        """
        if registry is not self._obs_registry:
            self._obs_registry = registry
            self._obs = {
                "drift_detections": registry.counter(
                    "dynamics.drift_detections",
                    help="drift episodes begun (detector firings acted on)",
                ),
                "drifted_ues": registry.counter(
                    "dynamics.drifted_ues",
                    help="clients flagged across all drift episodes",
                ),
                "remeasure_subframes": registry.counter(
                    "dynamics.remeasure_subframes",
                    help="UL subframes spent in PARTIAL_REMEASURE",
                ),
                "reinferences": registry.counter(
                    "dynamics.reinferences",
                    help="blueprint re-inferences after the initial campaign",
                ),
                "cooldown_suppressed": registry.counter(
                    "dynamics.cooldown_suppressed",
                    help="detector firings absorbed by the post-blueprint cooldown",
                ),
            }
        return self._obs

    # -- scheduling --------------------------------------------------------

    def schedule(self, context: SchedulingContext) -> SubframeSchedule:
        if self.phase is BLUPhase.PARTIAL_REMEASURE:
            assert self._partial_scheduler is not None
            ues = self._partial_scheduler.next_schedule()
            return self._layout_measurement(context, ues)
        return super().schedule(context)

    # -- adaptation episodes -----------------------------------------------

    def _partial_inference_config(self) -> InferenceConfig:
        return replace(
            self.config.inference,
            num_random_starts=self.adaptive.partial_random_starts,
        )

    def _begin_partial_remeasure(
        self, subframe: int, drifted: FrozenSet[int]
    ) -> None:
        self._active_event = self.metrics.begin_event(subframe, drifted)
        self.estimator.reset_ues(drifted)
        pairs = [
            (d, other)
            for d in drifted
            for other in range(self.num_ues)
            if other != d
        ]
        self._partial_scheduler = MeasurementScheduler(
            num_ues=self.num_ues,
            distinct_per_subframe=self.config.measurement_k,
            samples=self.adaptive.remeasure_samples,
            pairs=pairs,
        )
        self.phase = BLUPhase.PARTIAL_REMEASURE

    def _complete_adaptation(self, subframe: int) -> None:
        event = self._active_event
        assert event is not None and self._partial_scheduler is not None
        event.remeasure_subframes = self._partial_scheduler.subframes_used
        extra_starts = None
        if self.adaptive.warm_start and self.inference_result is not None:
            extra_starts = [
                ("warm", topology_start(self.inference_result.topology))
            ]
        self._infer_and_switch(
            extra_starts=extra_starts,
            inference_config=self._partial_inference_config(),
        )
        self.metrics.reinferences += 1
        registry = active_registry()
        if registry is not None:
            self._obs_counters(registry)["reinferences"].inc()
        event.reinfer_subframe = subframe
        event.winning_start = self.inference_result.winning_start
        self._partial_scheduler = None
        self._active_event = None
        self._rebaseline()

    def _rebaseline(self) -> None:
        """New blueprint live: detectors start over, with a firing grace."""
        self.monitor.reset()
        self._cooldown_remaining = self.adaptive.cooldown_subframes

    # -- observation feedback ----------------------------------------------

    def _observe(self, observation: AccessObservation) -> None:
        registry = active_registry()
        obs = self._obs_counters(registry) if registry is not None else None
        if self.phase is BLUPhase.MEASUREMENT:
            super()._observe(observation)
            if self.phase is BLUPhase.SPECULATIVE:
                # Initial campaign just completed.
                self.metrics.full_measurement_subframes = (
                    self.measurement_subframes_used
                )
                self._rebaseline()
            return

        if self.phase is BLUPhase.DEGRADED:
            # Health gate rejected the blueprint: base-class fallback
            # handling only; drift detection resumes after recovery.
            super()._observe(observation)
            if self.phase is BLUPhase.SPECULATIVE:
                self._rebaseline()
            return

        if self.phase is BLUPhase.PARTIAL_REMEASURE:
            self._record(observation)
            assert self._partial_scheduler is not None
            self._partial_scheduler.record(sorted(observation.scheduled))
            self.metrics.partial_measurement_subframes += 1
            if obs is not None:
                obs["remeasure_subframes"].inc()
            if self._partial_scheduler.finished:
                self._complete_adaptation(observation.subframe)
            return

        # SPECULATIVE: base bookkeeping (estimator + optional timer-based
        # re-inference) first, then streaming drift detection over the
        # same observation.  A subframe that re-infers goes through the
        # base path and re-baselines the detectors instead ...
        if self._reinference_due():
            super()._observe(observation)
            self.metrics.reinferences += 1
            if obs is not None:
                obs["reinferences"].inc()
            self._rebaseline()
            return
        # ... any other feeds the estimator and the monitor in one pass.
        drifted = self.monitor.flagged(
            self._record(observation, monitor=self.monitor)
        )
        self._ul_subframes_since_inference += 1
        if self._cooldown_remaining > 0:
            self._cooldown_remaining -= 1
            if drifted:
                # Too soon to re-adapt; fold the firing into the baseline.
                self.monitor.reset(drifted)
                if obs is not None:
                    obs["cooldown_suppressed"].inc()
            return
        if drifted:
            if obs is not None:
                obs["drift_detections"].inc()
                obs["drifted_ues"].inc(len(drifted))
            self._begin_partial_remeasure(observation.subframe, drifted)


class FullRestartController(BLUController):
    """Change-aware baseline: full cold re-blueprint at a known instant.

    Given oracle knowledge of *when* the environment changes, it throws the
    whole estimator away and repeats the full Algorithm-1 campaign plus
    cold multi-start inference.  The adaptive controller's acceptance bar:
    recover comparable utilization while spending measurably fewer
    measurement subframes (and without being told the change time).
    """

    name = "blu-restart"

    def __init__(
        self,
        num_ues: int,
        config: Optional[BLUConfig] = None,
        restart_at: int = 0,
    ) -> None:
        super().__init__(num_ues, config)
        if restart_at < 0:
            raise ConfigurationError(f"restart_at must be >= 0: {restart_at}")
        self.restart_at = int(restart_at)
        self._restarted = False

    def _observe(self, observation: AccessObservation) -> None:
        if (
            not self._restarted
            and self.restart_at > 0
            and observation.subframe >= self.restart_at
        ):
            self._restarted = True
            self.estimator = AccessEstimator(
                self.num_ues, decay=self.config.estimator_decay
            )
            self.measurement_scheduler = MeasurementScheduler(
                num_ues=self.num_ues,
                distinct_per_subframe=self.config.measurement_k,
                samples=self.config.samples_per_pair,
            )
            self.phase = BLUPhase.MEASUREMENT
        super()._observe(observation)


class StagedBlueprintScheduler(UplinkScheduler):
    """The dynamics-aware oracle: the true blueprint at every instant.

    Wraps one speculative scheduler per ``(start_subframe, topology)``
    stage and dispatches on the context's subframe.  Its utilization is the
    ceiling an adaptive controller chases; the shortfall against it is the
    *utilization regret* reported by ``repro.analysis.dynamics``.
    """

    name = "oracle-blueprint"

    def __init__(
        self,
        stages: Sequence[Tuple[int, InterferenceTopology]],
        overschedule_factor: float = 2.0,
    ) -> None:
        if not stages:
            raise ConfigurationError("need at least one blueprint stage")
        ordered = sorted(stages, key=lambda stage: stage[0])
        if ordered[0][0] != 0:
            raise ConfigurationError(
                f"first stage must start at subframe 0: {ordered[0][0]}"
            )
        starts = [start for start, _ in ordered]
        if len(set(starts)) != len(starts):
            raise ConfigurationError(f"duplicate stage starts: {starts}")
        self._stages: List[Tuple[int, SpeculativeScheduler]] = [
            (
                start,
                SpeculativeScheduler(
                    TopologyJointProvider(topology),
                    overschedule_factor=overschedule_factor,
                ),
            )
            for start, topology in ordered
        ]

    def _scheduler_at(self, subframe: int) -> SpeculativeScheduler:
        current = self._stages[0][1]
        for start, scheduler in self._stages:
            if start > subframe:
                break
            current = scheduler
        return current

    def schedule(self, context: SchedulingContext) -> SubframeSchedule:
        return self._scheduler_at(context.subframe).schedule(context)
