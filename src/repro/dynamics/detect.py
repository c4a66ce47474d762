"""Streaming change detection over access-rate observations.

During the speculative phase every uplink subframe keeps producing access
samples (scheduled → did the pilot appear?).  These detectors watch those
Bernoulli streams for a shift in mean — the statistical signature of a
hidden node arriving, leaving, or changing duty cycle — and, crucially,
flag *which* clients drifted, so re-measurement can be targeted instead of
starting the whole Algorithm-1 sweep over.

Two classic sequential detectors are provided:

* :class:`PageHinkleyDetector` — cumulative deviation from the running mean
  with drift allowance ``delta``; fires when the deviation envelope exceeds
  ``threshold``.  Two-sided (detects both loss and recovery of access).
* :class:`CusumDetector` — tabular CUSUM against a reference mean with
  slack ``k``; the reference is the stream's own running mean, making it
  self-calibrating like Page–Hinkley.

:class:`DriftMonitor` composes them: one detector per client over its
individual access rate, plus (optionally) one per scheduled-together pair
over the joint access rate — pair statistics move when a *shared* terminal
appears even if each individual rate shift is small.
"""

from __future__ import annotations

import ctypes
from typing import FrozenSet, Iterable, Optional, Set, Tuple

import numpy as np

from repro.core.measurement.feedback import (
    ScheduledIds,
    access_feedback,
    compiled_feedback,
    flat_views,
)
from repro.errors import ConfigurationError

__all__ = ["PageHinkleyDetector", "CusumDetector", "DriftMonitor"]


class PageHinkleyDetector:
    """Two-sided Page–Hinkley test on a univariate stream."""

    def __init__(
        self,
        delta: float = 0.02,
        threshold: float = 3.0,
        min_samples: int = 30,
    ) -> None:
        if delta < 0:
            raise ConfigurationError(f"delta must be >= 0: {delta}")
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0: {threshold}")
        if min_samples < 1:
            raise ConfigurationError(f"min_samples must be >= 1: {min_samples}")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self.reset()

    def reset(self) -> None:
        """Forget everything; the next sample starts a fresh baseline."""
        self._n = 0
        self._mean = 0.0
        # Decrease test: cumulative (x - mean + delta).  Under a stationary
        # stream this drifts *up* (+delta per sample), hugging its running
        # max; a mean drop makes it fall away from that max.
        self._low = 0.0
        self._low_max = 0.0
        # Increase test: cumulative (x - mean - delta), mirrored — it
        # drifts down, and a mean rise lifts it off its running min.
        self._high = 0.0
        self._high_min = 0.0

    @property
    def samples(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self._mean

    def update(self, x: float) -> bool:
        """Feed one sample; True when a mean shift is detected."""
        self._n += 1
        self._mean += (x - self._mean) / self._n
        self._low += x - self._mean + self.delta
        self._low_max = max(self._low_max, self._low)
        self._high += x - self._mean - self.delta
        self._high_min = min(self._high_min, self._high)
        if self._n < self.min_samples:
            return False
        return self.statistic > self.threshold

    @property
    def statistic(self) -> float:
        """Current detection envelope (compare against ``threshold``)."""
        return max(self._low_max - self._low, self._high - self._high_min)

    def state(self) -> tuple:
        """``(samples, mean, low, low_max, high, high_min)``."""
        return (
            self._n, self._mean, self._low, self._low_max, self._high,
            self._high_min,
        )


class CusumDetector:
    """Two-sided tabular CUSUM against the stream's running mean."""

    def __init__(
        self,
        k: float = 0.05,
        threshold: float = 3.0,
        min_samples: int = 30,
    ) -> None:
        if k < 0:
            raise ConfigurationError(f"slack k must be >= 0: {k}")
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0: {threshold}")
        if min_samples < 1:
            raise ConfigurationError(f"min_samples must be >= 1: {min_samples}")
        self.k = float(k)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self.reset()

    def reset(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._pos = 0.0
        self._neg = 0.0

    @property
    def samples(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self._mean

    def update(self, x: float) -> bool:
        self._n += 1
        self._mean += (x - self._mean) / self._n
        self._pos = max(0.0, self._pos + x - self._mean - self.k)
        self._neg = max(0.0, self._neg - x + self._mean - self.k)
        if self._n < self.min_samples:
            return False
        return self.statistic > self.threshold

    @property
    def statistic(self) -> float:
        """Current detection envelope (compare against ``threshold``)."""
        return max(self._pos, self._neg)

    def state(self) -> tuple:
        """``(samples, mean, pos, neg)``."""
        return (self._n, self._mean, self._pos, self._neg)


def _make_detector(kind: str, **kwargs):
    if kind == "page-hinkley":
        return PageHinkleyDetector(**kwargs)
    if kind == "cusum":
        return CusumDetector(**kwargs)
    raise ConfigurationError(f"unknown detector kind: {kind!r}")


class DriftMonitor:
    """Per-client (and per-pair) drift detection over access observations.

    Feed :meth:`update` with each subframe's ``(scheduled, accessed)`` sets;
    it returns the clients flagged as drifted this subframe (usually empty).
    A pair detector firing flags both endpoints — the caller cannot tell
    which endpoint's interferer moved from the pair statistic alone, and
    re-measuring both is cheap.

    When anything fires, clients whose own envelope has already climbed
    past ``co_flag_fraction`` of the threshold are flagged along with it
    (sympathetic co-flagging): a shared hidden node shifts several streams
    at once, but sampling noise staggers their individual crossing times,
    and folding the near-crossers into the same adaptation episode saves a
    second detection/re-measurement round trip.

    Every detector's state lives in dense arrays: per stream an ``int64``
    sample count (``ue_count`` of shape ``(U,)``, ``pair_count`` of shape
    ``(U, U)``, upper triangle) and ``DRIFT_STATE`` doubles (``ue_state``,
    ``pair_state``) — Page–Hinkley's mean, low, low_max, high, high_min,
    or CUSUM's mean, pos, neg.  A fresh detector is all zeros, so a pair
    whose count is 0 is exactly a pair detector never created: pairs need
    no lazy creation, and :meth:`reset` zeroes rows and columns.  Read a
    stream through :meth:`state`; :class:`PageHinkleyDetector` and
    :class:`CusumDetector` remain the single-stream API, and the oracle
    the monitor is held to.
    """

    def __init__(
        self,
        num_ues: int,
        detector: str = "page-hinkley",
        delta: float = 0.02,
        threshold: float = 3.0,
        min_samples: int = 30,
        track_pairs: bool = True,
        co_flag_fraction: float = 0.5,
    ) -> None:
        from repro.core.scheduling._kernel import DRIFT_STATE, DriftStreams

        if num_ues < 1:
            raise ConfigurationError(f"need at least one UE: {num_ues}")
        if not 0.0 < co_flag_fraction <= 1.0:
            raise ConfigurationError(
                f"co_flag_fraction must be in (0, 1]: {co_flag_fraction}"
            )
        # The single-stream detector validates the settings.
        _make_detector(
            detector,
            threshold=threshold,
            min_samples=min_samples,
            **({"delta": delta} if detector == "page-hinkley" else {"k": delta}),
        )
        self.num_ues = num_ues
        self.co_flag_fraction = float(co_flag_fraction)
        self.kind = detector
        self.cusum = detector == "cusum"
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        #: The detectors' drift allowance (Page–Hinkley ``delta``, CUSUM
        #: ``k``), as each detector stores it.
        self.slack = float(delta)
        #: The co-flag bar: ``co_flag_fraction`` of the threshold.
        self.bar = self.co_flag_fraction * self.threshold
        self.track_pairs = bool(track_pairs)
        self.ue_count = np.zeros(num_ues, dtype=np.int64)
        self.ue_state = np.zeros((num_ues, DRIFT_STATE))
        self.pair_count = self.pair_state = None
        if self.track_pairs:
            self.pair_count = np.zeros((num_ues, num_ues), dtype=np.int64)
            self.pair_state = np.zeros((num_ues, num_ues, DRIFT_STATE))
        #: Per-client flags of the last pass that fired.
        self.drifted = np.zeros(num_ues, dtype=np.uint8)
        self._compiled = compiled_feedback()
        #: Flat views of the stream arrays (``None`` for absent pair
        #: arrays), for the pass's Python form.
        self.views = (
            *flat_views(self.ue_count, self.ue_state),
            *(
                (None, None) if self.pair_count is None
                else flat_views(self.pair_count, self.pair_state)
            ),
            *flat_views(self.drifted),
        )

        def pointer(array):
            return None if array is None else array.ctypes.data

        self._kernel_streams = DriftStreams(
            self.cusum,
            self.min_samples,
            self.slack,
            self.threshold,
            self.bar,
            pointer(self.ue_count),
            pointer(self.ue_state),
            pointer(self.pair_count),
            pointer(self.pair_state),
            pointer(self.drifted),
        )
        #: Address of the ``DriftStreams`` descriptor the kernel takes.
        self.kernel_address = ctypes.addressof(self._kernel_streams)

    def update(
        self, scheduled: Iterable[int], accessed: Iterable[int]
    ) -> FrozenSet[int]:
        """One subframe of evidence; returns the clients flagged drifted.

        Runs every stream's detector recurrence — the per-client streams
        in ascending order, then the per-pair ones in
        ``combinations(sorted(scheduled), 2)`` order — performing exactly
        the float operations of :meth:`PageHinkleyDetector.update` /
        :meth:`CusumDetector.update`, then the co-flag pass.  Raises
        :class:`ConfigurationError`, with no detector touched, when an id
        is not a client of the cell or an accessed client was not
        scheduled.
        """
        ids = ScheduledIds(scheduled, self.num_ues, ConfigurationError)
        flags = ids.accessed_flags(accessed, ConfigurationError)
        return self.flagged(
            access_feedback(
                self._compiled, ids, flags, self.num_ues, None, self
            )
        )

    def flagged(self, count: int) -> FrozenSet[int]:
        """The clients the last pass flagged, given the count it returned
        (see :meth:`AccessEstimator.record`)."""
        if not count:
            return frozenset()
        return frozenset(np.flatnonzero(self.drifted).tolist())

    def state(self, stream) -> tuple:
        """One detector's state: a UE id or a pair ``(i, j)``.

        The same tuple as the single-stream detector's
        :meth:`PageHinkleyDetector.state` / :meth:`CusumDetector.state`;
        an untouched pair reads as a fresh detector.
        """
        if isinstance(stream, tuple):
            i, j = sorted(stream)
            if self.pair_count is None or not 0 <= i < j < self.num_ues:
                raise ConfigurationError(f"no pair stream {stream!r}")
            count, state = self.pair_count[i, j], self.pair_state[i, j]
        else:
            if not 0 <= stream < self.num_ues:
                raise ConfigurationError(f"unknown UE id {stream}")
            count, state = self.ue_count[stream], self.ue_state[stream]
        return (int(count), *state[: 3 if self.cusum else 5].tolist())

    def live_pairs(self) -> Set[Tuple[int, int]]:
        """The pairs whose detector has seen at least one sample."""
        if self.pair_count is None:
            return set()
        rows, cols = np.nonzero(self.pair_count)
        return set(zip(rows.tolist(), cols.tolist()))

    def reset(self, ues: Optional[Iterable[int]] = None) -> None:
        """Re-baseline detectors (all, or those touching ``ues``).

        Called after a re-blueprint: the post-adaptation access rates are a
        new normal, and stale baselines would re-fire forever.
        """
        arrays = [self.ue_count, self.ue_state]
        pairs = (
            [] if self.pair_count is None
            else [self.pair_count, self.pair_state]
        )
        if ues is None:
            for array in arrays + pairs:
                array[...] = 0
            return
        rows = sorted(set(ues))
        bad = [ue for ue in rows if not 0 <= ue < self.num_ues]
        if bad:
            raise ConfigurationError(f"unknown UE ids {bad}")
        for array in arrays:
            array[rows] = 0
        for array in pairs:
            array[rows, :] = 0
            array[:, rows] = 0
