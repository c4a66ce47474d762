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

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

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
        if num_ues < 1:
            raise ConfigurationError(f"need at least one UE: {num_ues}")
        if not 0.0 < co_flag_fraction <= 1.0:
            raise ConfigurationError(
                f"co_flag_fraction must be in (0, 1]: {co_flag_fraction}"
            )
        self.num_ues = num_ues
        self.co_flag_fraction = float(co_flag_fraction)
        self.kind = detector
        self._threshold = float(threshold)
        self._min_samples = int(min_samples)
        #: The detectors' drift allowance (Page–Hinkley ``delta``, CUSUM
        #: ``k``), as each detector stores it.
        self._slack = float(delta)
        self._kwargs = dict(min_samples=min_samples, threshold=threshold)
        if detector == "page-hinkley":
            self._kwargs["delta"] = delta
        else:
            self._kwargs["k"] = delta
        self.track_pairs = bool(track_pairs)
        self._ue: Dict[int, object] = {
            ue: _make_detector(detector, **self._kwargs)
            for ue in range(num_ues)
        }
        # Pair detectors are created lazily, only for pairs actually
        # scheduled together (O(K^2) per subframe, not O(N^2) up front).
        self._pair: Dict[Tuple[int, int], object] = {}

    def update(
        self, scheduled: Iterable[int], accessed: Iterable[int]
    ) -> FrozenSet[int]:
        """One subframe of evidence; returns the clients flagged drifted.

        Runs every stream's detector recurrence inline — the per-client
        streams, then the per-pair ones, in one loop — over the detectors'
        own state, performing exactly the float operations of their
        :meth:`~PageHinkleyDetector.update` (the single-stream API, and
        the oracle the tests hold this loop to) in the same order.  A
        method call per stream would cost more than its arithmetic.
        """
        scheduled_set = sorted(set(scheduled))
        accessed_set = set(accessed)
        ue_detectors = self._ue
        # (detector, sample, clients flagged when it fires)
        streams = [
            (ue_detectors[ue], 1.0 if ue in accessed_set else 0.0, (ue,))
            for ue in scheduled_set
        ]
        if self.track_pairs:
            pair_detectors = self._pair
            for pair in combinations(scheduled_set, 2):
                detector = pair_detectors.get(pair)
                if detector is None:
                    detector = _make_detector(self.kind, **self._kwargs)
                    pair_detectors[pair] = detector
                both = pair[0] in accessed_set and pair[1] in accessed_set
                streams.append((detector, 1.0 if both else 0.0, pair))
        min_samples = self._min_samples
        threshold = self._threshold
        slack = self._slack
        drifted: Set[int] = set()
        # Each ``max``/``min`` of the single-stream form is written as the
        # compare it performs (it keeps its first argument unless the
        # second is strictly greater/smaller), so ties and signed zeros
        # resolve identically.
        if self.kind == "page-hinkley":
            for detector, x, clients in streams:
                n = detector._n + 1
                mean = detector._mean
                mean += (x - mean) / n
                low = detector._low + ((x - mean) + slack)
                low_max = detector._low_max
                if low > low_max:
                    low_max = low
                high = detector._high + ((x - mean) - slack)
                high_min = detector._high_min
                if high < high_min:
                    high_min = high
                detector._n = n
                detector._mean = mean
                detector._low = low
                detector._low_max = low_max
                detector._high = high
                detector._high_min = high_min
                if n >= min_samples:
                    falling = low_max - low
                    rising = high - high_min
                    if (rising if rising > falling else falling) > threshold:
                        drifted.update(clients)
        else:
            for detector, x, clients in streams:
                n = detector._n + 1
                mean = detector._mean
                mean += (x - mean) / n
                pos = ((detector._pos + x) - mean) - slack
                if not pos > 0.0:
                    pos = 0.0
                neg = ((detector._neg - x) + mean) - slack
                if not neg > 0.0:
                    neg = 0.0
                detector._n = n
                detector._mean = mean
                detector._pos = pos
                detector._neg = neg
                if n >= min_samples and (neg if neg > pos else pos) > threshold:
                    drifted.update(clients)
        if drifted:
            bar = self.co_flag_fraction * threshold
            page_hinkley = self.kind == "page-hinkley"
            for ue, detector in ue_detectors.items():
                if ue in drifted or detector._n < min_samples:
                    continue
                if page_hinkley:
                    falling = detector._low_max - detector._low
                    rising = detector._high - detector._high_min
                else:
                    falling = detector._pos
                    rising = detector._neg
                if (rising if rising > falling else falling) > bar:
                    drifted.add(ue)
        return frozenset(drifted)

    def reset(self, ues: Optional[Iterable[int]] = None) -> None:
        """Re-baseline detectors (all, or those touching ``ues``).

        Called after a re-blueprint: the post-adaptation access rates are a
        new normal, and stale baselines would re-fire forever.
        """
        if ues is None:
            for detector in self._ue.values():
                detector.reset()
            self._pair.clear()
            return
        affected = set(ues)
        for ue in affected:
            self._ue[ue].reset()
        for pair in list(self._pair):
            if affected & set(pair):
                del self._pair[pair]
