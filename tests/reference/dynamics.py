"""The drift monitor as one single-stream detector per stream: the test
oracle for :class:`~repro.dynamics.detect.DriftMonitor`.

:class:`PerStreamMonitor` composes :class:`PageHinkleyDetector` or
:class:`CusumDetector` objects — one per client, one per pair scheduled
together, created on first use and dropped on reset — and runs each
stream's ``update`` in the monitor's order, then the co-flag pass.  The
production monitor keeps the same streams in dense arrays and runs their
recurrences in one pass; fed the same subframes and resets, both must
flag the same clients and hold the same states, float for float.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.dynamics.detect import CusumDetector, PageHinkleyDetector

__all__ = ["PerStreamMonitor", "assert_same_streams"]


class PerStreamMonitor:
    """The drift monitor written with one detector ``update`` call per
    stream — the oracle the array-backed :class:`DriftMonitor` must match
    flag for flag and state for state."""

    def __init__(self, num_ues, detector, delta, threshold, min_samples,
                 track_pairs, co_flag_fraction):
        if detector == "page-hinkley":
            self.make = lambda: PageHinkleyDetector(
                delta=delta, threshold=threshold, min_samples=min_samples
            )
        else:
            self.make = lambda: CusumDetector(
                k=delta, threshold=threshold, min_samples=min_samples
            )
        self.min_samples = min_samples
        self.bar = co_flag_fraction * threshold
        self.track_pairs = track_pairs
        self.ue = {ue: self.make() for ue in range(num_ues)}
        self.pair = {}

    def update(self, scheduled, accessed):
        scheduled = sorted(set(scheduled))
        accessed = set(accessed)
        drifted = set()
        for ue in scheduled:
            if self.ue[ue].update(1.0 if ue in accessed else 0.0):
                drifted.add(ue)
        if self.track_pairs:
            for index, first in enumerate(scheduled):
                for second in scheduled[index + 1:]:
                    pair = (first, second)
                    detector = self.pair.get(pair)
                    if detector is None:
                        detector = self.pair[pair] = self.make()
                    both = first in accessed and second in accessed
                    if detector.update(1.0 if both else 0.0):
                        drifted.update(pair)
        if drifted:
            for ue, detector in self.ue.items():
                if (
                    ue not in drifted
                    and detector.samples >= self.min_samples
                    and detector.statistic > self.bar
                ):
                    drifted.add(ue)
        return frozenset(drifted)

    def reset(self, ues=None):
        if ues is None:
            for detector in self.ue.values():
                detector.reset()
            self.pair.clear()
            return
        for ue in ues:
            self.ue[ue].reset()
        for pair in list(self.pair):
            if set(ues) & set(pair):
                del self.pair[pair]


def assert_same_streams(monitor, oracle):
    """Every stream's state equals the oracle detector's (floats with
    ``==``), the live pairs are the oracle's created ones, and a pair the
    oracle never created reads as a fresh detector."""
    for ue in range(monitor.num_ues):
        assert monitor.state(ue) == oracle.ue[ue].state()
    if not monitor.track_pairs:
        return
    assert monitor.live_pairs() == set(oracle.pair)
    fresh = oracle.make().state()
    for a in range(monitor.num_ues):
        for b in range(a + 1, monitor.num_ues):
            detector = oracle.pair.get((a, b))
            expected = fresh if detector is None else detector.state()
            assert monitor.state((a, b)) == expected
