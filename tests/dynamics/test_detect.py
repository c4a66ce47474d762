"""Unit tests: sequential change detectors and the drift monitor."""

import numpy as np
import pytest

from repro.dynamics.detect import CusumDetector, DriftMonitor, PageHinkleyDetector
from repro.errors import ConfigurationError

# The controller's production operating point (AdaptiveConfig defaults).
PH_DEFAULTS = dict(delta=0.1, threshold=30.0, min_samples=50)


class TestPageHinkley:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PageHinkleyDetector(delta=-0.1)
        with pytest.raises(ConfigurationError):
            PageHinkleyDetector(threshold=0.0)
        with pytest.raises(ConfigurationError):
            PageHinkleyDetector(min_samples=0)

    def test_silent_before_min_samples(self):
        detector = PageHinkleyDetector(delta=0.0, threshold=0.001, min_samples=30)
        for _ in range(29):
            assert not detector.update(1.0) or detector.samples >= 30

    def test_no_false_alarm_on_stationary_bernoulli(self):
        """The production operating point over a long stationary stream.

        This is the regression test for the envelope-orientation bug: with
        the min/max trackers inverted the statistic grows by ~delta per
        sample under stationarity and fires every ~threshold/delta samples
        no matter how the knobs are tuned.
        """
        rng = np.random.default_rng(7)
        detector = PageHinkleyDetector(**PH_DEFAULTS)
        fired = [
            detector.update(float(rng.random() < 0.6)) for _ in range(20000)
        ]
        assert not any(fired)
        # The envelope stays bounded, far from the threshold.
        assert detector.statistic < 0.5 * detector.threshold

    @pytest.mark.parametrize("direction", ["drop", "rise"])
    def test_detects_mean_shift_both_ways(self, direction):
        rng = np.random.default_rng(3)
        detector = PageHinkleyDetector(**PH_DEFAULTS)
        before, after = (0.9, 0.5) if direction == "drop" else (0.5, 0.9)
        for _ in range(2000):
            assert not detector.update(float(rng.random() < before))
        fired_at = None
        for t in range(2000):
            if detector.update(float(rng.random() < after)):
                fired_at = t
                break
        assert fired_at is not None
        assert fired_at < 500  # detection delay is bounded

    def test_reset_restarts_baseline(self):
        rng = np.random.default_rng(5)
        detector = PageHinkleyDetector(**PH_DEFAULTS)
        for _ in range(1000):
            detector.update(float(rng.random() < 0.9))
        detector.reset()
        assert detector.samples == 0
        # After reset the *new* rate is the baseline: no firing.
        assert not any(
            detector.update(float(rng.random() < 0.5)) for _ in range(3000)
        )


class TestCusum:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CusumDetector(k=-0.1)
        with pytest.raises(ConfigurationError):
            CusumDetector(threshold=-1.0)

    def test_no_false_alarm_on_stationary_stream(self):
        rng = np.random.default_rng(11)
        detector = CusumDetector(k=0.1, threshold=30.0, min_samples=50)
        assert not any(
            detector.update(float(rng.random() < 0.6)) for _ in range(20000)
        )

    def test_detects_mean_drop(self):
        rng = np.random.default_rng(13)
        detector = CusumDetector(k=0.1, threshold=30.0, min_samples=50)
        for _ in range(2000):
            detector.update(float(rng.random() < 0.9))
        assert any(
            detector.update(float(rng.random() < 0.4)) for _ in range(1000)
        )


class TestDriftMonitor:
    def build(self, num_ues=4, **overrides):
        kwargs = dict(
            delta=0.1, threshold=30.0, min_samples=50, track_pairs=True
        )
        kwargs.update(overrides)
        return DriftMonitor(num_ues, **kwargs)

    def feed(self, monitor, rng, subframes, block_prob):
        """All four UEs scheduled; UE ``u`` blocked w.p. block_prob[u]."""
        flagged = set()
        scheduled = set(range(monitor.num_ues))
        for _ in range(subframes):
            accessed = {
                u for u in scheduled if rng.random() >= block_prob.get(u, 0.0)
            }
            flagged |= monitor.update(scheduled, accessed)
        return flagged

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DriftMonitor(0)
        with pytest.raises(ConfigurationError):
            DriftMonitor(4, co_flag_fraction=0.0)
        with pytest.raises(ConfigurationError):
            DriftMonitor(4, detector="unknown")

    def test_stationary_world_never_flags(self):
        rng = np.random.default_rng(17)
        monitor = self.build()
        flagged = self.feed(monitor, rng, 8000, {0: 0.2, 1: 0.2, 2: 0.2, 3: 0.2})
        assert flagged == set()

    def test_flags_the_drifted_client(self):
        rng = np.random.default_rng(19)
        monitor = self.build(co_flag_fraction=1.0)
        self.feed(monitor, rng, 3000, {u: 0.1 for u in range(4)})
        # UE2's interference environment worsens sharply.
        flagged = self.feed(
            monitor, rng, 2000, {0: 0.1, 1: 0.1, 2: 0.6, 3: 0.1}
        )
        assert 2 in flagged

    def test_co_flagging_folds_near_crossers(self):
        # Two clients drift together (a shared hidden node): sympathetic
        # co-flagging should report both in the same episode.
        rng = np.random.default_rng(23)
        monitor = self.build(co_flag_fraction=0.5)
        self.feed(monitor, rng, 3000, {u: 0.1 for u in range(4)})
        scheduled = set(range(4))
        first = None
        for _ in range(3000):
            accessed = {
                u
                for u in scheduled
                if rng.random() >= (0.55 if u in (1, 2) else 0.1)
            }
            flagged = monitor.update(scheduled, accessed)
            if flagged:
                first = flagged
                break
        assert first is not None
        assert first >= {1, 2}

    def test_partial_reset_keeps_other_baselines(self):
        rng = np.random.default_rng(29)
        monitor = self.build()
        self.feed(monitor, rng, 2000, {u: 0.1 for u in range(4)})
        samples_before = {
            u: monitor._ue[u].samples for u in range(4)
        }
        monitor.reset({2})
        assert monitor._ue[2].samples == 0
        assert monitor._ue[0].samples == samples_before[0]
        # No surviving pair detector touches UE2.
        assert all(2 not in pair for pair in monitor._pair)

    def test_pair_detector_catches_joint_shift(self):
        # A pure correlation shift: each UE's individual access rate stays
        # at 0.8 throughout, but blocking switches from anti-correlated
        # (one victim per busy period, joint rate 0.6) to perfectly
        # correlated (both blocked together, joint rate 0.8).  Only the
        # pair detector sees the change.
        rng = np.random.default_rng(31)
        monitor = self.build(min_samples=50)
        scheduled = {0, 1}
        for _ in range(4000):
            busy = rng.random() < 0.4
            victim = 0 if rng.random() < 0.5 else 1
            accessed = {u for u in scheduled if not (busy and u == victim)}
            monitor.update(scheduled, accessed)
        flagged = set()
        for _ in range(4000):
            both_blocked = rng.random() < 0.2
            accessed = set() if both_blocked else set(scheduled)
            flagged |= monitor.update(scheduled, accessed)
            if flagged:
                break
        assert flagged  # detected, and both endpoints re-measured
        assert flagged == {0, 1}


class _PerStreamMonitor:
    """The drift monitor written with one detector ``update`` call per
    stream — the oracle the inlined :meth:`DriftMonitor.update` loop must
    match flag for flag and state for state."""

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


@pytest.mark.parametrize("track_pairs", [True, False])
@pytest.mark.parametrize("kind", ["page-hinkley", "cusum"])
def test_inlined_monitor_matches_per_stream_detectors(kind, track_pairs):
    """Random schedules and access outcomes whose rates shift mid-run,
    with partial and full resets: every subframe's flagged set and every
    detector's state equal the per-stream oracle's (floats with ``==``)."""
    rng = np.random.default_rng(7 if kind == "cusum" else 11)
    num_ues = 7
    settings = dict(
        delta=0.05, threshold=4.0, min_samples=12, co_flag_fraction=0.5
    )
    monitor = DriftMonitor(
        num_ues, detector=kind, track_pairs=track_pairs, **settings
    )
    oracle = _PerStreamMonitor(
        num_ues, kind, track_pairs=track_pairs, **settings
    )
    block = rng.uniform(0.05, 0.4, size=num_ues)
    fired = resets = 0
    for subframe in range(1500):
        if subframe % 300 == 150:
            block = rng.uniform(0.0, 0.9, size=num_ues)
        scheduled = rng.choice(
            num_ues, size=rng.integers(0, num_ues + 1), replace=False
        ).tolist()
        accessed = [ue for ue in scheduled if rng.random() >= block[ue]]
        flagged = monitor.update(scheduled, accessed)
        assert flagged == oracle.update(scheduled, accessed)
        if flagged:
            fired += 1
            monitor.reset(flagged)
            oracle.reset(flagged)
        elif subframe % 400 == 399:
            resets += 1
            monitor.reset()
            oracle.reset()
        for ue in range(num_ues):
            assert vars(monitor._ue[ue]) == vars(oracle.ue[ue])
        assert list(monitor._pair) == list(oracle.pair)
        for pair, detector in monitor._pair.items():
            assert vars(detector) == vars(oracle.pair[pair])
    assert fired >= 3 and resets >= 1
