"""Unit tests: sequential change detectors and the drift monitor."""

import numpy as np
import pytest

from repro.dynamics.detect import CusumDetector, DriftMonitor, PageHinkleyDetector
from repro.errors import ConfigurationError
from tests.reference.dynamics import PerStreamMonitor, assert_same_streams

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
        samples_before = {u: monitor.state(u)[0] for u in range(4)}
        assert monitor.live_pairs() == {
            (a, b) for a in range(4) for b in range(a + 1, 4)
        }
        monitor.reset({2})
        assert monitor.state(2)[0] == 0
        assert monitor.state(0)[0] == samples_before[0]
        # No surviving pair detector touches UE2.
        assert monitor.live_pairs() == {(0, 1), (0, 3), (1, 3)}
        assert monitor.state((1, 2)) == (0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_co_flag_bar_is_strict(self):
        """A client whose envelope sits exactly on the co-flag bar is not
        folded in: UE0's CUSUM envelope is exactly 0.5 = 0.5 * 1.0 when
        UE1 fires."""
        monitor = DriftMonitor(
            2, detector="cusum", delta=0.0, threshold=1.0, min_samples=2,
            track_pairs=False, co_flag_fraction=0.5,
        )
        assert monitor.update({0, 1}, {0, 1}) == frozenset()
        assert monitor.update({0}, set()) == frozenset()
        assert monitor.state(0) == (2, 0.5, 0.0, 0.5)
        flagged = [monitor.update({1}, set()) for _ in range(3)]
        assert flagged == [frozenset(), frozenset(), frozenset({1})]

    @pytest.mark.parametrize(
        "scheduled, accessed",
        [({0, 4}, {0}), ({0, -1}, set()), ({0, 1}, {2})],
    )
    def test_rejected_update_leaves_state(self, scheduled, accessed):
        rng = np.random.default_rng(37)
        monitor = self.build()
        self.feed(monitor, rng, 60, {u: 0.3 for u in range(4)})
        before = [array.copy() for array in _arrays(monitor)]
        with pytest.raises(ConfigurationError):
            monitor.update(scheduled, accessed)
        with pytest.raises(ConfigurationError):
            monitor.reset({7})
        for old, new in zip(before, _arrays(monitor)):
            assert old.tobytes() == new.tobytes()

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


def _arrays(monitor):
    """Every array of a monitor's stream state."""
    arrays = [monitor.ue_count, monitor.ue_state]
    if monitor.pair_count is not None:
        arrays += [monitor.pair_count, monitor.pair_state]
    return arrays


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
    oracle = PerStreamMonitor(
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
        assert_same_streams(monitor, oracle)
    assert fired >= 3 and resets >= 1
