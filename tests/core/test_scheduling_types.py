"""Tests for the scheduling context and PF bookkeeping."""

import numpy as np
import pytest

from repro.core.scheduling.fairness import PfAverageTracker, jain_fairness_index
from repro.core.scheduling.types import SchedulingContext
from repro.errors import ConfigurationError, SchedulingError
from repro.lte import mcs
from tests.conftest import make_context


class TestSchedulingContext:
    def test_valid_context(self):
        context = make_context(num_ues=3, num_rbs=2)
        assert context.ue_ids == (0, 1, 2)

    def test_missing_sinr_rejected(self):
        with pytest.raises(SchedulingError):
            SchedulingContext(
                subframe=0,
                num_rbs=2,
                num_antennas=1,
                ue_ids=(0,),
                sinr_db={},
                avg_throughput_bps={0: 1.0},
            )

    def test_wrong_sinr_length_rejected(self):
        with pytest.raises(SchedulingError):
            SchedulingContext(
                subframe=0,
                num_rbs=3,
                num_antennas=1,
                ue_ids=(0,),
                sinr_db={0: np.zeros(2)},
                avg_throughput_bps={0: 1.0},
            )

    def test_missing_average_rejected(self):
        with pytest.raises(SchedulingError):
            SchedulingContext(
                subframe=0,
                num_rbs=1,
                num_antennas=1,
                ue_ids=(0,),
                sinr_db={0: np.zeros(1)},
                avg_throughput_bps={},
            )

    def test_bad_dimensions_rejected(self):
        with pytest.raises(SchedulingError):
            make_context(num_rbs=0)
        with pytest.raises(SchedulingError):
            make_context(num_antennas=0)

    def test_rate_matches_mcs_model(self):
        context = make_context(snr_db=20.0)
        # Grants back off by the link-adaptation margin before CQI lookup.
        expected = mcs.rb_rate_bps(20.0 - context.link_margin_db)
        assert context.rate_bps(0, 0, 1) == pytest.approx(expected)

    def test_link_margin_reduces_rate(self):
        import numpy as np
        from repro.core.scheduling.types import SchedulingContext

        def ctx(margin):
            return SchedulingContext(
                subframe=0, num_rbs=1, num_antennas=1, ue_ids=(0,),
                sinr_db={0: np.full(1, 10.0)},
                avg_throughput_bps={0: 1e5}, link_margin_db=margin,
            )

        assert ctx(3.0).rate_bps(0, 0, 1) < ctx(0.0).rate_bps(0, 0, 1)

    def test_rate_scale_multiplies(self):
        context = make_context(snr_db=20.0)
        scaled = SchedulingContext(
            subframe=0,
            num_rbs=4,
            num_antennas=1,
            ue_ids=(0,),
            sinr_db={0: np.full(4, 20.0)},
            avg_throughput_bps={0: 1e5},
            rate_scale=5.0,
        )
        assert scaled.rate_bps(0, 0, 1) == pytest.approx(
            5.0 * context.rate_bps(0, 0, 1)
        )

    def test_multistream_rate_penalty(self):
        context = make_context(num_antennas=2, snr_db=14.0)
        assert context.rate_bps(0, 0, 2) < context.rate_bps(0, 0, 1)

    def test_pf_weight_inverse_in_average(self):
        context = make_context(avg_bps=[1e5, 2e5, 1e5, 1e5])
        assert context.pf_weight(0, 0) == pytest.approx(2 * context.pf_weight(1, 0))

    def test_rate_memoized(self):
        context = make_context()
        first = context.rate_bps(0, 0, 1)
        assert context.rate_bps(0, 0, 1) == first
        assert 1 in context._rate_matrices


class TestPfAverageTracker:
    def test_update_rule(self):
        tracker = PfAverageTracker([0], alpha=10.0, initial_bps=100.0)
        tracker.update({0: 1100.0})
        # R = 0.1*1100 + 0.9*100 = 200.
        assert tracker.average(0) == pytest.approx(200.0)

    def test_absent_ue_served_zero(self):
        tracker = PfAverageTracker([0, 1], alpha=10.0, initial_bps=100.0)
        tracker.update({0: 1000.0})
        assert tracker.average(1) == pytest.approx(90.0)

    def test_converges_to_steady_rate(self):
        tracker = PfAverageTracker([0], alpha=50.0, initial_bps=1.0)
        for _ in range(2000):
            tracker.update({0: 500.0})
        assert tracker.average(0) == pytest.approx(500.0, rel=0.01)

    def test_unknown_ue_rejected(self):
        tracker = PfAverageTracker([0])
        with pytest.raises(ConfigurationError):
            tracker.average(9)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PfAverageTracker([0], alpha=1.0)
        with pytest.raises(ConfigurationError):
            PfAverageTracker([0], initial_bps=0.0)
        with pytest.raises(ConfigurationError):
            PfAverageTracker([])


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_maximally_unfair(self):
        assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_defined_fair(self):
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            jain_fairness_index([])
