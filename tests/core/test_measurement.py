"""Tests for Algorithm 1, the access estimator, and loss classification."""

import math

import numpy as np
import pytest

from repro.core.measurement.classifier import classify_subframe
from repro.core.measurement.estimator import AccessEstimator
from repro.core.measurement.feedback import ScheduledIds
from repro.core.measurement.pair_scheduler import (
    MeasurementScheduler,
    minimum_subframes,
    tuple_measurement_subframes,
)
from repro.core.scheduling._kernel import kernel
from repro.dynamics.detect import DriftMonitor
from repro.errors import MeasurementError
from repro.lte.enb import ENodeB
from repro.lte.resources import SubframeSchedule, UplinkGrant
from tests.reference import receive_subframe


class TestOverheadFormulas:
    def test_paper_example_pairwise(self):
        # N=20, K=8, T: < 7T subframes (paper Section 3.3).
        assert minimum_subframes(20, 8, 1) == 7
        assert minimum_subframes(20, 8, 50) == 340

    def test_paper_example_tuples(self):
        # 6-tuples, N=20, K=8: about 1384*T subframes (ceil of 1384.29).
        assert tuple_measurement_subframes(20, 6, 8, 1) == 1385
        assert tuple_measurement_subframes(20, 6, 8, 50) == math.ceil(
            math.comb(20, 6) / math.comb(8, 6) * 50
        )

    def test_tuples_beyond_k_infeasible(self):
        with pytest.raises(MeasurementError):
            tuple_measurement_subframes(20, 9, 8, 1)

    def test_pairwise_constant_in_m(self):
        # The headline: pair-wise overhead does not depend on MIMO order.
        assert minimum_subframes(20, 8, 50) == minimum_subframes(20, 8, 50)

    def test_single_ue_needs_nothing(self):
        assert minimum_subframes(1, 8, 50) == 0

    def test_exponential_vs_quadratic_gap(self):
        pair = minimum_subframes(20, 8, 50)
        six_tuple = tuple_measurement_subframes(20, 6, 8, 50)
        assert six_tuple > 100 * pair


class TestMeasurementScheduler:
    def test_schedules_k_distinct(self):
        scheduler = MeasurementScheduler(10, 4, 5)
        schedule = scheduler.next_schedule()
        assert len(schedule) == 4
        assert len(set(schedule)) == 4

    def test_small_cell_schedules_everyone(self):
        scheduler = MeasurementScheduler(3, 8, 5)
        assert scheduler.next_schedule() == [0, 1, 2]

    def test_plan_completes_all_pairs(self):
        scheduler = MeasurementScheduler(8, 4, 3)
        plan = scheduler.plan()
        assert scheduler.finished
        assert all(count >= 3 for count in scheduler.counts.values())

    def test_plan_near_lower_bound(self):
        # Greedy balance should stay within 2x of F_min.
        n, k, t = 12, 6, 5
        scheduler = MeasurementScheduler(n, k, t)
        plan = scheduler.plan()
        bound = minimum_subframes(n, k, t)
        assert len(plan) <= 2 * bound

    def test_counts_balanced_during_run(self):
        scheduler = MeasurementScheduler(10, 5, 10)
        for _ in range(30):
            scheduler.record(scheduler.next_schedule())
        counts = list(scheduler.counts.values())
        assert max(counts) - min(counts) <= 10

    def test_record_rejects_unknown_pair(self):
        scheduler = MeasurementScheduler(4, 2, 1)
        with pytest.raises(MeasurementError):
            scheduler.record([0, 99])

    def test_invalid_construction(self):
        with pytest.raises(MeasurementError):
            MeasurementScheduler(1, 4, 5)
        with pytest.raises(MeasurementError):
            MeasurementScheduler(4, 1, 5)
        with pytest.raises(MeasurementError):
            MeasurementScheduler(4, 4, 0)


class TestAccessEstimator:
    def test_record_and_estimate(self):
        estimator = AccessEstimator(3)
        estimator.record_subframe({0, 1}, {0})
        estimator.record_subframe({0, 1}, {0, 1})
        assert estimator.p_individual(0) == pytest.approx(1.0)
        assert estimator.p_individual(1) == pytest.approx(0.5)
        assert estimator.p_pairwise(0, 1) == pytest.approx(0.5)
        assert estimator.subframes_observed == 2

    def test_accessed_must_be_scheduled(self):
        estimator = AccessEstimator(3)
        with pytest.raises(MeasurementError):
            estimator.record_subframe({0}, {1})

    def test_unknown_ue_rejected(self):
        estimator = AccessEstimator(2)
        with pytest.raises(MeasurementError):
            estimator.record_subframe({5}, set())

    @pytest.mark.parametrize(
        "scheduled, accessed",
        [({0, 1, 7}, {0}), ({0, -1}, {0}), ({0, 1}, {0, 2})],
    )
    def test_rejected_subframe_leaves_state(self, scheduled, accessed):
        """Validation precedes every write, decay included: a rejected
        subframe leaves the counts bit-identical."""
        estimator = AccessEstimator(4, decay=0.5, track_triplets=True)
        estimator.record_subframe({0, 1, 2}, {0, 1})
        arrays = (
            estimator.n, estimator.clear, estimator.n_pair,
            estimator.clear_pair,
        )
        before = [array.tobytes() for array in arrays]
        with pytest.raises(MeasurementError):
            estimator.record_subframe(scheduled, accessed)
        assert [array.tobytes() for array in arrays] == before
        assert estimator.subframes_observed == 1
        assert estimator.triple_samples(0, 1, 2) == 1
        assert estimator.pair_samples(0, 1) == 1.0

    @pytest.mark.parametrize(
        "ids", [[0, 4], [-1, 0], [1, 0], [2, 2], [0, 1, 2, 3, 4]]
    )
    def test_kernel_rejects_bad_ids_before_writing(self, ids):
        """The compiled pass checks its ids itself (out of range,
        unsorted, repeated) and then writes nothing."""
        lib = kernel()
        if lib is None:
            pytest.skip("needs the compiled kernel library")
        estimator = AccessEstimator(4)
        monitor = DriftMonitor(4, min_samples=1)
        estimator.record(*_ids_and_flags({0, 1, 2}, {0, 1}), monitor)
        arrays = (
            estimator.n, estimator.clear, estimator.n_pair,
            estimator.clear_pair, monitor.ue_count, monitor.ue_state,
            monitor.pair_count, monitor.pair_state, monitor.drifted,
        )
        before = [array.tobytes() for array in arrays]
        array = np.array(ids, dtype=np.int64)
        assert lib.access_feedback(
            array.ctypes.data, len(ids), bytes([1] * len(ids)), 4,
            estimator.kernel_address, monitor.kernel_address,
        ) == -1
        assert [array.tobytes() for array in arrays] == before

    def test_no_samples_raises(self):
        estimator = AccessEstimator(2)
        with pytest.raises(MeasurementError):
            estimator.p_individual(0)
        with pytest.raises(MeasurementError):
            estimator.p_pairwise(0, 1)

    def test_floors_prevent_log_blowup(self):
        estimator = AccessEstimator(2)
        for _ in range(10):
            estimator.record_subframe({0, 1}, set())  # never clear
        assert estimator.p_individual(0) > 0
        assert estimator.p_pairwise(0, 1) > 0

    def test_completeness_tracking(self):
        estimator = AccessEstimator(3)
        assert not estimator.complete(1)
        estimator.record_subframe({0, 1, 2}, {0})
        assert estimator.complete(1)
        assert estimator.min_pair_samples() == 1

    def test_convergence_to_truth(self, simple_topology, rng):
        estimator = AccessEstimator(3)
        for _ in range(20000):
            busy0 = rng.random() < 0.3
            busy1 = rng.random() < 0.2
            accessed = set()
            if not busy0:
                accessed.add(0)
            if not (busy0 or busy1):
                accessed.add(1)
            accessed.add(2)
            estimator.record_subframe({0, 1, 2}, accessed)
        for ue in range(3):
            assert estimator.p_individual(ue) == pytest.approx(
                simple_topology.access_probability(ue), abs=0.02
            )
        assert estimator.p_pairwise(0, 1) == pytest.approx(
            simple_topology.pairwise_access_probability(0, 1), abs=0.02
        )

    def test_to_transformed_tolerances_shrink_with_samples(self, rng):
        def build(n):
            estimator = AccessEstimator(2)
            for _ in range(n):
                estimator.record_subframe({0, 1}, {0, 1} if rng.random() < 0.6 else set())
            return estimator.to_transformed()

        small = build(100)
        large = build(10000)
        assert large.pairwise_tolerance[(0, 1)] < small.pairwise_tolerance[(0, 1)]


def _ids_and_flags(scheduled, accessed):
    ids = ScheduledIds(scheduled, 4, MeasurementError)
    return ids, ids.accessed_flags(accessed, MeasurementError)


class TestClassifier:
    def make_reception(self, schedule, transmitting, sinr=25.0):
        enb = ENodeB(num_antennas=1, num_rbs=schedule.num_rbs)
        sinr_map = {
            ue: {rb: sinr for rb in range(schedule.num_rbs)}
            for ue in schedule.scheduled_ues()
        }
        return receive_subframe(enb, 0, schedule, transmitting, sinr_map)

    def test_blocked_vs_accessed(self):
        schedule = SubframeSchedule(num_rbs=2)
        schedule.add_grant(UplinkGrant(ue_id=0, rb=0, rate_bps=1e5))
        schedule.add_grant(UplinkGrant(ue_id=1, rb=1, rate_bps=1e5))
        observation = classify_subframe(
            schedule, self.make_reception(schedule, [0])
        )
        assert observation.accessed == frozenset({0})
        assert observation.blocked == frozenset({1})
        assert observation.decoded == frozenset({0})
        assert observation.access_fraction == pytest.approx(0.5)

    def test_collision_counts_as_access(self):
        # Pilots arrive even when data collides: access statistics must not
        # be polluted by over-scheduling collisions (Section 3.3).
        schedule = SubframeSchedule(num_rbs=1)
        schedule.add_grant(UplinkGrant(ue_id=0, rb=0, rate_bps=1e5, pilot_index=0))
        schedule.add_grant(UplinkGrant(ue_id=1, rb=0, rate_bps=1e5, pilot_index=1))
        observation = classify_subframe(
            schedule, self.make_reception(schedule, [0, 1])
        )
        assert observation.accessed == frozenset({0, 1})
        assert observation.collided == frozenset({0, 1})
        assert observation.decoded == frozenset()

    def test_fading_counts_as_access(self):
        schedule = SubframeSchedule(num_rbs=1)
        schedule.add_grant(UplinkGrant(ue_id=0, rb=0, rate_bps=1e9))
        observation = classify_subframe(
            schedule, self.make_reception(schedule, [0], sinr=5.0)
        )
        assert observation.accessed == frozenset({0})
        assert observation.faded == frozenset({0})

    def test_empty_schedule(self):
        schedule = SubframeSchedule(num_rbs=1)
        observation = classify_subframe(
            schedule, self.make_reception(schedule, [])
        )
        assert observation.scheduled == frozenset()
        assert observation.access_fraction == 0.0
