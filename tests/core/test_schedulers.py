"""Tests for the scheduler family: PF, AA, speculative, oracle, single-user."""

import numpy as np
import pytest

from repro.core.joint.provider import TopologyJointProvider
from repro.core.scheduling.access_aware import AccessAwareScheduler
from repro.core.scheduling.oracle import OracleScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.core.scheduling.single_user import SingleUserScheduler
from repro.core.scheduling.speculative import SpeculativeScheduler
from repro.errors import SchedulingError
from repro.topology.graph import InterferenceTopology
from tests.conftest import make_context
from tests.reference.scheduling import expected_group_utility, greedy_group


class TestGreedyGroup:
    def test_picks_best_singleton(self):
        values = {(0,): 1.0, (1,): 3.0, (2,): 2.0}

        def utility(group):
            return values.get(tuple(sorted(group)), 0.0)

        assert greedy_group([0, 1, 2], utility, max_size=1) == [1]

    def test_stops_when_no_gain(self):
        def utility(group):
            return 1.0 if len(group) == 1 else 0.5

        group = greedy_group([0, 1], utility, max_size=2)
        assert len(group) == 1

    def test_respects_max_size(self):
        def utility(group):
            return float(len(group))

        assert len(greedy_group(range(10), utility, max_size=3)) == 3

    def test_deterministic_tie_break(self):
        def utility(group):
            return float(len(group))

        assert greedy_group([3, 1, 2], utility, max_size=1) == [1]

    def test_bad_max_size(self):
        with pytest.raises(SchedulingError):
            greedy_group([0], lambda g: 0.0, max_size=0)


class TestProportionalFairScheduler:
    def test_siso_picks_best_weight_per_rb(self):
        # UE1 has double SNR-derived rate weight.
        context = make_context(
            num_ues=2, num_rbs=3, snr_db={0: [10] * 3, 1: [20] * 3}
        )
        schedule = ProportionalFairScheduler().schedule(context)
        for rb in range(3):
            assert schedule.rb(rb).ue_ids == (1,)

    def test_fairness_rotates_starved_client(self):
        context = make_context(
            num_ues=2,
            num_rbs=1,
            snr_db={0: [10], 1: [20]},
            avg_bps=[1e3, 1e8],  # UE1 has been served a lot
        )
        schedule = ProportionalFairScheduler().schedule(context)
        assert schedule.rb(0).ue_ids == (0,)

    def test_never_overschedules_siso(self):
        context = make_context(num_ues=6, num_rbs=4, num_antennas=1)
        schedule = ProportionalFairScheduler().schedule(context)
        for rb in range(4):
            assert len(schedule.rb(rb)) <= 1

    def test_mumimo_groups_up_to_m(self):
        context = make_context(num_ues=6, num_rbs=2, num_antennas=2, snr_db=25.0)
        schedule = ProportionalFairScheduler().schedule(context)
        for rb in range(2):
            assert 1 <= len(schedule.rb(rb)) <= 2

    def test_respects_k_budget(self):
        context = make_context(
            num_ues=8, num_rbs=8, num_antennas=1, max_distinct_ues=3,
            avg_bps=[1e5] * 8,
        )
        schedule = ProportionalFairScheduler().schedule(context)
        assert len(schedule.scheduled_ues()) <= 3

    def test_grant_rates_match_context(self):
        context = make_context(num_ues=2, num_rbs=1, snr_db=20.0)
        schedule = ProportionalFairScheduler().schedule(context)
        grant = schedule.rb(0).grants[0]
        assert grant.rate_bps == pytest.approx(context.rate_bps(grant.ue_id, 0, 1))


class TestAccessAwareScheduler:
    def topology(self):
        # UE0 badly blocked (q=0.8), UE1 clear.
        return InterferenceTopology.build(2, [(0.8, [0])])

    def test_prefers_accessible_client(self):
        provider = TopologyJointProvider(self.topology())
        context = make_context(num_ues=2, num_rbs=1, snr_db=20.0)
        schedule = AccessAwareScheduler(provider).schedule(context)
        assert schedule.rb(0).ue_ids == (1,)

    def test_never_overschedules(self):
        provider = TopologyJointProvider(self.topology())
        context = make_context(num_ues=2, num_rbs=4, num_antennas=1)
        schedule = AccessAwareScheduler(provider).schedule(context)
        for rb in range(4):
            assert len(schedule.rb(rb)) <= 1


class TestSpeculativeScheduler:
    def diverse_topology(self):
        # Two clients blocked by different, heavily active terminals:
        # with p(i) = 0.4 < 0.5, pairing strictly beats a lone grant
        # (2 * 0.4 * 0.6 = 0.48 > 0.4).
        return InterferenceTopology.build(
            2, [(0.6, [0]), (0.6, [1])]
        )

    def test_overschedules_diverse_clients(self):
        provider = TopologyJointProvider(self.diverse_topology())
        context = make_context(num_ues=2, num_rbs=1, num_antennas=1, snr_db=20.0)
        schedule = SpeculativeScheduler(provider).schedule(context)
        # Both clients share the single RB: f = 2 over-scheduling.
        assert len(schedule.rb(0)) == 2

    def test_does_not_overschedule_reliable_clients(self):
        # p(i) = 1: a second client on the RB can only collide.
        topology = InterferenceTopology.build(2, [])
        provider = TopologyJointProvider(topology)
        context = make_context(num_ues=2, num_rbs=1, num_antennas=1)
        schedule = SpeculativeScheduler(provider).schedule(context)
        assert len(schedule.rb(0)) == 1

    def test_group_capped_at_factor_times_m(self):
        topology = InterferenceTopology.build(
            6, [(0.6, [u]) for u in range(6)]
        )
        provider = TopologyJointProvider(topology)
        context = make_context(num_ues=6, num_rbs=1, num_antennas=1)
        schedule = SpeculativeScheduler(
            provider, overschedule_factor=2.0
        ).schedule(context)
        assert len(schedule.rb(0)) <= 2

    def test_factor_below_one_rejected(self):
        provider = TopologyJointProvider(self.diverse_topology())
        with pytest.raises(SchedulingError):
            SpeculativeScheduler(provider, overschedule_factor=0.5)

    def test_expected_utility_matches_hand_calculation(self):
        # Eqn. 4 for SISO with two independent clients.
        topology = InterferenceTopology.build(2, [(0.4, [0]), (0.3, [1])])
        provider = TopologyJointProvider(topology)
        context = make_context(num_ues=2, num_rbs=1, num_antennas=1, snr_db=20.0)
        w0 = context.pf_weight(0, 0, 1)
        w1 = context.pf_weight(1, 0, 1)
        expected = 0.6 * 0.3 * w0 + 0.4 * 0.7 * w1  # exactly-one outcomes
        value = expected_group_utility(provider, context, 0, [0, 1])
        assert value == pytest.approx(expected)

    def test_pilot_limit_respected(self):
        topology = InterferenceTopology.build(
            12, [(0.7, [u]) for u in range(12)]
        )
        provider = TopologyJointProvider(topology)
        context = make_context(
            num_ues=12, num_rbs=1, num_antennas=8, max_distinct_ues=12
        )
        schedule = SpeculativeScheduler(
            provider, overschedule_factor=2.0
        ).schedule(context)
        assert len(schedule.rb(0)) <= 8  # MAX_ORTHOGONAL_PILOTS

    def test_grant_rate_uses_stream_cap(self):
        topology = InterferenceTopology.build(
            4, [(0.6, [u]) for u in range(4)]
        )
        provider = TopologyJointProvider(topology)
        context = make_context(num_ues=4, num_rbs=1, num_antennas=2, snr_db=14.0)
        schedule = SpeculativeScheduler(provider).schedule(context)
        group = schedule.rb(0)
        if len(group) >= 2:
            for grant in group:
                assert grant.rate_bps == pytest.approx(
                    context.rate_bps(grant.ue_id, 0, 2)
                )


class TestOracleScheduler:
    def test_requires_genie_information(self):
        context = make_context(clear_ues=None)
        with pytest.raises(SchedulingError):
            OracleScheduler().schedule(context)

    def test_schedules_only_clear_clients(self):
        context = make_context(
            num_ues=4, num_rbs=4, clear_ues=frozenset({1, 3})
        )
        schedule = OracleScheduler().schedule(context)
        assert set(schedule.scheduled_ues()) <= {1, 3}
        assert schedule.total_grants > 0

    def test_nobody_clear_schedules_nothing(self):
        context = make_context(num_ues=2, num_rbs=2, clear_ues=frozenset())
        schedule = OracleScheduler().schedule(context)
        assert schedule.total_grants == 0

    def test_reschedules_every_subframe_flag(self):
        assert OracleScheduler.reschedule_every_subframe is True


class TestSingleUserScheduler:
    def test_single_ue_gets_all_rbs(self):
        context = make_context(num_ues=3, num_rbs=5)
        schedule = SingleUserScheduler().schedule(context)
        ues = schedule.scheduled_ues()
        assert len(ues) == 1
        assert len(schedule.grants_for(ues[0])) == 5

    def test_prefers_high_weight_client(self):
        context = make_context(
            num_ues=2, num_rbs=2, snr_db={0: [10, 10], 1: [25, 25]}
        )
        schedule = SingleUserScheduler().schedule(context)
        assert schedule.scheduled_ues() == (1,)
