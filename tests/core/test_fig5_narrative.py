"""The Fig. 5 narrative as executable assertions.

Fig. 5 of the paper contrasts two over-scheduling decisions on the Fig. 1
topology: pairing clients silenced by *different* hidden terminals raises
utilization (TxOP 1: clients 3, 7), while pairing clients that share a
hidden terminal — or whose access overlaps heavily — wastes the RB through
collisions or joint blocking (TxOP 2: clients 5, 2 blocked together by H3,
1 and 5 colliding).

These tests pin that reasoning in the speculative scheduler's utility
function (its scalar Eqn. 4 form in ``tests/reference/scheduling.py``):
given the joint access distribution, the good pairing must score higher
than the bad ones, and the greedy group builder must choose it.
"""

import pytest

from repro.core.joint.provider import TopologyJointProvider
from repro.core.scheduling.speculative import SpeculativeScheduler
from repro.topology.scenarios import fig1_topology
from tests.conftest import make_context
from tests.reference.scheduling import expected_group_utility


@pytest.fixture
def setup():
    # Fig. 1: H1 silences {0,1}, H2 silences {2,3}, H3 silences {4,5};
    # client 6 is interference-free.  Heavy activity makes over-scheduling
    # worthwhile.
    topology = fig1_topology(activity=0.6)
    provider = TopologyJointProvider(topology)
    scheduler = SpeculativeScheduler(provider)
    context = make_context(num_ues=7, num_rbs=1, num_antennas=1, snr_db=20.0)
    return topology, provider, scheduler, context


class TestFig5Reasoning:
    def test_diverse_pairing_beats_shared_terminal_pairing(self, setup):
        _, provider, _, context = setup
        # Clients 0 and 2: different terminals (H1 vs H2) — the TxOP 1 win.
        diverse = expected_group_utility(provider, context, 0, [0, 2])
        # Clients 4 and 5: both silenced by H3 — blocked together, clear
        # together (collision): the TxOP 2 failure.
        shared = expected_group_utility(provider, context, 0, [4, 5])
        assert diverse > shared

    def test_shared_terminal_pairing_is_worse_than_singleton(self, setup):
        _, provider, _, context = setup
        singleton = expected_group_utility(provider, context, 0, [4])
        shared = expected_group_utility(provider, context, 0, [4, 5])
        # Clients that always clear together can only collide: pairing them
        # is strictly worse than scheduling one alone.
        assert shared < singleton

    def test_pairing_with_clean_client_collides(self, setup):
        _, provider, _, context = setup
        # Client 6 is interference-free (p=1): whenever its partner clears,
        # they collide; the pair can never beat client 6 alone.
        alone = expected_group_utility(provider, context, 0, [6])
        paired = expected_group_utility(provider, context, 0, [6, 0])
        assert paired < alone

    def test_greedy_group_picks_interference_diverse_partner(self, setup):
        topology, provider, scheduler, context = setup
        # Force the greedy builder to start from client 0 by making client
        # 6 unavailable (it would otherwise win as the clean client) and
        # check the partner chosen for the RB is from a different terminal.
        schedule = SpeculativeScheduler(provider).schedule(
            make_context(
                num_ues=6, num_rbs=1, num_antennas=1, snr_db=20.0
            )
        )
        group = schedule.rb(0).ue_ids
        if len(group) == 2:
            a, b = group
            terminals_a = set(topology.terminals_for_ue(a))
            terminals_b = set(topology.terminals_for_ue(b))
            assert not terminals_a & terminals_b

    def test_joint_distribution_matches_fig1_structure(self, setup):
        topology, provider, _, _ = setup
        # Same-terminal pair: never exactly-one (they block together).
        table_45 = provider.pattern_table(frozenset({4, 5}))
        assert table_45.get((4, 1), 0.0) == pytest.approx(0.0, abs=1e-12)
        # Different-terminal pair: exactly-one happens often.
        table_02 = provider.pattern_table(frozenset({0, 2}))
        exactly_one = table_02.get((0, 1), 0.0) + table_02.get((2, 1), 0.0)
        assert exactly_one == pytest.approx(2 * 0.4 * 0.6, abs=1e-9)
