"""Property tests for scheduler invariants: every scheduler must emit a
structurally legal schedule under arbitrary contexts, and the reception
pipeline must conserve grants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joint.provider import TopologyJointProvider
from repro.core.scheduling.access_aware import AccessAwareScheduler
from repro.core.scheduling.oracle import OracleScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.core.scheduling.speculative import SpeculativeScheduler
from repro.core.scheduling.types import SchedulingContext
from repro.lte.enb import ENodeB
from repro.lte.pilots import MAX_ORTHOGONAL_PILOTS
from tests.property.test_property_topology import topologies
from tests.reference import receive_subframe


@st.composite
def contexts(draw):
    num_ues = draw(st.integers(min_value=1, max_value=8))
    num_rbs = draw(st.integers(min_value=1, max_value=6))
    num_antennas = draw(st.sampled_from([1, 2, 4]))
    k = draw(st.integers(min_value=1, max_value=10))
    sinr = {
        u: np.array(
            draw(
                st.lists(
                    st.floats(min_value=-10.0, max_value=35.0),
                    min_size=num_rbs,
                    max_size=num_rbs,
                )
            )
        )
        for u in range(num_ues)
    }
    avgs = {
        u: draw(st.floats(min_value=1e3, max_value=1e7)) for u in range(num_ues)
    }
    clear = frozenset(
        draw(
            st.sets(st.integers(min_value=0, max_value=num_ues - 1), max_size=num_ues)
        )
    )
    return SchedulingContext(
        subframe=0,
        num_rbs=num_rbs,
        num_antennas=num_antennas,
        ue_ids=tuple(range(num_ues)),
        sinr_db=sinr,
        avg_throughput_bps=avgs,
        max_distinct_ues=k,
        clear_ues=clear,
    )


def check_schedule_invariants(schedule, context, max_per_rb):
    distinct = set()
    for rb in range(context.num_rbs):
        rb_schedule = schedule.rb(rb)
        assert len(rb_schedule) <= min(max_per_rb, MAX_ORTHOGONAL_PILOTS)
        pilots = [g.pilot_index for g in rb_schedule]
        assert len(set(pilots)) == len(pilots)
        for grant in rb_schedule:
            assert grant.rate_bps >= 0.0
            distinct.add(grant.ue_id)
    assert len(distinct) <= context.max_distinct_ues


@given(contexts())
@settings(max_examples=60, deadline=None)
def test_pf_schedule_legal(context):
    schedule = ProportionalFairScheduler().schedule(context)
    check_schedule_invariants(schedule, context, context.num_antennas)


@given(contexts())
@settings(max_examples=60, deadline=None)
def test_oracle_schedule_legal_and_clear_only(context):
    schedule = OracleScheduler().schedule(context)
    check_schedule_invariants(schedule, context, context.num_antennas)
    assert set(schedule.scheduled_ues()) <= set(context.clear_ues)


@given(contexts(), topologies(max_ues=8, max_terminals=5), st.data())
@settings(max_examples=40, deadline=None)
def test_speculative_schedule_legal(context, topology, data):
    if topology.num_ues < len(context.ue_ids):
        return
    provider = TopologyJointProvider(topology)
    scheduler = SpeculativeScheduler(provider, overschedule_factor=2.0)
    schedule = scheduler.schedule(context)
    check_schedule_invariants(schedule, context, 2 * context.num_antennas)


@given(contexts(), topologies(max_ues=8, max_terminals=5))
@settings(max_examples=40, deadline=None)
def test_access_aware_schedule_legal(context, topology):
    if topology.num_ues < len(context.ue_ids):
        return
    provider = TopologyJointProvider(topology)
    schedule = AccessAwareScheduler(provider).schedule(context)
    check_schedule_invariants(schedule, context, context.num_antennas)


@given(contexts(), st.data())
@settings(max_examples=40, deadline=None)
def test_reception_conserves_grants(context, data):
    """Every issued grant gets exactly one outcome; delivered bits only come
    from decoded grants."""
    schedule = ProportionalFairScheduler().schedule(context)
    scheduled = set(schedule.scheduled_ues())
    transmitting = [u for u in scheduled if u in context.clear_ues]
    enb = ENodeB(num_antennas=context.num_antennas, num_rbs=context.num_rbs)
    sinr_map = {
        u: {rb: float(context.sinr_db[u][rb]) for rb in range(context.num_rbs)}
        for u in scheduled
    }
    reception = receive_subframe(enb, 0, schedule, transmitting, sinr_map)
    outcome_count = sum(
        len(r.outcomes) for r in reception.rb_receptions.values()
    )
    assert outcome_count == schedule.total_grants
    for rb_reception in reception.rb_receptions.values():
        for ue in rb_reception.delivered_bits:
            from repro.lte.phy import GrantOutcome

            assert rb_reception.outcomes[ue] is GrantOutcome.DECODED
