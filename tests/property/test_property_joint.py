"""Property tests: Section 3.6 conditioning == inclusion-exclusion, and the
joint providers agree with both."""

import itertools
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joint.conditioning import joint_access_probability
from repro.core.joint.provider import (
    JointAccessProvider,
    TopologyJointProvider,
    _FastJointTables,
)
from repro.core.scheduling._kernel import kernel_available
from repro.topology.graph import InterferenceTopology
from tests.property.test_property_topology import topologies


@given(topologies(max_ues=5), st.data())
@settings(max_examples=80, deadline=None)
def test_conditioning_equals_inclusion_exclusion(topology, data):
    ues = list(range(topology.num_ues))
    group = data.draw(
        st.lists(st.sampled_from(ues), min_size=1, max_size=4, unique=True)
    )
    split = data.draw(st.integers(min_value=0, max_value=len(group)))
    clear, blocked = group[:split], group[split:]
    reference = topology.joint_access_probability(clear, blocked)
    value = joint_access_probability(topology, clear, blocked)
    assert abs(value - reference) < 1e-9


@given(topologies(max_ues=5), st.data())
@settings(max_examples=80, deadline=None)
def test_provider_pattern_distribution_is_a_distribution(topology, data):
    ues = list(range(topology.num_ues))
    group = frozenset(
        data.draw(
            st.lists(st.sampled_from(ues), min_size=1, max_size=4, unique=True)
        )
    )
    provider = TopologyJointProvider(topology)
    distribution = provider.pattern_distribution(group)
    total = sum(distribution.values())
    assert abs(total - 1.0) < 1e-9
    for pattern, probability in distribution.items():
        assert pattern <= group
        assert -1e-12 <= probability <= 1.0 + 1e-12


@given(topologies(max_ues=5), st.data())
@settings(max_examples=60, deadline=None)
def test_provider_agrees_with_exact_joint(topology, data):
    ues = list(range(topology.num_ues))
    group = data.draw(
        st.lists(st.sampled_from(ues), min_size=1, max_size=3, unique=True)
    )
    provider = TopologyJointProvider(topology)
    for r in range(len(group) + 1):
        for clear in itertools.combinations(group, r):
            blocked = [u for u in group if u not in clear]
            expected = topology.joint_access_probability(list(clear), blocked)
            value = provider.joint_probability(list(clear), blocked)
            assert abs(value - expected) < 1e-9


@given(topologies(max_ues=5), st.data())
@settings(max_examples=60, deadline=None)
def test_pattern_table_marginalizes_to_access_probability(topology, data):
    ues = list(range(topology.num_ues))
    group = frozenset(
        data.draw(
            st.lists(st.sampled_from(ues), min_size=1, max_size=4, unique=True)
        )
    )
    provider = TopologyJointProvider(topology)
    table = provider.pattern_table(group)
    for ue in group:
        total = sum(p for (member, _), p in table.items() if member == ue)
        assert abs(total - topology.access_probability(ue)) < 1e-9


_PROBABILITIES = st.floats(min_value=0.0, max_value=0.95)


@st.composite
def service_cases(draw):
    """A topology, a 1-8 member group and ``M``, with terminals that share
    a footprint and terminals that touch no member."""
    base = draw(topologies(max_ues=10, max_terminals=12))
    ues = list(range(base.num_ues))
    group = draw(
        st.lists(
            st.sampled_from(ues),
            min_size=1,
            max_size=min(8, base.num_ues),
            unique=True,
        )
    )
    terminals = list(zip(base.q, base.edges))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        footprint = draw(
            st.lists(st.sampled_from(group), min_size=1, unique=True)
        )
        terminals += [(draw(_PROBABILITIES), footprint)] * 2
    outside = [ue for ue in ues if ue not in group]
    if outside:
        footprint = draw(
            st.lists(st.sampled_from(outside), min_size=1, unique=True)
        )
        terminals.append((draw(_PROBABILITIES), footprint))
    topology = InterferenceTopology.build(
        base.num_ues, draw(st.permutations(terminals))
    )
    return topology, frozenset(group), draw(st.integers(1, 8))


@given(service_cases())
@settings(max_examples=150, deadline=None)
def test_service_kernel_walk_and_reference_agree_bit_for_bit(case):
    """Compiled ``joint_service``, the pure-Python walk and the frozenset
    reference return the same floats; the first two in the same
    (ascending) key order."""
    topology, group, max_streams = case
    provider = TopologyJointProvider(topology)
    tables = provider.fast_tables()
    assert (tables._kernel is not None) == kernel_available()
    with mock.patch.dict(os.environ, {"REPRO_DISABLE_KERNEL": "1"}):
        pure = _FastJointTables(topology)
    assert pure._kernel is None
    mask = sum(1 << ue for ue in group)
    compiled = list(tables.service(mask, max_streams).items())
    assert compiled == list(pure.service(mask, max_streams).items())
    reference = JointAccessProvider.decodable_service(
        provider, group, max_streams
    )
    assert compiled == sorted(reference.items())
