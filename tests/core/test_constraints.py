"""Tests for the working topology and constraint violations."""

import numpy as np
import pytest

from repro.core.blueprint.constraints import WorkingTopology
from repro.core.blueprint.transform import (
    TransformedMeasurements,
    forward_transform_q,
)
from repro.errors import InferenceError


def exact_target(topology, tolerance=1e-9):
    n = topology.num_ues
    return TransformedMeasurements.from_probabilities(
        n,
        {i: topology.access_probability(i) for i in range(n)},
        {
            (i, j): topology.pairwise_access_probability(i, j)
            for i in range(n)
            for j in range(i + 1, n)
        },
        default_tolerance=tolerance,
    )


def working_from(topology):
    return WorkingTopology.from_terminals(
        topology.num_ues,
        [
            (forward_transform_q(q), set(ues))
            for q, ues in zip(topology.q, topology.edges)
        ],
    )


class TestWorkingTopology:
    def test_empty(self):
        working = WorkingTopology(3)
        assert working.num_terminals == 0
        assert working.contribution_matrix().shape == (3, 3)

    def test_rejects_zero_ues(self):
        with pytest.raises(InferenceError):
            WorkingTopology(0)

    def test_add_terminal(self):
        working = WorkingTopology(3)
        index = working.add_terminal(0.5, [0, 2])
        assert index == 0
        assert working.edge_set(0) == frozenset({0, 2})
        assert working.terminals_for_ue(2) == [0]

    def test_add_rejects_negative_weight(self):
        with pytest.raises(InferenceError):
            WorkingTopology(2).add_terminal(-0.1, [0])

    def test_add_rejects_unknown_ue(self):
        with pytest.raises(InferenceError):
            WorkingTopology(2).add_terminal(0.1, [5])

    def test_set_weight_clamps_at_zero(self):
        working = WorkingTopology(2)
        working.add_terminal(0.5, [0])
        working.set_weight(0, -1.0)
        assert working.weights[0] == 0.0

    def test_copy_is_independent(self):
        working = WorkingTopology(2)
        working.add_terminal(0.5, [0])
        duplicate = working.copy()
        duplicate.set_weight(0, 0.9)
        assert working.weights[0] == pytest.approx(0.5)

    def test_state_views_are_read_only(self):
        working = WorkingTopology(2)
        working.add_terminal(0.5, [0])
        with pytest.raises(ValueError):
            working.weights[0] = 0.9
        with pytest.raises(ValueError):
            working.edge_matrix()[0, 1] = True
        snapshot = working.weights
        working.set_weight(0, 0.9)
        assert snapshot[0] == 0.5
        assert working.weights[0] == 0.9

    def test_prune_drops_zero_weight(self):
        working = WorkingTopology(2)
        working.add_terminal(0.0, [0])
        working.add_terminal(0.5, [1])
        working.prune()
        assert working.num_terminals == 1

    def test_prune_drops_edgeless(self):
        working = WorkingTopology(2)
        working.add_terminal(0.5, [0])
        working.set_edge(0, 0, False)
        working.prune()
        assert working.num_terminals == 0

    def test_prune_merges_duplicates(self):
        working = WorkingTopology(2)
        working.add_terminal(0.3, [0, 1])
        working.add_terminal(0.2, [0, 1])
        working.prune()
        assert working.num_terminals == 1
        assert working.weights[0] == pytest.approx(0.5)


class TestConstraintArithmetic:
    def test_exact_topology_has_zero_violation(self, simple_topology):
        working = working_from(simple_topology)
        target = exact_target(simple_topology)
        assert working.aggregate_violation(target) == pytest.approx(0.0, abs=1e-9)
        assert working.is_satisfied(target)

    def test_contribution_matrix_values(self, simple_topology):
        working = working_from(simple_topology)
        w = working.contribution_matrix()
        q0 = forward_transform_q(0.3)
        q1 = forward_transform_q(0.2)
        assert w[0, 0] == pytest.approx(q0)
        assert w[1, 1] == pytest.approx(q0 + q1)
        assert w[0, 1] == pytest.approx(q0)
        assert w[2, 2] == pytest.approx(0.0)

    def test_violations_sorted_by_magnitude(self, simple_topology):
        target = exact_target(simple_topology)
        working = WorkingTopology(3)  # empty: everything under-contributes
        violations = working.violations(target)
        magnitudes = [abs(v.amount) for v in violations]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert all(v.amount < 0 for v in violations)

    def test_tolerance_suppresses_small_violations(self, simple_topology):
        working = working_from(simple_topology)
        working.set_weight(0, working.weights[0] + 0.005)
        tight = exact_target(simple_topology, tolerance=1e-9)
        loose = exact_target(simple_topology, tolerance=0.1)
        assert not working.is_satisfied(tight)
        assert working.is_satisfied(loose)

    def test_violations_follow_every_mutation(self, simple_topology):
        target = exact_target(simple_topology)
        working = working_from(simple_topology)
        mutations = [
            lambda t: t.set_weight(0, 0.7),
            lambda t: t.set_edge(1, 2, True),
            lambda t: t.add_terminal(0.25, [0, 2]),
            lambda t: (t.add_terminal(0.5, [0, 2]), t.prune()),
        ]
        for mutate in mutations:
            before = working.violation_matrix(target)
            mutate(working)
            expected = working.contribution_matrix() - target.matrix()
            assert (working.violation_matrix(target) == expected).all()
            assert not (working.violation_matrix(target) == before).all()

    def test_mismatched_target_rejected(self, simple_topology):
        working = WorkingTopology(4)
        with pytest.raises(InferenceError):
            working.violation_matrix(exact_target(simple_topology))

    def test_roundtrip_to_interference_topology(self, simple_topology):
        working = working_from(simple_topology)
        restored = working.to_interference_topology()
        assert restored.num_terminals == 2
        for q, edges in zip(restored.q, restored.edges):
            assert edges in {frozenset({0, 1}), frozenset({1})}
            assert q == pytest.approx(0.3 if edges == frozenset({0, 1}) else 0.2)
