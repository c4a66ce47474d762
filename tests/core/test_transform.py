"""Tests for the log-domain transformation (Section 3.4.1)."""

import math
import pickle

import pytest

from repro.core.blueprint.transform import (
    PROBABILITY_FLOOR,
    TransformedMeasurements,
    forward_transform_q,
    inverse_transform_q,
    transform_individual,
    transform_pairwise,
)
from repro.errors import MeasurementError


class TestScalarTransforms:
    def test_individual_free_client(self):
        assert transform_individual(1.0) == pytest.approx(0.0)

    def test_individual_value(self):
        assert transform_individual(0.5) == pytest.approx(math.log(2))

    def test_individual_floors_zero(self):
        value = transform_individual(0.0)
        assert value == pytest.approx(-math.log(PROBABILITY_FLOOR))

    def test_individual_rejects_out_of_range(self):
        with pytest.raises(MeasurementError):
            transform_individual(1.5)
        with pytest.raises(MeasurementError):
            transform_individual(-0.1)

    def test_pairwise_independent_clients_zero(self):
        # p(i,j) = p(i)p(j) => no shared terminal mass.
        assert transform_pairwise(0.6, 0.5, 0.3) == pytest.approx(0.0)

    def test_pairwise_shared_terminal(self):
        # One shared terminal with q=0.3: p(i)=p(j)=p(i,j)=0.7.
        value = transform_pairwise(0.7, 0.7, 0.7)
        assert value == pytest.approx(-math.log(0.7))

    def test_pairwise_clamps_anticorrelation(self):
        # Sampling noise / contention can give p(i,j) < p(i)p(j); the
        # transformed mass cannot be negative.
        assert transform_pairwise(0.5, 0.5, 0.2) == 0.0

    def test_q_roundtrip(self):
        for q in [0.0, 0.1, 0.5, 0.9]:
            assert inverse_transform_q(forward_transform_q(q)) == pytest.approx(q)

    def test_forward_q_rejects_one(self):
        with pytest.raises(MeasurementError):
            forward_transform_q(1.0)

    def test_inverse_q_rejects_negative(self):
        with pytest.raises(MeasurementError):
            inverse_transform_q(-0.1)


class TestTransformedMeasurements:
    def make(self, num_ues=3):
        individual = {i: 0.1 * (i + 1) for i in range(num_ues)}
        pairwise = {
            (i, j): 0.01
            for i in range(num_ues)
            for j in range(i + 1, num_ues)
        }
        return TransformedMeasurements(num_ues, individual, pairwise)

    def test_valid_construction(self):
        target = self.make()
        assert target.num_ues == 3
        assert len(target.pairwise) == 3

    def test_missing_ue_rejected(self):
        with pytest.raises(MeasurementError):
            TransformedMeasurements(3, {0: 0.1, 1: 0.1}, {})

    def test_malformed_pair_keys_rejected(self):
        with pytest.raises(MeasurementError):
            TransformedMeasurements(
                2, {0: 0.1, 1: 0.1}, {(1, 0): 0.05}
            )

    def test_default_tolerances_applied(self):
        target = self.make()
        assert target.individual_tolerance[0] == pytest.approx(1e-9)
        assert target.pairwise_tolerance[(0, 1)] == pytest.approx(1e-9)

    def test_measurements_are_read_only(self):
        target = TransformedMeasurements(
            3,
            {0: 0.1, 1: 0.2, 2: 0.3},
            {(0, 1): 0.01, (0, 2): 0.02, (1, 2): 0.03},
            triplet={(0, 1, 2): 0.005},
        )
        for mapping, key in (
            (target.individual, 0),
            (target.pairwise, (0, 1)),
            (target.triplet, (0, 1, 2)),
            (target.individual_tolerance, 0),
            (target.pairwise_tolerance, (0, 1)),
            (target.triplet_tolerance, (0, 1, 2)),
        ):
            with pytest.raises(TypeError):
                mapping[key] = 1.0
        for array in (
            target.matrix(),
            target.tolerance_matrix(),
            target.triplet_values,
            target.triplet_tolerances,
        ):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_pickle_roundtrip(self):
        target = TransformedMeasurements(
            3,
            {0: 0.1, 1: 0.2, 2: 0.3},
            {(0, 1): 0.01, (0, 2): 0.02, (1, 2): 0.03},
            pairwise_tolerance={(0, 1): 0.5},
            triplet={(0, 1, 2): 0.005},
        )
        restored = pickle.loads(pickle.dumps(target))
        assert dict(restored.pairwise) == dict(target.pairwise)
        assert dict(restored.pairwise_tolerance) == dict(target.pairwise_tolerance)
        assert dict(restored.triplet) == dict(target.triplet)
        assert (restored.matrix() == target.matrix()).all()

    def test_matrix_layout(self):
        target = self.make()
        w = target.matrix()
        assert w.shape == (3, 3)
        assert w[0, 0] == pytest.approx(target.individual[0])
        assert w[0, 1] == pytest.approx(target.pairwise[(0, 1)])
        assert w[1, 0] == pytest.approx(w[0, 1])

    def test_from_probabilities_matches_topology(self, simple_topology):
        p_individual = {
            i: simple_topology.access_probability(i) for i in range(3)
        }
        p_pairwise = {
            (i, j): simple_topology.pairwise_access_probability(i, j)
            for i in range(3)
            for j in range(i + 1, 3)
        }
        target = TransformedMeasurements.from_probabilities(
            3, p_individual, p_pairwise
        )
        # Transformed values must equal the log-domain topology sums.
        q0 = forward_transform_q(0.3)
        q1 = forward_transform_q(0.2)
        assert target.individual[0] == pytest.approx(q0)
        assert target.individual[1] == pytest.approx(q0 + q1)
        assert target.individual[2] == pytest.approx(0.0)
        assert target.pairwise[(0, 1)] == pytest.approx(q0)
        assert target.pairwise[(0, 2)] == pytest.approx(0.0)

    def test_from_probabilities_accepts_reversed_keys(self, simple_topology):
        p_individual = {
            i: simple_topology.access_probability(i) for i in range(3)
        }
        p_pairwise = {
            (j, i): simple_topology.pairwise_access_probability(i, j)
            for i in range(3)
            for j in range(i + 1, 3)
        }
        target = TransformedMeasurements.from_probabilities(
            3, p_individual, p_pairwise
        )
        assert target.pairwise[(0, 1)] > 0
