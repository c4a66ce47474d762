"""Log-domain transformation of access probabilities (Section 3.4.1).

The transformation turns products of hidden-terminal idle probabilities into
sums, so the topology-inference problem becomes a *linear* constraint
system in the transformed variables:

* ``P(i)   = -log p(i)            = sum_k z_ik Q(k)``
* ``Q(k)   = -log(1 - q(k))``
* ``P(i,j) = -log(p(i) p(j) / p(i,j)) = sum_k z_ik z_jk Q(k)``

``P(i,j)`` is the (point-mass) mutual information between the two clients'
access indicators — zero when they share no hidden terminal, positive
otherwise.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import MeasurementError

__all__ = [
    "PROBABILITY_FLOOR",
    "transform_individual",
    "transform_pairwise",
    "transform_triplet",
    "inverse_transform_q",
    "forward_transform_q",
    "TransformedMeasurements",
]

#: Probabilities are floored here before taking logs: an estimated zero
#: access probability would transform to infinity and poison the solver.
PROBABILITY_FLOOR = 1e-6


def _floored(probability: float, name: str) -> float:
    if not 0.0 <= probability <= 1.0 + 1e-12:
        raise MeasurementError(f"{name} outside [0, 1]: {probability}")
    return min(max(probability, PROBABILITY_FLOOR), 1.0)


def transform_individual(p_i: float) -> float:
    """``P(i) = -log p(i)`` (>= 0; zero for an interference-free client)."""
    return -math.log(_floored(p_i, "p(i)"))


def transform_pairwise(p_i: float, p_j: float, p_ij: float) -> float:
    """``P(i,j) = -log(p(i) p(j) / p(i,j))``.

    Sampling noise can push the estimated ``p(i,j)`` slightly below
    ``p(i) * p(j)`` even for independent clients; the result is clamped at
    zero since the underlying quantity (shared-terminal mass) cannot be
    negative.
    """
    p_i = _floored(p_i, "p(i)")
    p_j = _floored(p_j, "p(j)")
    p_ij = _floored(p_ij, "p(i,j)")
    value = math.log(p_ij) - math.log(p_i) - math.log(p_j)
    return max(value, 0.0)


def transform_triplet(
    p_i: float,
    p_j: float,
    p_k: float,
    p_ij: float,
    p_ik: float,
    p_jk: float,
    p_ijk: float,
) -> float:
    """Triple-shared terminal mass ``T(i,j,k) = sum_l z_il z_jl z_kl Q(l)``.

    By inclusion-exclusion in the log domain,
    ``T = -log p(ijk) + sum_pairs log p(pair) - sum_singles log p(single)``.
    Section 3.5: such higher-order constraints disambiguate skewed
    topologies that pair-wise measurements alone cannot pin down.
    """
    singles = [_floored(p, "p(single)") for p in (p_i, p_j, p_k)]
    pairs = [_floored(p, "p(pair)") for p in (p_ij, p_ik, p_jk)]
    triple = _floored(p_ijk, "p(i,j,k)")
    value = (
        -math.log(triple)
        + sum(math.log(p) for p in pairs)
        - sum(math.log(p) for p in singles)
    )
    return max(value, 0.0)


def forward_transform_q(q_k: float) -> float:
    """``Q(k) = -log(1 - q(k))`` — a hidden terminal's log-domain weight."""
    if not 0.0 <= q_k < 1.0:
        raise MeasurementError(f"q(k) outside [0, 1): {q_k}")
    return -math.log(1.0 - q_k)


def inverse_transform_q(big_q: float) -> float:
    """Recover ``q(k) = 1 - exp(-Q(k))`` from the log-domain weight."""
    if big_q < 0.0:
        raise MeasurementError(f"Q(k) must be non-negative: {big_q}")
    return 1.0 - math.exp(-big_q)


class TransformedMeasurements:
    """The transformed constraint targets handed to the inference solver.

    Immutable once built: the mappings are read-only views and the arrays
    the solver reads on every candidate evaluation (the target and
    tolerance matrices, the upper-triangle index, the triplet arrays) are
    built once, write-protected, in the constructor.

    Attributes:
        num_ues: number of clients ``N``.
        individual: ``{i: P(i)}`` for every client.
        pairwise: ``{(i, j): P(i, j)}`` with ``i < j`` for every pair.
        individual_tolerance: per-client satisfiability tolerance (driven by
            sampling noise; exact inputs use a tiny default).
        pairwise_tolerance: per-pair tolerance.
        triplet: ``{(i, j, k): T(i, j, k)}`` for the supplied triples.
        triplet_tolerance: per-triple tolerance.
        upper: ``np.triu_indices(N, 1)``, the pairwise constraints in
            row-major order.
        triplet_index: ``(m, 3)`` client indices of the triples, in
            :attr:`triplet` order; ``triplet_values`` and
            ``triplet_tolerances`` align with it.
    """

    def __init__(
        self,
        num_ues: int,
        individual: Mapping[int, float],
        pairwise: Mapping[Tuple[int, int], float],
        individual_tolerance: Mapping[int, float] | None = None,
        pairwise_tolerance: Mapping[Tuple[int, int], float] | None = None,
        default_tolerance: float = 1e-9,
        triplet: Mapping[Tuple[int, int, int], float] | None = None,
        triplet_tolerance: Mapping[Tuple[int, int, int], float] | None = None,
    ) -> None:
        if num_ues < 1:
            raise MeasurementError(f"need at least one UE: {num_ues}")
        expected_pairs = {
            (i, j) for i in range(num_ues) for j in range(i + 1, num_ues)
        }
        if set(individual) != set(range(num_ues)):
            raise MeasurementError(
                "individual measurements must cover every UE exactly once"
            )
        if set(pairwise) != expected_pairs:
            missing = expected_pairs - set(pairwise)
            extra = set(pairwise) - expected_pairs
            raise MeasurementError(
                f"pairwise measurements malformed (missing={sorted(missing)[:4]}, "
                f"extra={sorted(extra)[:4]}); keys must be (i, j) with i < j"
            )
        self.num_ues = num_ues
        self.individual = MappingProxyType(
            {i: float(v) for i, v in individual.items()}
        )
        self.pairwise = MappingProxyType({k: float(v) for k, v in pairwise.items()})
        self.individual_tolerance = MappingProxyType({
            i: float((individual_tolerance or {}).get(i, default_tolerance))
            for i in range(num_ues)
        })
        self.pairwise_tolerance = MappingProxyType({
            pair: float((pairwise_tolerance or {}).get(pair, default_tolerance))
            for pair in expected_pairs
        })
        # Optional triplet constraints (Section 3.5): any subset of the
        # C(N,3) triples may be supplied; keys must be sorted (i < j < k).
        triplets: Dict[Tuple[int, int, int], float] = {}
        triplet_tolerances: Dict[Tuple[int, int, int], float] = {}
        for key, value in (triplet or {}).items():
            i, j, k = key
            if not (0 <= i < j < k < num_ues):
                raise MeasurementError(
                    f"triplet key must be sorted within range: {key}"
                )
            triplets[(i, j, k)] = float(value)
            triplet_tolerances[(i, j, k)] = float(
                (triplet_tolerance or {}).get(key, default_tolerance)
            )
        self.triplet = MappingProxyType(triplets)
        self.triplet_tolerance = MappingProxyType(triplet_tolerances)

        w = np.zeros((num_ues, num_ues))
        tolerance = np.zeros((num_ues, num_ues))
        for i, value in self.individual.items():
            w[i, i] = value
            tolerance[i, i] = self.individual_tolerance[i]
        for (i, j), value in self.pairwise.items():
            w[i, j] = w[j, i] = value
            tolerance[i, j] = tolerance[j, i] = self.pairwise_tolerance[(i, j)]
        self.upper = np.triu_indices(num_ues, k=1)
        self.triplet_index = np.array(list(triplets), dtype=np.intp).reshape(-1, 3)
        self.triplet_values = np.array(list(triplets.values()), dtype=float)
        self.triplet_tolerances = np.array(
            list(triplet_tolerances.values()), dtype=float
        )
        self._matrix = w
        self._tolerance = tolerance
        for array in (
            w, tolerance, *self.upper, self.triplet_index,
            self.triplet_values, self.triplet_tolerances,
        ):
            array.setflags(write=False)

    def __reduce__(self):
        return (
            TransformedMeasurements,
            (
                self.num_ues,
                dict(self.individual),
                dict(self.pairwise),
                dict(self.individual_tolerance),
                dict(self.pairwise_tolerance),
                1e-9,
                dict(self.triplet),
                dict(self.triplet_tolerance),
            ),
        )

    @staticmethod
    def from_probabilities(
        num_ues: int,
        p_individual: Mapping[int, float],
        p_pairwise: Mapping[Tuple[int, int], float],
        default_tolerance: float = 1e-9,
    ) -> "TransformedMeasurements":
        """Build directly from raw probabilities (exact-knowledge path)."""
        individual = {
            i: transform_individual(p_individual[i]) for i in range(num_ues)
        }
        pairwise = {}
        for i in range(num_ues):
            for j in range(i + 1, num_ues):
                key = (i, j) if (i, j) in p_pairwise else (j, i)
                pairwise[(i, j)] = transform_pairwise(
                    p_individual[i], p_individual[j], p_pairwise[key]
                )
        return TransformedMeasurements(
            num_ues=num_ues,
            individual=individual,
            pairwise=pairwise,
            default_tolerance=default_tolerance,
        )

    def matrix(self) -> np.ndarray:
        """The symmetric target matrix ``W`` with ``W[i,i] = P(i)`` and
        ``W[i,j] = P(i,j)`` — the weighted clique-cover view used by the
        peeling initializer.  Read-only; copy it to modify."""
        return self._matrix

    def tolerance_matrix(self) -> np.ndarray:
        """Per-constraint tolerances laid out like :meth:`matrix`
        (read-only)."""
        return self._tolerance
