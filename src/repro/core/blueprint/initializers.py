"""Multi-point initialization for topology inference (Section 3.4.2).

The paper alleviates local optima by running the gradient repair from
multiple starting topologies: random ones with varied terminal counts, plus
topologies "that satisfy only one set of constraints".  We provide those
and one more — a structural *peeling* start that exploits the weighted
clique-cover form of the target matrix ``W = Z^T diag(Q) Z``:

* :func:`peeling_start` — repeatedly extracts the maximal clique of clients
  with jointly positive residual mass, assigns it the minimum residual as a
  hidden terminal, and subtracts; leftover diagonal becomes per-client
  singleton terminals.  On exact inputs this recovers canonical topologies
  outright; on noisy inputs it gives repair an excellent warm start.
* :func:`diagonal_start` — one singleton terminal per client with
  ``Q = P(i)``: satisfies every individual constraint, none of the pairwise.
* :func:`pairwise_start` — one two-edge terminal per positive pair with
  ``Q = P(i,j)``: satisfies every pairwise constraint, not the individual.
* :func:`random_start` — random edges and weights with a chosen ``h``.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.blueprint.constraints import WorkingTopology
from repro.core.blueprint.transform import (
    TransformedMeasurements,
    forward_transform_q,
)
from repro.topology.graph import InterferenceTopology

__all__ = [
    "peeling_start",
    "diagonal_start",
    "pairwise_start",
    "random_start",
    "topology_start",
]


def peeling_start(target: TransformedMeasurements) -> WorkingTopology:
    """Structural clique-peeling initialization (see module docstring)."""
    n = target.num_ues
    residual = target.matrix().copy()
    tolerance = target.tolerance_matrix()
    terminals: List[Tuple[float, Set[int]]] = []

    max_extractions = 4 * n * n
    for _ in range(max_extractions):
        # Most-loaded off-diagonal residual above tolerance.
        masked = residual - tolerance
        np.fill_diagonal(masked, -np.inf)
        i, j = np.unravel_index(np.argmax(masked), masked.shape)
        if masked[i, j] <= 0:
            break

        clique: Set[int] = {int(i), int(j)}
        # Grow while some client has positive residual with every member.
        while True:
            best_l, best_support = -1, 0.0
            for l in range(n):
                if l in clique:
                    continue
                supports = [residual[l, m] - tolerance[l, m] for m in clique]
                support = min(supports)
                if support > 0 and support > best_support:
                    best_l, best_support = l, support
            if best_l < 0:
                break
            clique.add(best_l)

        members = sorted(clique)
        pair_min = min(
            residual[a, b] for a in members for b in members if a < b
        )
        diag_min = min(residual[a, a] for a in members)
        weight = min(pair_min, diag_min)
        if weight <= 0:
            # The clique's mass is spoken for (diagonal exhausted); retire
            # this pair so the loop cannot revisit it.
            residual[i, j] = 0.0
            residual[j, i] = 0.0
            continue

        for a in members:
            residual[a, a] -= weight
            for b in members:
                if a < b:
                    residual[a, b] -= weight
                    residual[b, a] -= weight
        terminals.append((weight, clique))

    # Remaining diagonal mass: hidden terminals private to one client.
    for i in range(n):
        if residual[i, i] > tolerance[i, i]:
            terminals.append((float(residual[i, i]), {i}))

    return WorkingTopology.from_terminals(n, terminals)


def diagonal_start(target: TransformedMeasurements) -> WorkingTopology:
    """Satisfies every individual constraint with singleton terminals."""
    terminals = [
        (value, {ue}) for ue, value in target.individual.items() if value > 0
    ]
    return WorkingTopology.from_terminals(target.num_ues, terminals)


def pairwise_start(target: TransformedMeasurements) -> WorkingTopology:
    """Satisfies every pairwise constraint with two-edge terminals."""
    terminals = [
        (value, set(pair))
        for pair, value in target.pairwise.items()
        if value > target.pairwise_tolerance[pair]
    ]
    return WorkingTopology.from_terminals(target.num_ues, terminals)


def topology_start(topology: InterferenceTopology) -> WorkingTopology:
    """Warm start from a previously inferred blueprint.

    Converts a probability-domain topology back to the solver's log domain
    (``Q = -log(1 - q)``).  After a *localized* change — one hidden node
    arrived, left, or re-tuned — most constraints are still satisfied by
    the old solution, so repair from here converges in a handful of moves
    instead of re-growing the blueprint from scratch (the incremental
    re-blueprinting path of the dynamics subsystem).
    """
    terminals = [
        (forward_transform_q(q), set(ues))
        for q, ues in zip(topology.q, topology.edges)
        if ues
    ]
    return WorkingTopology.from_terminals(topology.num_ues, terminals)


def random_start(
    target: TransformedMeasurements,
    num_terminals: int,
    rng: Optional[np.random.Generator] = None,
) -> WorkingTopology:
    """A random topology with ``num_terminals`` hidden terminals.

    Weights are scaled to the magnitude of the observed individual
    constraints so the start is in the right ballpark.
    """
    rng = rng if rng is not None else np.random.default_rng()
    n = target.num_ues
    positive = [v for v in target.individual.values() if v > 0]
    scale = float(np.mean(positive)) if positive else 0.3
    terminals: List[Tuple[float, Set[int]]] = []
    for _ in range(max(num_terminals, 1)):
        footprint = int(rng.integers(1, min(n, max(2, n // 3)) + 1))
        ues = set(int(u) for u in rng.choice(n, size=footprint, replace=False))
        weight = float(rng.uniform(0.2, 1.2) * scale)
        terminals.append((weight, ues))
    return WorkingTopology.from_terminals(n, terminals)
