"""The copy-and-evaluate gradient repair: the test oracle for the solver.

It keeps the formulation :func:`repro.core.blueprint.repair.repair`
replaced: the target matrix rebuilt from the measurement dicts, violations
ranked by a Python walk over every constraint, and every candidate move
scored by applying it to a copy of the topology and recomputing the
aggregate violation from scratch.  The production solver must reach the
same result: the same number of iterations and bit-equal ``Z`` and ``Q``.
Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.blueprint.constraints import ConstraintViolation, WorkingTopology
from repro.core.blueprint.repair import RepairResult
from repro.core.blueprint.transform import TransformedMeasurements

__all__ = [
    "reference_aggregate_violation",
    "reference_repair",
    "reference_violations",
]

_CONSTRAINTS_PER_ITERATION = 4

Move = Callable[[WorkingTopology], None]


def _target_matrix(target: TransformedMeasurements) -> np.ndarray:
    w = np.zeros((target.num_ues, target.num_ues))
    for i, value in target.individual.items():
        w[i, i] = value
    for (i, j), value in target.pairwise.items():
        w[i, j] = value
        w[j, i] = value
    return w


def _violation_matrix(
    topology: WorkingTopology, target: TransformedMeasurements
) -> np.ndarray:
    return topology.contribution_matrix() - _target_matrix(target)


def reference_aggregate_violation(
    topology: WorkingTopology, target: TransformedMeasurements
) -> float:
    """Sum of absolute violations over all constraints (each counted once)."""
    violation = _violation_matrix(topology, target)
    upper = np.triu_indices(topology.num_ues, k=1)
    total = float(
        np.abs(np.diag(violation)).sum() + np.abs(violation[upper]).sum()
    )
    for (i, j, k), value in target.triplet.items():
        total += abs(topology.triplet_contribution(i, j, k) - value)
    return total


def reference_violations(
    topology: WorkingTopology,
    target: TransformedMeasurements,
    respect_tolerance: bool = True,
) -> List[ConstraintViolation]:
    """All constraints violated beyond tolerance, most-violated first."""
    matrix = _violation_matrix(topology, target)
    found: List[ConstraintViolation] = []
    for i in range(topology.num_ues):
        amount = float(matrix[i, i])
        tolerance = target.individual_tolerance[i] if respect_tolerance else 0.0
        if abs(amount) > tolerance:
            found.append(ConstraintViolation("individual", i, amount))
    for i in range(topology.num_ues):
        for j in range(i + 1, topology.num_ues):
            amount = float(matrix[i, j])
            tolerance = (
                target.pairwise_tolerance[(i, j)] if respect_tolerance else 0.0
            )
            if abs(amount) > tolerance:
                found.append(ConstraintViolation("pairwise", (i, j), amount))
    for (i, j, k), value in target.triplet.items():
        amount = topology.triplet_contribution(i, j, k) - value
        tolerance = (
            target.triplet_tolerance[(i, j, k)] if respect_tolerance else 0.0
        )
        if abs(amount) > tolerance:
            found.append(ConstraintViolation("triplet", (i, j, k), amount))
    found.sort(key=lambda v: -abs(v.amount))
    return found


def _individual_moves(
    topology: WorkingTopology, ue: int, amount: float
) -> List[Move]:
    moves: List[Move] = []
    attached = topology.terminals_for_ue(ue)
    if amount > 0:
        for k in attached:
            moves.append(lambda t, k=k, d=amount: t.set_weight(k, t.weights[k] - d))
            moves.append(lambda t, k=k, u=ue: t.set_edge(k, u, False))
    else:
        deficit = -amount
        for k in attached:
            moves.append(lambda t, k=k, d=deficit: t.set_weight(k, t.weights[k] + d))
        for k in range(topology.num_terminals):
            if k not in attached:
                moves.append(lambda t, k=k, u=ue: t.set_edge(k, u, True))
        moves.append(lambda t, u=ue, d=deficit: t.add_terminal(d, [u]) and None)
    return moves


def _pairwise_moves(
    topology: WorkingTopology, pair: Tuple[int, int], amount: float
) -> List[Move]:
    i, j = pair
    moves: List[Move] = []
    z = topology.edge_matrix()
    shared = [k for k in range(topology.num_terminals) if z[k, i] and z[k, j]]
    if amount > 0:
        for k in shared:
            moves.append(lambda t, k=k, d=amount: t.set_weight(k, t.weights[k] - d))
            moves.append(lambda t, k=k, u=i: t.set_edge(k, u, False))
            moves.append(lambda t, k=k, u=j: t.set_edge(k, u, False))

            def _remove_both(t: WorkingTopology, k: int = k) -> None:
                t.set_edge(k, i, False)
                t.set_edge(k, j, False)

            moves.append(_remove_both)
    else:
        deficit = -amount
        for k in shared:
            moves.append(lambda t, k=k, d=deficit: t.set_weight(k, t.weights[k] + d))
        for k in range(topology.num_terminals):
            if z[k, i] and z[k, j]:
                continue

            def _add_edges(t: WorkingTopology, k: int = k) -> None:
                t.set_edge(k, i, True)
                t.set_edge(k, j, True)

            moves.append(_add_edges)
        moves.append(lambda t, d=deficit: t.add_terminal(d, [i, j]) and None)
        only_i = [k for k in range(topology.num_terminals) if z[k, i] and not z[k, j]]
        only_j = [k for k in range(topology.num_terminals) if z[k, j] and not z[k, i]]
        if only_i and only_j:
            donor_i = max(only_i, key=lambda k: topology.weights[k])
            donor_j = max(only_j, key=lambda k: topology.weights[k])

            def _reallocate(
                t: WorkingTopology,
                d: float = deficit,
                ki: int = donor_i,
                kj: int = donor_j,
            ) -> None:
                t.add_terminal(d, [i, j])
                t.set_weight(ki, t.weights[ki] - d)
                t.set_weight(kj, t.weights[kj] - d)

            moves.append(_reallocate)
    return moves


def _triplet_moves(
    topology: WorkingTopology, triple: Tuple[int, int, int], amount: float
) -> List[Move]:
    i, j, k = triple
    moves: List[Move] = []
    z = topology.edge_matrix()
    shared = [
        l for l in range(topology.num_terminals) if z[l, i] and z[l, j] and z[l, k]
    ]
    if amount > 0:
        for l in shared:
            moves.append(lambda t, l=l, d=amount: t.set_weight(l, t.weights[l] - d))
            for ue in triple:
                moves.append(lambda t, l=l, u=ue: t.set_edge(l, u, False))
    else:
        deficit = -amount
        for l in shared:
            moves.append(lambda t, l=l, d=deficit: t.set_weight(l, t.weights[l] + d))
        for l in range(topology.num_terminals):
            missing = [ue for ue in triple if not z[l, ue]]
            if not missing or len(missing) == 3:
                continue

            def _add_missing(t: WorkingTopology, l=l, missing=tuple(missing)) -> None:
                for ue in missing:
                    t.set_edge(l, ue, True)

            moves.append(_add_missing)
        moves.append(lambda t, d=deficit: t.add_terminal(d, list(triple)) and None)
    return moves


def _moves_for(topology: WorkingTopology, violation: ConstraintViolation) -> List[Move]:
    if violation.kind == "individual":
        return _individual_moves(topology, violation.key, violation.amount)
    if violation.kind == "triplet":
        return _triplet_moves(topology, violation.key, violation.amount)
    return _pairwise_moves(topology, violation.key, violation.amount)


def reference_repair(
    initial: WorkingTopology,
    target: TransformedMeasurements,
    max_iterations: int = 400,
    weight_floor: float = 1e-9,
) -> RepairResult:
    """Gradient repair by copy-and-evaluate."""
    current = initial.copy()
    current_violation = reference_aggregate_violation(current, target)
    best = current.copy()
    best_violation = current_violation

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        violations = reference_violations(current, target)
        if not violations:
            break

        improved = False
        for violation in violations[:_CONSTRAINTS_PER_ITERATION]:
            moves = _moves_for(current, violation)
            best_candidate: Optional[WorkingTopology] = None
            best_candidate_violation = current_violation
            for move in moves:
                candidate = current.copy()
                move(candidate)
                candidate_violation = reference_aggregate_violation(candidate, target)
                if candidate_violation < best_candidate_violation - 1e-12:
                    best_candidate = candidate
                    best_candidate_violation = candidate_violation
            if best_candidate is not None:
                current = best_candidate
                current_violation = best_candidate_violation
                improved = True
                break
        if not improved:
            break
        if current_violation < best_violation:
            best = current.copy()
            best_violation = current_violation

    final_violations = reference_violations(current, target)
    if not final_violations:
        best = current
        best_violation = current_violation

    best.prune(weight_floor)
    best_violation = reference_aggregate_violation(best, target)
    return RepairResult(
        topology=best,
        aggregate_violation=best_violation,
        satisfied=not reference_violations(best, target),
        iterations=iterations,
    )
