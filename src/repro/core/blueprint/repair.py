"""Gradient-repair topology adaptation (Section 3.4.2).

Starting from an initial topology, each iteration:

1. finds the maximally violated constraint;
2. enumerates the paper's adaptation moves for that constraint class
   (adjust a weight, add/remove edges, spawn a new hidden terminal);
3. applies the move that resolves the violation while minimizing the
   aggregate violation across *all* constraints;
4. stops at zero violation (within tolerance), at a local optimum where no
   move improves, or at the iteration cap — returning the best state seen.

Step 3 takes, in move order, every move whose aggregate violation beats
the best so far by more than ``1e-12``; the last one taken wins.  The
aggregate of a move is what its state evaluates to from scratch
(:meth:`WorkingTopology.aggregate_violation`), but the solver does not
build that state for every move.  A move changes one or two terminal
rows, so its effect on the violation matrix is low-rank: a weight change
adds ``dQ_k z_k z_k^T``, an edge flip changes one row and one column.
:class:`_Scorer` prices every move of a constraint as such a delta on
the current violation matrix, and :func:`_choose` runs the acceptance
rule on those prices, evaluating a move from scratch only where a price
cannot decide a comparison (:data:`_SCORE_REL`).  Only the winner's state
is built, so the solver makes exactly the moves of the copy-and-evaluate
formulation it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.blueprint.constraints import ConstraintViolation, WorkingTopology
from repro.core.blueprint.transform import TransformedMeasurements

__all__ = ["RepairResult", "repair"]

#: How many of the most-violated constraints to try per iteration before
#: declaring a local optimum.
_CONSTRAINTS_PER_ITERATION = 4

#: A move must lower the aggregate violation by more than this.
_MIN_IMPROVEMENT = 1e-12

#: Bound on how far a delta price may sit from the move's from-scratch
#: aggregate, relative to the violation and target mass involved.  The
#: rounding of either computation is below ``(h + log2 N^2) * 2^-53`` of
#: that mass (dot products over ``h`` terminals, pairwise sums over the
#: constraints), orders of magnitude under this bound for any
#: topology the solver can hold; a price within it of a decision is
#: settled by evaluating the move from scratch.
_SCORE_REL = 1e-9

#: One primitive change; a move applies its changes in order:
#: ``("w", k, delta)`` sets terminal ``k``'s weight to ``Q_k + delta``,
#: ``("e", k, ue, present)`` sets one edge, and ``("t", q, ues)`` adds a
#: terminal.
Change = tuple
Move = Tuple[Change, ...]
#: Move prices and their error margins, aligned with a move list.
Priced = Tuple[np.ndarray, np.ndarray]


@dataclass
class RepairResult:
    """Outcome of one repair run."""

    topology: WorkingTopology
    aggregate_violation: float
    satisfied: bool
    iterations: int


def _apply(topology: WorkingTopology, move: Move) -> None:
    for change in move:
        if change[0] == "w":
            k = change[1]
            topology.set_weight(k, topology.weights[k] + change[2])
        elif change[0] == "e":
            topology.set_edge(change[1], change[2], change[3])
        else:
            topology.add_terminal(change[1], change[2])


class _Scorer:
    """Prices candidate moves as deltas on one state's violations.

    A move's price approximates its aggregate violation: the state's
    aggregate plus, over the constraints the move touches, the change in
    absolute violation.
    """

    def __init__(
        self,
        state: WorkingTopology,
        target: TransformedMeasurements,
        aggregate: float,
        target_mass: float,
    ) -> None:
        self.z = state.edge_matrix()
        self.q = state.weights
        self.violation = state.violation_matrix(target)
        self.triplet_violation = state.triplet_violations(target)
        self.triplets = target.triplet_index.T
        self.aggregate = aggregate
        self.scale = 1.0 + target_mass + aggregate

    def moves(self, moves: List[Move]) -> Priced:
        """Prices of ``moves`` (:meth:`price`) with their error margins; an
        inert move is priced at the current aggregate exactly, which the
        rule never takes."""
        priced = [self.price(move) for move in moves]
        prices = np.array([price for price, _ in priced], dtype=float)
        inert = np.array([inert for _, inert in priced], dtype=bool)
        margins = _SCORE_REL * (self.scale + np.abs(prices))
        return np.where(inert, self.aggregate, prices), np.where(inert, 0.0, margins)

    def price(self, move: Move) -> Tuple[float, bool]:
        """Price of any move, from the rank-one terms ``c * s s^T`` of the
        terminal rows it replaces and adds, and whether it is inert."""
        rows: Dict[int, list] = {}
        masks: List[np.ndarray] = []
        coefficients: List[float] = []
        for change in move:
            if change[0] == "t":
                mask = np.zeros(self.z.shape[1], dtype=bool)
                mask[list(change[2])] = True
                masks.append(mask)
                coefficients.append(change[1])
                continue
            k = change[1]
            row = rows.setdefault(k, [self.z[k].copy(), float(self.q[k])])
            if change[0] == "w":
                row[1] = max(row[1] + change[2], 0.0)
            else:
                row[0][change[2]] = change[3]
        inert = len(masks) == 0
        for k, (mask, q) in rows.items():
            old_q = float(self.q[k])
            # An unchanged row is inert.  So are new edges on a zero-weight
            # terminal: every product the contribution matmul sums stays a
            # zero of the same sign, so the aggregate is bit-identical.  Not
            # with triplets, though: a triplet sum that gains a zero term
            # can regroup numpy's summation and move by one ulp.
            if q == old_q and (
                (mask == self.z[k]).all()
                or (q == 0.0 and not len(self.triplet_violation))
            ):
                continue
            inert = False
            masks += [mask, self.z[k]]
            coefficients += [q, -old_q]
        if not masks:
            return self.aggregate, inert
        masks = np.array(masks)
        coefficients = np.array(coefficients)
        members = np.flatnonzero(masks.any(axis=0))
        indicator = masks[:, members].astype(float)
        delta = (indicator.T * coefficients) @ indicator
        block = self.violation[np.ix_(members, members)]
        change = np.abs(block + delta) - np.abs(block)
        # Each constraint once: the diagonal and one triangle.
        price = self.aggregate + 0.5 * (change.sum() + np.trace(change))
        if len(self.triplet_violation):
            a, b, c = self.triplets
            delta = coefficients @ (masks[:, a] & masks[:, b] & masks[:, c])
            t = self.triplet_violation
            price += (np.abs(t + delta) - np.abs(t)).sum()
        return float(price), inert


def _individual_moves(
    scorer: _Scorer, ue: int, amount: float
) -> List[Move]:
    """Adaptation options for an individual constraint ``c_i`` (Case 1)."""
    attached = np.flatnonzero(scorer.z[:, ue]).tolist()
    if amount > 0:  # over-contribution
        moves = [
            move
            for k in attached
            for move in ((("w", k, -amount),), (("e", k, ue, False),))
        ]
        return moves
    deficit = -amount  # under-contribution
    weights = [(("w", k, deficit),) for k in attached]
    free = np.flatnonzero(~scorer.z[:, ue]).tolist()
    spawn = [(("t", deficit, (ue,)),)]
    return weights + [(("e", k, ue, True),) for k in free] + spawn


def _pairwise_moves(
    scorer: _Scorer, pair: Tuple[int, int], amount: float
) -> List[Move]:
    """Adaptation options for a joint constraint ``c_{ij}`` (Case 2)."""
    i, j = pair
    z = scorer.z
    both = z[:, i] & z[:, j]
    shared = np.flatnonzero(both).tolist()
    if amount > 0:  # over-contribution
        moves = []
        for k in shared:
            moves += [
                (("w", k, -amount),),
                (("e", k, i, False),),
                (("e", k, j, False),),
                (("e", k, i, False), ("e", k, j, False)),
            ]
        return moves
    deficit = -amount  # under-contribution
    weights = [(("w", k, deficit),) for k in shared]
    partial = np.flatnonzero(~both).tolist()
    grow = [(("e", k, i, True), ("e", k, j, True)) for k in partial]
    extra = [(("t", deficit, (i, j)),)]
    # Compound reallocation: spawn the shared terminal AND pull the same
    # mass out of each client's heaviest private terminal, so the pair
    # constraint is fixed without inflating the individual constraints.
    # This is the move that escapes the "all-singletons" local optimum.
    only_i = np.flatnonzero(z[:, i] & ~z[:, j])
    only_j = np.flatnonzero(z[:, j] & ~z[:, i])
    if len(only_i) and len(only_j):
        donor_i = int(only_i[np.argmax(scorer.q[only_i])])
        donor_j = int(only_j[np.argmax(scorer.q[only_j])])
        extra.append(
            (
                ("t", deficit, (i, j)),
                ("w", donor_i, -deficit),
                ("w", donor_j, -deficit),
            )
        )
    return weights + grow + extra


def _triplet_moves(
    scorer: _Scorer, triple: Tuple[int, int, int], amount: float
) -> List[Move]:
    """Adaptation options for a triplet constraint (Section 3.5 extension)."""
    z = scorer.z
    covered = z[:, list(triple)]
    shared = np.flatnonzero(covered.all(axis=1)).tolist()
    moves: List[Move] = []
    if amount > 0:  # over-contribution
        for l in shared:
            moves.append((("w", l, -amount),))
            moves += [(("e", l, ue, False),) for ue in triple]
    else:  # under-contribution
        deficit = -amount
        moves += [(("w", l, deficit),) for l in shared]
        for l, row in enumerate(covered.tolist()):
            missing = [ue for ue, present in zip(triple, row) if not present]
            if missing and len(missing) < 3:
                moves.append(tuple(("e", l, ue, True) for ue in missing))
        moves.append((("t", deficit, triple),))
    return moves


def _moves_for(
    scorer: _Scorer, violation: ConstraintViolation
) -> Tuple[List[Move], Priced]:
    """A constraint's candidate moves, in rule order, with their prices."""
    if violation.kind == "individual":
        moves = _individual_moves(scorer, violation.key, violation.amount)
    elif violation.kind == "triplet":
        moves = _triplet_moves(scorer, violation.key, violation.amount)
    else:
        moves = _pairwise_moves(scorer, violation.key, violation.amount)
    return moves, scorer.moves(moves)


def _choose(
    moves: List[Move],
    priced: Priced,
    aggregate: float,
    evaluate: Callable[[Move], Tuple[WorkingTopology, float]],
) -> Optional[Tuple[WorkingTopology, float]]:
    """The move the acceptance rule takes, with its state and aggregate.

    Walks the moves in order keeping the best so far as an interval: exact
    once evaluated, else its price plus or minus its margin.  A move whose
    price interval decides the comparison is taken or skipped unevaluated;
    otherwise it and the best so far are evaluated.
    """
    prices, margins = priced
    if (prices - margins >= aggregate - _MIN_IMPROVEMENT).all():
        return None
    chosen: Optional[int] = None
    exact: Optional[Tuple[WorkingTopology, float]] = None
    low = high = aggregate
    for index, (price, margin) in enumerate(zip(prices.tolist(), margins.tolist())):
        if price - margin >= high - _MIN_IMPROVEMENT:
            continue
        if price + margin < low - _MIN_IMPROVEMENT:
            chosen, exact = index, None
            low, high = price - margin, price + margin
            continue
        if chosen is not None and exact is None:
            exact = evaluate(moves[chosen])
            low = high = exact[1]
        candidate = evaluate(moves[index])
        if candidate[1] < high - _MIN_IMPROVEMENT:
            chosen, exact = index, candidate
            low = high = candidate[1]
    if chosen is None:
        return None
    return exact if exact is not None else evaluate(moves[chosen])


def _target_mass(target: TransformedMeasurements) -> float:
    w = target.matrix()
    return float(
        np.abs(np.diag(w)).sum()
        + np.abs(w[target.upper]).sum()
        + np.abs(target.triplet_values).sum()
    )


def repair(
    initial: WorkingTopology,
    target: TransformedMeasurements,
    max_iterations: int = 400,
    weight_floor: float = 1e-9,
) -> RepairResult:
    """Run gradient repair from ``initial`` against ``target``."""
    current = initial.copy()
    current_violation = current.aggregate_violation(target)
    best = current.copy()
    best_violation = current_violation
    target_mass = _target_mass(target)

    def evaluate(move: Move) -> Tuple[WorkingTopology, float]:
        candidate = current.copy()
        _apply(candidate, move)
        return candidate, candidate.aggregate_violation(target)

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        violations = current.violations(target, limit=_CONSTRAINTS_PER_ITERATION)
        if not violations:
            break

        scorer = _Scorer(current, target, current_violation, target_mass)
        accepted = None
        for violation in violations:
            moves, priced = _moves_for(scorer, violation)
            accepted = _choose(moves, priced, current_violation, evaluate)
            if accepted is not None:
                break
        if accepted is None:
            break
        current, current_violation = accepted
        if current_violation < best_violation:
            best = current.copy()
            best_violation = current_violation

    if current.is_satisfied(target):
        best = current
        best_violation = current_violation

    best.prune(weight_floor)
    best_violation = best.aggregate_violation(target)
    return RepairResult(
        topology=best,
        aggregate_violation=best_violation,
        satisfied=best.is_satisfied(target),
        iterations=iterations,
    )
