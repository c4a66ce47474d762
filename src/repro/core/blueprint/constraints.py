"""The constraint system of topology inference (Eqn. 6) and its violations.

A :class:`WorkingTopology` is the solver's mutable state: ``h`` hidden
terminals with log-domain weights ``Q(k) = -log(1 - q_k)`` and binary edge
sets.  Against a :class:`~repro.core.blueprint.transform.TransformedMeasurements`
target it exposes the two constraint families:

* individual:  ``c_i    = sum_k z_ik Q(k)        - P(i)``
* pairwise:    ``c_{ij} = sum_k z_ik z_jk Q(k)   - P(i,j)``

and the aggregate violation the gradient-repair loop descends on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.blueprint.transform import (
    TransformedMeasurements,
    inverse_transform_q,
)
from repro.errors import InferenceError
from repro.topology.graph import InterferenceTopology

__all__ = ["WorkingTopology", "ConstraintViolation"]


class ConstraintViolation:
    """One violated constraint: which, by how much."""

    __slots__ = ("kind", "key", "amount")

    def __init__(self, kind: str, key, amount: float) -> None:
        self.kind = kind  # "individual", "pairwise", or "triplet"
        self.key = key  # ue id, or (i, j) tuple
        self.amount = amount  # signed: positive = over-contribution

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstraintViolation({self.kind}, {self.key}, {self.amount:+.4f})"


class WorkingTopology:
    """Mutable log-domain topology state for the repair loop.

    Internally keeps ``Z`` as an ``(h, N)`` boolean matrix and ``Q`` as a
    length-``h`` vector.  The individual and pairwise sums of a state are
    one matmul, ``Z^T diag(Q) Z``; its violations against a target are
    memoized until the next mutation, so ranking, scoring and the
    aggregate of one state share a single evaluation.  The repair loop
    scores candidate moves as deltas on that matrix rather than by
    evaluating copies (see :mod:`repro.core.blueprint.repair`).
    """

    def __init__(self, num_ues: int) -> None:
        if num_ues < 1:
            raise InferenceError(f"need at least one UE: {num_ues}")
        self.num_ues = num_ues
        self._z: np.ndarray = np.zeros((0, num_ues), dtype=bool)
        self._q: np.ndarray = np.zeros(0, dtype=float)
        # Memoized read-only snapshots served by edge_matrix() and
        # weights; each is dropped by the mutations that change it.
        self._z_cache: Optional[np.ndarray] = None
        self._q_cache: Optional[np.ndarray] = None
        # Monotonic mutation counter: bumped by every mutation (structural
        # or weight), so caches keyed on a topology state can tell whether
        # the state they captured is still current.
        self._version = 0
        # (version, target, violation matrix, triplet violations).
        self._violation_cache: Optional[tuple] = None

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever the topology state changes."""
        return self._version

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_terminals(
        num_ues: int, terminals: Iterable[Tuple[float, Iterable[int]]]
    ) -> "WorkingTopology":
        """Build from ``(Q_log_domain, ue_ids)`` pairs."""
        topology = WorkingTopology(num_ues)
        for q, ues in terminals:
            topology.add_terminal(q, ues)
        return topology

    def copy(self) -> "WorkingTopology":
        duplicate = WorkingTopology(self.num_ues)
        duplicate._z = self._z.copy()
        duplicate._q = self._q.copy()
        duplicate._version = self._version
        duplicate._violation_cache = self._violation_cache
        return duplicate

    # -- mutation ----------------------------------------------------------

    def add_terminal(self, q: float, ues: Iterable[int]) -> int:
        """Add a hidden terminal; returns its index."""
        if q < 0:
            raise InferenceError(f"negative log-domain weight: {q}")
        row = np.zeros(self.num_ues, dtype=bool)
        for ue in ues:
            if not 0 <= ue < self.num_ues:
                raise InferenceError(f"edge to unknown UE {ue}")
            row[ue] = True
        self._z = np.vstack([self._z, row[None, :]]) if len(self._z) else row[None, :]
        self._q = np.append(self._q, float(q))
        self._z_cache = None
        self._q_cache = None
        self._version += 1
        return len(self._q) - 1

    def set_weight(self, k: int, q: float) -> None:
        self._q[k] = max(float(q), 0.0)
        self._q_cache = None
        self._version += 1

    def set_edge(self, k: int, ue: int, present: bool) -> None:
        self._z[k, ue] = present
        self._z_cache = None
        self._version += 1

    def prune(self, weight_floor: float = 1e-9) -> None:
        """Drop terminals with ~zero weight or no edges; merge duplicates."""
        if len(self._q) == 0:
            return
        self._z_cache = None
        self._q_cache = None
        self._version += 1
        keep = (self._q > weight_floor) & self._z.any(axis=1)
        self._z = self._z[keep]
        self._q = self._q[keep]
        # Merge terminals with identical edge sets (weights add in log domain).
        merged: Dict[bytes, int] = {}
        rows: List[np.ndarray] = []
        weights: List[float] = []
        for row, weight in zip(self._z, self._q):
            key = row.tobytes()
            if key in merged:
                weights[merged[key]] += weight
            else:
                merged[key] = len(rows)
                rows.append(row)
                weights.append(float(weight))
        self._z = (
            np.array(rows, dtype=bool)
            if rows
            else np.zeros((0, self.num_ues), dtype=bool)
        )
        self._q = np.array(weights, dtype=float)

    # -- inspection ----------------------------------------------------------

    @property
    def num_terminals(self) -> int:
        return len(self._q)

    @property
    def weights(self) -> np.ndarray:
        """``Q`` as a read-only snapshot (memoized between mutations).

        Write-protected like :meth:`edge_matrix`, so an in-place edit
        cannot leave the memoized violations stale (use :meth:`set_weight`).
        """
        if self._q_cache is None:
            cache = self._q.copy()
            cache.setflags(write=False)
            self._q_cache = cache
        return self._q_cache

    def edge_matrix(self) -> np.ndarray:
        """``Z`` as a read-only boolean snapshot (memoized between mutations).

        A write-protected cached copy makes repeated reads of one state
        O(1) and catches accidental in-place edits (use :meth:`set_edge`).
        """
        if self._z_cache is None:
            cache = self._z.copy()
            cache.setflags(write=False)
            self._z_cache = cache
        return self._z_cache

    def edge_set(self, k: int) -> FrozenSet[int]:
        return frozenset(int(u) for u in np.nonzero(self._z[k])[0])

    def terminals_for_ue(self, ue: int) -> List[int]:
        return [int(k) for k in np.nonzero(self._z[:, ue])[0]]

    # -- constraint arithmetic -------------------------------------------------

    def contribution_matrix(self) -> np.ndarray:
        """``W_hat = Z^T diag(Q) Z``: diagonal = individual sums, off-diagonal
        = pairwise sums."""
        if len(self._q) == 0:
            return np.zeros((self.num_ues, self.num_ues))
        zf = self._z.astype(float)
        return zf.T @ (zf * self._q[:, None])

    def violation_matrix(self, target: TransformedMeasurements) -> np.ndarray:
        """Signed violations ``c``: contribution minus target, per
        constraint (read-only, memoized until the next mutation)."""
        return self._violations(target)[0]

    def _violations(
        self, target: TransformedMeasurements
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The read-only violation matrix and triplet violations (in
        ``target.triplet`` order), memoized for the current state."""
        cached = self._violation_cache
        if cached is not None and cached[0] == self._version and cached[1] is target:
            return cached[2], cached[3]
        if target.num_ues != self.num_ues:
            raise InferenceError(
                f"target covers {target.num_ues} UEs, topology has {self.num_ues}"
            )
        matrix = self.contribution_matrix() - target.matrix()
        triplets = np.array(
            [
                self.triplet_contribution(i, j, k) - value
                for (i, j, k), value in target.triplet.items()
            ],
            dtype=float,
        )
        matrix.setflags(write=False)
        triplets.setflags(write=False)
        self._violation_cache = (self._version, target, matrix, triplets)
        return matrix, triplets

    def triplet_violations(self, target: TransformedMeasurements) -> np.ndarray:
        """Signed triplet violations in ``target.triplet`` order (read-only,
        memoized until the next mutation)."""
        return self._violations(target)[1]

    def triplet_contribution(self, i: int, j: int, k: int) -> float:
        """``sum_l z_il z_jl z_kl Q(l)`` — mass shared by all three clients."""
        if len(self._q) == 0:
            return 0.0
        shared = self._z[:, i] & self._z[:, j] & self._z[:, k]
        return float(self._q[shared].sum())

    def aggregate_violation(self, target: TransformedMeasurements) -> float:
        """Sum of absolute violations over all constraints (each counted once)."""
        violation, triplets = self._violations(target)
        total = float(
            np.abs(np.diag(violation)).sum() + np.abs(violation[target.upper]).sum()
        )
        for amount in triplets.tolist():
            total += abs(amount)
        return total

    def violations(
        self,
        target: TransformedMeasurements,
        respect_tolerance: bool = True,
        limit: Optional[int] = None,
    ) -> List[ConstraintViolation]:
        """All constraints violated beyond tolerance, most-violated first.

        Ties keep constraint order: individual by client, then pairwise in
        row-major order, then triplets in ``target.triplet`` order.
        ``limit`` returns only that many of the most violated.
        """
        violation, triplets = self._violations(target)
        n = self.num_ues
        amounts = np.concatenate(
            (np.diag(violation), violation[target.upper], triplets)
        )
        magnitude = np.abs(amounts)
        if respect_tolerance:
            tolerance = target.tolerance_matrix()
            violated = magnitude > np.concatenate(
                (np.diag(tolerance), tolerance[target.upper], target.triplet_tolerances)
            )
        else:
            violated = magnitude > 0.0
        found = np.flatnonzero(violated)
        order = found[np.argsort(-magnitude[found], kind="stable")][:limit]
        pairs = n * (n - 1) // 2
        ranked: List[ConstraintViolation] = []
        for index, amount in zip(order.tolist(), amounts[order].tolist()):
            if index < n:
                ranked.append(ConstraintViolation("individual", index, amount))
            elif index < n + pairs:
                p = index - n
                key = (int(target.upper[0][p]), int(target.upper[1][p]))
                ranked.append(ConstraintViolation("pairwise", key, amount))
            else:
                key = tuple(int(u) for u in target.triplet_index[index - n - pairs])
                ranked.append(ConstraintViolation("triplet", key, amount))
        return ranked

    def is_satisfied(self, target: TransformedMeasurements) -> bool:
        return not self.violations(target, limit=1)

    # -- export -----------------------------------------------------------------

    def to_interference_topology(self) -> InterferenceTopology:
        """Convert back to probability domain (``q = 1 - e^{-Q}``)."""
        terminals = [
            (inverse_transform_q(float(q)), self.edge_set(k))
            for k, q in enumerate(self._q)
        ]
        return InterferenceTopology.build(self.num_ues, terminals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkingTopology(N={self.num_ues}, h={self.num_terminals})"
