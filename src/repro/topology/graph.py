"""The interference topology ``(h, q, Z)`` — ground truth and inferred.

This single structure is the paper's central object (Fig. 6b): a bipartite
graph from ``h`` hidden terminals to ``N`` clients, where hidden terminal
``k`` is busy with stationary probability ``q(k)`` (independently of the
others) and an edge ``z_{ik} = 1`` means client ``i`` defers whenever ``k``
is busy.

Under that model every access probability is a closed form:

* ``p(i)      = prod_{k: z_ik=1} (1 - q_k)``
* ``p(i, j)   = prod_{k: z_ik or z_jk} (1 - q_k)``
* ``P(U clear, V blocked)`` follows by inclusion–exclusion over ``V``.

Both the ground truth produced by scenario generation and the output of
blueprint inference are instances of this class, which keeps comparison
(Fig. 14's accuracy metric) and scheduling interchangeable between them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError

__all__ = ["InterferenceTopology", "edge_set_accuracy", "statistically_equivalent"]


@dataclass(frozen=True)
class InterferenceTopology:
    """An immutable hidden-terminal interference topology.

    Attributes:
        num_ues: number of clients ``N`` (UE ids are ``0..N-1``).
        q: busy probability of each hidden terminal, length ``h``.
        edges: for each hidden terminal, the frozen set of UE ids it silences.
    """

    num_ues: int
    q: Tuple[float, ...]
    edges: Tuple[FrozenSet[int], ...]

    def __post_init__(self) -> None:
        if self.num_ues < 1:
            raise TopologyError(f"need at least one UE: {self.num_ues}")
        if len(self.q) != len(self.edges):
            raise TopologyError(
                f"{len(self.q)} activity values but {len(self.edges)} edge sets"
            )
        for k, prob in enumerate(self.q):
            if not 0.0 <= prob < 1.0:
                raise TopologyError(
                    f"hidden terminal {k} busy probability outside [0,1): {prob}"
                )
        for k, ue_set in enumerate(self.edges):
            bad = [u for u in ue_set if not 0 <= u < self.num_ues]
            if bad:
                raise TopologyError(
                    f"hidden terminal {k} has edges to unknown UEs {bad}"
                )

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def build(
        num_ues: int,
        terminals: Iterable[Tuple[float, Iterable[int]]],
    ) -> "InterferenceTopology":
        """Build from ``(q, ue_ids)`` pairs."""
        qs: List[float] = []
        edges: List[FrozenSet[int]] = []
        for q, ues in terminals:
            qs.append(float(q))
            edges.append(frozenset(int(u) for u in ues))
        return InterferenceTopology(num_ues=num_ues, q=tuple(qs), edges=tuple(edges))

    @property
    def num_terminals(self) -> int:
        return len(self.q)

    def terminals_for_ue(self, ue: int) -> Tuple[int, ...]:
        """Indices of hidden terminals with an edge to ``ue``."""
        if not 0 <= ue < self.num_ues:
            raise TopologyError(f"unknown UE id {ue}")
        return tuple(k for k, ues in enumerate(self.edges) if ue in ues)

    def ue_edge_map(self) -> Dict[int, FrozenSet[int]]:
        """``{ue: set of hidden-terminal indices heard}`` for all UEs."""
        return {
            ue: frozenset(self.terminals_for_ue(ue)) for ue in range(self.num_ues)
        }

    def edge_matrix(self) -> np.ndarray:
        """``Z`` as a read-only boolean ``(num_terminals, num_ues)`` matrix.

        The matrix is built once and cached on the (frozen) instance; the
        simulation engine uses it to compute the silenced-UE set of a
        subframe as a single boolean reduction instead of per-UE set
        intersections.
        """
        cached = self.__dict__.get("_edge_matrix_cache")
        if cached is None:
            cached = np.zeros((self.num_terminals, self.num_ues), dtype=bool)
            for k, ues in enumerate(self.edges):
                for ue in ues:
                    cached[k, ue] = True
            cached.setflags(write=False)
            self.__dict__["_edge_matrix_cache"] = cached
        return cached

    # -- derivation (the mutation API) ----------------------------------------
    #
    # Instances are frozen, so the memoized ``edge_matrix`` can never go
    # stale; "mutation" means deriving a new instance.  Dynamics code must
    # only ever evolve a topology through these methods — holders of the old
    # instance (and its cached matrix) keep a consistent pre-change view,
    # and anything keyed on object identity invalidates naturally.

    def with_terminal(
        self, q: float, ues: Iterable[int]
    ) -> "InterferenceTopology":
        """A new topology with one extra hidden terminal appended."""
        return InterferenceTopology(
            num_ues=self.num_ues,
            q=self.q + (float(q),),
            edges=self.edges + (frozenset(int(u) for u in ues),),
        )

    def without_terminal(self, k: int) -> "InterferenceTopology":
        """A new topology with hidden terminal ``k`` removed."""
        if not 0 <= k < self.num_terminals:
            raise TopologyError(f"unknown hidden terminal {k}")
        return InterferenceTopology(
            num_ues=self.num_ues,
            q=self.q[:k] + self.q[k + 1:],
            edges=self.edges[:k] + self.edges[k + 1:],
        )

    def with_terminal_q(self, k: int, q: float) -> "InterferenceTopology":
        """A new topology with terminal ``k``'s busy probability replaced."""
        if not 0 <= k < self.num_terminals:
            raise TopologyError(f"unknown hidden terminal {k}")
        return InterferenceTopology(
            num_ues=self.num_ues,
            q=self.q[:k] + (float(q),) + self.q[k + 1:],
            edges=self.edges,
        )

    # -- access probabilities -----------------------------------------------

    def access_probability(self, ue: int) -> float:
        """``p(i)``: probability the UE's CCA is clear in a subframe."""
        prob = 1.0
        for k in self.terminals_for_ue(ue):
            prob *= 1.0 - self.q[k]
        return prob

    def pairwise_access_probability(self, ue_a: int, ue_b: int) -> float:
        """``p(i, j)``: probability both UEs are clear in the same subframe."""
        if ue_a == ue_b:
            return self.access_probability(ue_a)
        attached = set(self.terminals_for_ue(ue_a)) | set(self.terminals_for_ue(ue_b))
        prob = 1.0
        for k in attached:
            prob *= 1.0 - self.q[k]
        return prob

    def clear_probability(self, ues: Iterable[int]) -> float:
        """Probability every UE in ``ues`` is clear simultaneously."""
        attached = set()
        for ue in ues:
            attached.update(self.terminals_for_ue(ue))
        prob = 1.0
        for k in attached:
            prob *= 1.0 - self.q[k]
        return prob

    def joint_access_probability(
        self, clear_ues: Sequence[int], blocked_ues: Sequence[int] = ()
    ) -> float:
        """Exact ``P(all of clear_ues clear, all of blocked_ues blocked)``.

        Computed by inclusion–exclusion over subsets of ``blocked_ues``:
        ``P(U, V̄) = sum_{S ⊆ V} (-1)^{|S|} P(U ∪ S all clear)``.
        This is the reference implementation against which the recursive
        topology-conditioning computation (Section 3.6) is validated.
        """
        clear = list(dict.fromkeys(clear_ues))
        blocked = list(dict.fromkeys(blocked_ues))
        if set(clear) & set(blocked):
            raise TopologyError(
                f"UEs cannot be both clear and blocked: "
                f"{sorted(set(clear) & set(blocked))}"
            )
        total = 0.0
        for size in range(len(blocked) + 1):
            for subset in itertools.combinations(blocked, size):
                sign = -1.0 if size % 2 else 1.0
                total += sign * self.clear_probability(clear + list(subset))
        # Clamp tiny negative values from floating-point cancellation.
        return max(total, 0.0)

    # -- conditioning (Section 3.6 support) -----------------------------------

    def condition_on_clear(self, ue: int) -> "InterferenceTopology":
        """The topology given that ``ue`` transmitted this subframe.

        Observing ``ue`` clear means every hidden terminal attached to it was
        idle; those terminals are removed (Fig. 8, topology conditioning).
        """
        attached = set(self.terminals_for_ue(ue))
        kept = [
            (self.q[k], self.edges[k])
            for k in range(self.num_terminals)
            if k not in attached
        ]
        return InterferenceTopology(
            num_ues=self.num_ues,
            q=tuple(q for q, _ in kept),
            edges=tuple(e for _, e in kept),
        )

    def restrict(self, num_ues: int) -> "InterferenceTopology":
        """The sub-cell on UEs ``0..num_ues-1``.

        Terminals keep only their edges into the retained population;
        edge-less terminals drop out.  Holding a parent cell fixed while
        sweeping ``num_ues`` makes population sweeps apples-to-apples
        (used by the Fig. 16 benchmark).
        """
        if not 1 <= num_ues <= self.num_ues:
            raise TopologyError(
                f"restriction to {num_ues} UEs outside [1, {self.num_ues}]"
            )
        terminals = []
        for q, ues in zip(self.q, self.edges):
            kept = {u for u in ues if u < num_ues}
            if kept:
                terminals.append((q, kept))
        return InterferenceTopology.build(num_ues, terminals)

    # -- canonical form and comparison ----------------------------------------

    def canonical(self) -> "InterferenceTopology":
        """Merge terminals with identical edge sets; drop edge-less ones.

        Two independent terminals silencing exactly the same clients are
        statistically indistinguishable from one terminal busy with
        probability ``1 - (1-q_a)(1-q_b)``; inference can only ever recover
        the merged form, so comparisons are made in this canonical space.
        Terminals are sorted by (edge set, q) for a deterministic order.
        """
        merged: Dict[FrozenSet[int], float] = {}
        for q, ues in zip(self.q, self.edges):
            if not ues:
                continue
            idle = merged.get(ues, 1.0)
            merged[ues] = idle * (1.0 - q)
        terminals = sorted(
            ((1.0 - idle, ues) for ues, idle in merged.items()),
            key=lambda item: (sorted(item[1]), item[0]),
        )
        return InterferenceTopology(
            num_ues=self.num_ues,
            q=tuple(q for q, _ in terminals),
            edges=tuple(ues for _, ues in terminals),
        )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "num_ues": self.num_ues,
            "terminals": [
                {"q": q, "ues": sorted(ues)} for q, ues in zip(self.q, self.edges)
            ],
        }

    @staticmethod
    def from_dict(data: Mapping) -> "InterferenceTopology":
        return InterferenceTopology.build(
            num_ues=int(data["num_ues"]),
            terminals=[(t["q"], t["ues"]) for t in data["terminals"]],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InterferenceTopology(N={self.num_ues}, h={self.num_terminals})"
        )


def statistically_equivalent(
    left: InterferenceTopology,
    right: InterferenceTopology,
    tolerance: float = 1e-6,
) -> bool:
    """Whether two topologies induce the same pair-wise access statistics.

    Ambiguity is fundamental in skewed regimes (Section 3.5): structurally
    different blueprints can be indistinguishable from pair-wise
    measurements.  This predicate captures the equivalence class the
    scheduler actually cares about — every individual and pair-wise access
    probability within ``tolerance``.
    """
    if left.num_ues != right.num_ues:
        return False
    for i in range(left.num_ues):
        if abs(
            left.access_probability(i) - right.access_probability(i)
        ) > tolerance:
            return False
    for i in range(left.num_ues):
        for j in range(i + 1, left.num_ues):
            if abs(
                left.pairwise_access_probability(i, j)
                - right.pairwise_access_probability(i, j)
            ) > tolerance:
                return False
    return True


def edge_set_accuracy(
    inferred: InterferenceTopology, truth: InterferenceTopology
) -> float:
    """Fig. 14's stringent accuracy metric.

    The fraction of ground-truth hidden terminals whose *exact* edge set
    appears among the inferred terminals ("even a single missing edge will
    prevent the match").  Both topologies are canonicalized first, so
    statistically indistinguishable duplicates do not distort the score.
    """
    truth_sets = [ues for ues in truth.canonical().edges]
    if not truth_sets:
        return 1.0
    inferred_sets = set(inferred.canonical().edges)
    matched = sum(1 for ues in truth_sets if ues in inferred_sets)
    return matched / len(truth_sets)
