"""The dict-and-loop measurement layer: test oracles for Algorithm 1,
the access estimator and the pilot classifier.

:class:`ReferenceMeasurementScheduler` keeps the formulation
:class:`~repro.core.measurement.pair_scheduler.MeasurementScheduler`
replaced: pair counts in a dict, each candidate's gain summed in a Python
loop over the clients selected so far, and ``finished`` as a scan over
every pair.  Fed the same subframes, both must return the same schedule
sequence.

:class:`ReferenceAccessEstimator` keeps the formulation
:class:`~repro.core.measurement.estimator.AccessEstimator` replaced: one
dict entry per client and per pair, updated by a loop over
``combinations(sorted(scheduled), 2)``.  Fed the same valid subframes and
resets, both must hold the same counts and return the same floats, bit
for bit.  (It validates while it writes, so a rejected subframe leaves it
half-updated; the production estimator validates first.)

:func:`reference_classify_subframe` keeps the grant-by-grant form of
:func:`~repro.core.measurement.classifier.classify_subframe`: one set of
UEs per outcome code, filled by a loop over every grant.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.blueprint.transform import (
    TransformedMeasurements,
    transform_individual,
    transform_pairwise,
    transform_triplet,
)
from repro.core.measurement.classifier import AccessObservation
from repro.errors import MeasurementError
from repro.lte.enb import COLLIDED, DECODED, FADED

__all__ = [
    "ReferenceAccessEstimator",
    "ReferenceMeasurementScheduler",
    "reference_classify_subframe",
]


class ReferenceMeasurementScheduler:
    """Greedy pair-balancing scheduler (Algorithm 1), scalar form."""

    def __init__(
        self,
        num_ues: int,
        distinct_per_subframe: int,
        samples: int,
        pairs: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> None:
        self.num_ues = num_ues
        self.k = min(distinct_per_subframe, num_ues)
        self.samples = samples
        self._restricted = pairs is not None
        if pairs is None:
            tracked = list(combinations(range(num_ues), 2))
        else:
            tracked = []
            for raw in pairs:
                pair = tuple(sorted(int(u) for u in raw))
                if pair not in tracked:
                    tracked.append(pair)
        self.counts: Dict[Tuple[int, int], int] = {pair: 0 for pair in tracked}
        self.subframes_used = 0

    @property
    def finished(self) -> bool:
        return all(count >= self.samples for count in self.counts.values())

    def _pair_value(self, count: int) -> float:
        clamped = min(count, self.samples)
        return math.log((1 + self.samples) / (1 + clamped))

    def _gain(self, selected: Sequence[int], candidate: int) -> float:
        total = 0.0
        for other in selected:
            count = self.counts.get(tuple(sorted((candidate, other))))
            if count is not None:
                total += self._pair_value(count)
        return total

    def next_schedule(self) -> List[int]:
        selected: List[int] = []
        remaining = set(range(self.num_ues))
        worst_pair = min(self.counts, key=lambda p: (self.counts[p], p))
        for ue in worst_pair:
            selected.append(ue)
            remaining.discard(ue)
        while len(selected) < self.k and remaining:
            best = max(sorted(remaining), key=lambda ue: self._gain(selected, ue))
            selected.append(best)
            remaining.discard(best)
        return sorted(selected)

    def record(self, scheduled: Sequence[int]) -> None:
        distinct = sorted(set(scheduled))
        for pair in combinations(distinct, 2):
            if pair not in self.counts:
                if self._restricted:
                    continue
                raise MeasurementError(f"unknown pair {pair}")
            self.counts[pair] += 1
        self.subframes_used += 1


class ReferenceAccessEstimator:
    """Online estimator of individual and pair-wise access distributions,
    dict form."""

    def __init__(
        self,
        num_ues: int,
        track_triplets: bool = False,
        decay: float = 1.0,
    ) -> None:
        if num_ues < 1:
            raise MeasurementError(f"need at least one UE: {num_ues}")
        if not 0.0 < decay <= 1.0:
            raise MeasurementError(f"decay must be in (0, 1]: {decay}")
        self.num_ues = num_ues
        self.decay = float(decay)
        self.track_triplets = bool(track_triplets)
        self._n: Dict[int, float] = {i: 0.0 for i in range(num_ues)}
        self._clear: Dict[int, float] = {i: 0.0 for i in range(num_ues)}
        self._n_pair: Dict[Tuple[int, int], float] = {
            pair: 0.0 for pair in combinations(range(num_ues), 2)
        }
        self._clear_pair: Dict[Tuple[int, int], float] = {
            pair: 0.0 for pair in combinations(range(num_ues), 2)
        }
        self._n_triple: Dict[Tuple[int, int, int], float] = {}
        self._clear_triple: Dict[Tuple[int, int, int], float] = {}
        self.subframes_observed = 0

    def record_subframe(self, scheduled: Iterable[int], accessed: Iterable[int]) -> None:
        scheduled_set = set(scheduled)
        accessed_set = set(accessed)
        if not accessed_set <= scheduled_set:
            raise MeasurementError(
                f"accessed UEs {sorted(accessed_set - scheduled_set)} "
                "were never scheduled"
            )
        if self.decay < 1.0:
            self._apply_decay()
        for ue in scheduled_set:
            if not 0 <= ue < self.num_ues:
                raise MeasurementError(f"unknown UE id {ue}")
            self._n[ue] += 1
            if ue in accessed_set:
                self._clear[ue] += 1
        for pair in combinations(sorted(scheduled_set), 2):
            self._n_pair[pair] += 1
            if pair[0] in accessed_set and pair[1] in accessed_set:
                self._clear_pair[pair] += 1
        if self.track_triplets:
            for triple in combinations(sorted(scheduled_set), 3):
                self._n_triple[triple] = self._n_triple.get(triple, 0) + 1
                if all(u in accessed_set for u in triple):
                    self._clear_triple[triple] = (
                        self._clear_triple.get(triple, 0) + 1
                    )
        self.subframes_observed += 1

    def _apply_decay(self) -> None:
        for store in (self._n, self._clear, self._n_pair, self._clear_pair,
                      self._n_triple, self._clear_triple):
            for key in store:
                store[key] *= self.decay

    def reset_ues(self, ues: Iterable[int]) -> None:
        affected = set(int(u) for u in ues)
        bad = [u for u in affected if not 0 <= u < self.num_ues]
        if bad:
            raise MeasurementError(f"unknown UE ids {sorted(bad)}")
        for ue in affected:
            self._n[ue] = 0.0
            self._clear[ue] = 0.0
        for pair in self._n_pair:
            if affected & set(pair):
                self._n_pair[pair] = 0.0
                self._clear_pair[pair] = 0.0
        for triple in list(self._n_triple):
            if affected & set(triple):
                self._n_triple[triple] = 0.0
                self._clear_triple[triple] = 0.0

    def _floor(self, count: float) -> float:
        return 0.5 / max(count, 1)

    def individual_samples(self, ue: int) -> float:
        return self._n[ue]

    def pair_samples(self, ue_a: int, ue_b: int) -> float:
        return self._n_pair[tuple(sorted((ue_a, ue_b)))]

    def clear_samples(self, ue: int) -> float:
        return self._clear[ue]

    def pair_clear_samples(self, ue_a: int, ue_b: int) -> float:
        return self._clear_pair[tuple(sorted((ue_a, ue_b)))]

    def p_individual(self, ue: int) -> float:
        n = self._n[ue]
        if n == 0:
            raise MeasurementError(f"no samples for UE {ue}")
        floor = self._floor(n)
        return min(max(self._clear[ue] / n, floor), 1.0)

    def p_pairwise(self, ue_a: int, ue_b: int) -> float:
        pair = tuple(sorted((ue_a, ue_b)))
        n = self._n_pair[pair]
        if n == 0:
            raise MeasurementError(f"no joint samples for pair {pair}")
        floor = self._floor(n)
        return min(max(self._clear_pair[pair] / n, floor), 1.0)

    def triple_samples(self, i: int, j: int, k: int) -> float:
        return self._n_triple.get(tuple(sorted((i, j, k))), 0.0)

    def p_triplet(self, i: int, j: int, k: int) -> float:
        triple = tuple(sorted((i, j, k)))
        n = self._n_triple.get(triple, 0)
        if n == 0:
            raise MeasurementError(f"no joint samples for triple {triple}")
        floor = self._floor(n)
        return min(max(self._clear_triple.get(triple, 0) / n, floor), 1.0)

    def complete(self, samples: int) -> bool:
        return all(count >= samples for count in self._n_pair.values())

    def min_pair_samples(self) -> float:
        return min(self._n_pair.values()) if self._n_pair else 0.0

    def _log_se(self, p: float, n: float) -> float:
        return math.sqrt((1.0 - p) / (p * max(n, 1)))

    def to_transformed(
        self,
        z: float = 3.0,
        include_triplets: bool = False,
        min_triple_samples: int = 50,
    ) -> TransformedMeasurements:
        individual: Dict[int, float] = {}
        pairwise: Dict[Tuple[int, int], float] = {}
        tol_individual: Dict[int, float] = {}
        tol_pairwise: Dict[Tuple[int, int], float] = {}
        for ue in range(self.num_ues):
            p = self.p_individual(ue)
            individual[ue] = transform_individual(p)
            tol_individual[ue] = z * self._log_se(p, self._n[ue])
        for pair in combinations(range(self.num_ues), 2):
            i, j = pair
            p_i = self.p_individual(i)
            p_j = self.p_individual(j)
            p_ij = self.p_pairwise(i, j)
            pairwise[pair] = transform_pairwise(p_i, p_j, p_ij)
            variance = (
                self._log_se(p_ij, self._n_pair[pair]) ** 2
                + self._log_se(p_i, self._n[i]) ** 2
                + self._log_se(p_j, self._n[j]) ** 2
            )
            tol_pairwise[pair] = z * math.sqrt(variance)
        triplet: Dict[Tuple[int, int, int], float] = {}
        tol_triplet: Dict[Tuple[int, int, int], float] = {}
        if include_triplets:
            if not self.track_triplets:
                raise MeasurementError(
                    "estimator was built without track_triplets=True"
                )
            for triple, n in self._n_triple.items():
                if n < min_triple_samples:
                    continue
                i, j, k = triple
                p_ijk = self.p_triplet(i, j, k)
                triplet[triple] = transform_triplet(
                    self.p_individual(i),
                    self.p_individual(j),
                    self.p_individual(k),
                    self.p_pairwise(i, j),
                    self.p_pairwise(i, k),
                    self.p_pairwise(j, k),
                    p_ijk,
                )
                variance = self._log_se(p_ijk, n) ** 2
                for a, b in ((i, j), (i, k), (j, k)):
                    variance += (
                        self._log_se(
                            self.p_pairwise(a, b),
                            self._n_pair[tuple(sorted((a, b)))],
                        )
                        ** 2
                    )
                for u in triple:
                    variance += (
                        self._log_se(self.p_individual(u), self._n[u]) ** 2
                    )
                tol_triplet[triple] = z * math.sqrt(variance)
        return TransformedMeasurements(
            num_ues=self.num_ues,
            individual=individual,
            pairwise=pairwise,
            individual_tolerance=tol_individual,
            pairwise_tolerance=tol_pairwise,
            triplet=triplet,
            triplet_tolerance=tol_triplet,
        )


def reference_classify_subframe(reception) -> AccessObservation:
    """A reception's access observation, built grant by grant."""
    grants = reception.grants
    by_code = (set(), set(), set(), set())
    for ue, code in zip(grants.ue_list, reception.codes.tolist()):
        by_code[code].add(ue)
    decoded = by_code[DECODED]
    collided = by_code[COLLIDED] - decoded
    faded = by_code[FADED] - decoded - collided
    accessed = decoded | by_code[COLLIDED] | by_code[FADED]
    scheduled = grants.scheduled_set
    return AccessObservation(
        subframe=reception.subframe,
        scheduled=scheduled,
        accessed=frozenset(accessed),
        blocked=scheduled - accessed,
        collided=frozenset(collided),
        faded=frozenset(faded),
        decoded=frozenset(decoded),
    )
