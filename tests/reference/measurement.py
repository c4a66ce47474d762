"""The dict-and-loop Algorithm 1: the test oracle for the measurement
scheduler.

It keeps the formulation
:class:`~repro.core.measurement.pair_scheduler.MeasurementScheduler`
replaced: pair counts in a dict, each candidate's gain summed in a Python
loop over the clients selected so far, and ``finished`` as a scan over
every pair.  Fed the same subframes, both must return the same schedule
sequence.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MeasurementError

__all__ = ["ReferenceMeasurementScheduler"]


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
