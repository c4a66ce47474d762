"""Measurement-phase scheduling (Algorithm 1 of the paper).

The goal: collect ``T`` joint samples of every client pair while scheduling
at most ``K`` distinct clients per subframe, in as few subframes as
possible.  Each subframe greedily picks the ``K`` clients whose induced
pairs are the least-sampled so far, using a logarithmic balance term so all
pairs progress roughly together (usable mid-phase).

The lower bound is ``F_min = ceil(C(N,2) / C(K,2) * T)`` subframes — the
paper's headline: constant in the MIMO order ``M`` and ``O((N/K)^2)``,
versus the exponential cost of measuring higher-order tuples directly.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError

__all__ = [
    "minimum_subframes",
    "tuple_measurement_subframes",
    "MeasurementScheduler",
]


def minimum_subframes(num_ues: int, distinct_per_subframe: int, samples: int) -> int:
    """``F_min``: lower bound on pair-wise measurement subframes."""
    if num_ues < 2:
        return 0
    k = min(distinct_per_subframe, num_ues)
    if k < 2:
        raise MeasurementError(
            f"need at least 2 schedulable clients per subframe, got {k}"
        )
    total_pairs = math.comb(num_ues, 2)
    pairs_per_subframe = math.comb(k, 2)
    return math.ceil(total_pairs / pairs_per_subframe * samples)


def tuple_measurement_subframes(
    num_ues: int, tuple_size: int, distinct_per_subframe: int, samples: int
) -> int:
    """Subframes to measure all ``k``-client joint tuples directly.

    The exponential alternative BLU avoids: ``ceil(C(N,k)/C(K,k) * T)``
    (infeasible outright when ``k > K``).  For the paper's example —
    N=20, k=6, K=8 — this is ≈ 1384·T subframes versus < 7·T pair-wise.
    """
    if tuple_size > distinct_per_subframe:
        raise MeasurementError(
            f"cannot measure {tuple_size}-tuples with only "
            f"{distinct_per_subframe} distinct clients per subframe"
        )
    total = math.comb(num_ues, tuple_size)
    per_subframe = math.comb(distinct_per_subframe, tuple_size)
    return math.ceil(total / per_subframe * samples)


class MeasurementScheduler:
    """Greedy pair-balancing scheduler for the measurement phase.

    Note on Algorithm 1's line 7: as printed, the log-ratio
    ``log((1+c_j)/(1+T))`` is negative and *increasing* in the count, so an
    argmax would favour well-sampled pairs — contradicting the stated intent
    ("K clients, whose resulting pair-wise distributions have the least
    number of measurements thus far").  We use the intended orientation,
    ``log((1+T)/(1+c_j))``, clamped at zero for pairs already at target.

    Pair counts live in an ``N x N`` integer matrix; a lookup table of the
    ``T + 1`` pair values turns them into gains, and each greedy step adds
    one column of those values into a gain vector, in selection order.
    """

    def __init__(
        self,
        num_ues: int,
        distinct_per_subframe: int,
        samples: int,
        pairs: "Optional[Iterable[Tuple[int, int]]]" = None,
    ) -> None:
        if num_ues < 2:
            raise MeasurementError(f"need at least two UEs: {num_ues}")
        if samples < 1:
            raise MeasurementError(f"need at least one sample per pair: {samples}")
        self.num_ues = num_ues
        self.k = min(distinct_per_subframe, num_ues)
        if self.k < 2:
            raise MeasurementError(
                "need at least 2 schedulable clients per subframe"
            )
        self.samples = samples
        #: ``pairs`` restricts the campaign to a sub-schedule: only the
        #: listed pairs are tracked and balanced (online adaptation's
        #: targeted re-measurement after drift).  None = the full campaign.
        self._restricted = pairs is not None
        tracked = np.zeros((num_ues, num_ues), dtype=bool)
        if pairs is None:
            tracked[:] = True
            np.fill_diagonal(tracked, False)
        else:
            for raw in pairs:
                pair = tuple(sorted(int(u) for u in raw))
                if len(pair) != 2 or pair[0] == pair[1]:
                    raise MeasurementError(f"not a client pair: {raw}")
                if not (0 <= pair[0] and pair[1] < num_ues):
                    raise MeasurementError(f"pair outside the cell: {raw}")
                tracked[pair] = tracked[pair[::-1]] = True
            if not tracked.any():
                raise MeasurementError("restricted pair set is empty")
        self._tracked = tracked
        self._counts = np.zeros((num_ues, num_ues), dtype=np.int64)
        # Row-major upper-triangle slots of the tracked pairs: the order in
        # which ties for the least-sampled pair are broken.
        self._pair_slots = np.flatnonzero(np.triu(tracked).ravel())
        self._below_target = len(self._pair_slots)
        self._values = np.array(
            [math.log((1 + samples) / (1 + count)) for count in range(samples + 1)]
        )
        self.subframes_used = 0

    @property
    def counts(self) -> Dict[Tuple[int, int], int]:
        """``{(i, j): samples so far}`` for every tracked pair (a copy)."""
        rows, cols = np.unravel_index(self._pair_slots, self._counts.shape)
        values = self._counts.ravel()[self._pair_slots]
        return {
            (i, j): c
            for i, j, c in zip(rows.tolist(), cols.tolist(), values.tolist())
        }

    @property
    def finished(self) -> bool:
        return self._below_target == 0

    def _pair_values(self, ue: int) -> np.ndarray:
        """Every client's pair value with ``ue``; untracked pairs give 0."""
        counts = np.minimum(self._counts[:, ue], self.samples)
        return self._values[counts] * self._tracked[:, ue]

    def next_schedule(self) -> List[int]:
        """Greedily pick the K clients for the next measurement subframe."""
        # Seed with the least-sampled pair so progress is guaranteed.
        slot = self._pair_slots[np.argmin(self._counts.ravel()[self._pair_slots])]
        selected = list(divmod(int(slot), self.num_ues))
        gain = np.zeros(self.num_ues)
        picked = np.zeros(self.num_ues, dtype=bool)
        for ue in selected:
            gain += self._pair_values(ue)
            picked[ue] = True
        while len(selected) < self.k:
            best = int(np.argmax(np.where(picked, -np.inf, gain)))
            selected.append(best)
            gain += self._pair_values(best)
            picked[best] = True
        return sorted(selected)

    def record(self, scheduled: Sequence[int]) -> None:
        """Account a subframe's schedule into the pair counts."""
        distinct = sorted(set(int(u) for u in scheduled))
        inside = [u for u in distinct if 0 <= u < self.num_ues]
        if len(inside) < len(distinct):
            if not self._restricted:
                for pair in combinations(distinct, 2):
                    if pair[0] < 0 or pair[1] >= self.num_ues:
                        raise MeasurementError(f"unknown pair {pair}")
            distinct = inside  # pairs outside the sub-schedule are not tracked
        index = np.array(distinct, dtype=np.intp)
        # Every ordered pair of scheduled clients as a flat matrix slot;
        # the diagonal and untracked pairs are masked out.
        slots = (index[:, None] * self.num_ues + index).ravel()
        counts = self._counts.ravel()
        tracked = self._tracked.ravel()[slots]
        reached = np.count_nonzero(tracked & (counts[slots] == self.samples - 1))
        counts[slots] += tracked
        self._below_target -= reached // 2
        self.subframes_used += 1

    def plan(self, max_subframes: int | None = None) -> List[List[int]]:
        """Produce the full measurement plan (``t_max`` subframes).

        Runs the greedy loop to completion and returns the schedule of each
        subframe; ``self.subframes_used`` afterwards is ``t_max``.
        """
        bound = max_subframes if max_subframes is not None else 50 * max(
            minimum_subframes(self.num_ues, self.k, self.samples), 1
        )
        schedules: List[List[int]] = []
        while not self.finished:
            if len(schedules) >= bound:
                raise MeasurementError(
                    f"measurement plan exceeded {bound} subframes; "
                    "scheduler failed to make progress"
                )
            schedule = self.next_schedule()
            self.record(schedule)
            schedules.append(schedule)
        return schedules
