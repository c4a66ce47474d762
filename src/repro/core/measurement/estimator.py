"""Access-distribution estimation from observed uplink subframes.

Every uplink subframe in which a set of clients was scheduled is one joint
sample: each scheduled client either used its grant (CCA clear) or did not.
The estimator accumulates

* per client: schedule count ``n_i`` and clear count;
* per pair scheduled together: joint count ``n_ij`` and both-clear count;

and exposes the estimated ``p(i)``, ``p(i, j)`` together with noise-aware
tolerances for the inference solver (delta-method standard errors on the
log-transformed constraints).

Both measurement-phase subframes and regular speculative-phase subframes
feed the same estimator — the paper notes the operational phase implicitly
keeps measuring.

The counts are dense ``float64`` arrays updated by one pass per subframe
(:func:`~repro.core.measurement.feedback.access_feedback`, compiled when
the kernel library is available); the readers return the Python floats
the dict-based form of this estimator (``tests/reference/measurement.py``,
the oracle) computes, bit for bit.
"""

from __future__ import annotations

import ctypes
import math
from itertools import combinations
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.core.blueprint.transform import (
    TransformedMeasurements,
    transform_individual,
    transform_pairwise,
    transform_triplet,
)
from repro.core.measurement.feedback import (
    ScheduledIds,
    access_feedback,
    compiled_feedback,
    flat_views,
)
from repro.errors import MeasurementError

__all__ = ["AccessEstimator"]


def _estimate(clear: float, n: float) -> float:
    """``clear / n`` held half a count off exact 0 and capped at 1: keeps
    estimates off exact 0/1 where logs blow up."""
    floor = 0.5 / max(n, 1)
    return min(max(clear / n, floor), 1.0)


class AccessEstimator:
    """Online estimator of individual and pair-wise access distributions.

    Attributes:
        n, clear: ``(num_ues,)`` per-client schedule and clear counts.
        n_pair, clear_pair: ``(num_ues, num_ues)`` joint and both-clear
            counts; pair ``(i, j)`` with ``i < j`` lives at ``[i, j]`` (the
            lower triangle stays zero).

    The arrays are the estimator's state — read them, but record through
    :meth:`record_subframe` or :meth:`record`.
    """

    def __init__(
        self,
        num_ues: int,
        track_triplets: bool = False,
        decay: float = 1.0,
    ) -> None:
        """Args:
            num_ues: clients in the cell.
            track_triplets: also accumulate 3-client joint counts —
                Section 3.5's extra constraints for skewed topologies
                (costs ``C(K,3)`` counter updates per subframe).
            decay: exponential forgetting factor applied to all counts each
                observed subframe.  ``1.0`` (default) accumulates forever —
                the paper's cumulative model.  Values just below 1 give an
                effective window of ``1/(1-decay)`` subframes so that
                re-inference tracks topology dynamics (Section 3.5's
                stationarity regime) instead of averaging across regimes.
        """
        from repro.core.scheduling._kernel import AccessCounts

        if num_ues < 1:
            raise MeasurementError(f"need at least one UE: {num_ues}")
        if not 0.0 < decay <= 1.0:
            raise MeasurementError(f"decay must be in (0, 1]: {decay}")
        self.num_ues = num_ues
        self.decay = float(decay)
        self.track_triplets = bool(track_triplets)
        self.n = np.zeros(num_ues)
        self.clear = np.zeros(num_ues)
        self.n_pair = np.zeros((num_ues, num_ues))
        self.clear_pair = np.zeros((num_ues, num_ues))
        #: The pairs' positions, ``i < j`` in ``combinations`` order.
        self._upper = np.triu_indices(num_ues, 1)
        self._n_triple: Dict[Tuple[int, int, int], float] = {}
        self._clear_triple: Dict[Tuple[int, int, int], float] = {}
        self.subframes_observed = 0
        self._compiled = compiled_feedback()
        #: Flat views of the count arrays, for the pass's Python form.
        self.views = flat_views(self.n, self.clear, self.n_pair, self.clear_pair)
        self._kernel_counts = AccessCounts(
            self.n.ctypes.data,
            self.clear.ctypes.data,
            self.n_pair.ctypes.data,
            self.clear_pair.ctypes.data,
        )
        #: Address of the ``AccessCounts`` descriptor the kernel takes.
        self.kernel_address = ctypes.addressof(self._kernel_counts)

    # -- recording -------------------------------------------------------

    def record_subframe(self, scheduled: Iterable[int], accessed: Iterable[int]) -> None:
        """Record one subframe: who was scheduled, who used the grant.

        Raises :class:`MeasurementError`, with nothing recorded, when a
        scheduled id is not a client of the cell or an accessed client
        was not scheduled.
        """
        ids = ScheduledIds(scheduled, self.num_ues, MeasurementError)
        self.record(ids, ids.accessed_flags(accessed, MeasurementError))

    def record(self, ids: ScheduledIds, flags: bytes, monitor=None) -> int:
        """Record one validated subframe (see :class:`ScheduledIds`).

        With a :class:`~repro.dynamics.detect.DriftMonitor`, the same pass
        also feeds its detectors; returns the number of clients it flagged
        (read them with ``monitor.flagged(count)``), 0 without one.
        """
        if self.decay < 1.0:
            self._apply_decay()
        flagged = access_feedback(
            self._compiled, ids, flags, self.num_ues, self, monitor
        )
        if self.track_triplets:
            ues = ids.ues
            for a, b, c in combinations(range(len(ues)), 3):
                triple = (ues[a], ues[b], ues[c])
                self._n_triple[triple] = self._n_triple.get(triple, 0) + 1
                if flags[a] and flags[b] and flags[c]:
                    self._clear_triple[triple] = (
                        self._clear_triple.get(triple, 0) + 1
                    )
        self.subframes_observed += 1
        return flagged

    def _apply_decay(self) -> None:
        decay = self.decay
        for counts in (self.n, self.clear, self.n_pair, self.clear_pair):
            counts *= decay
        for store in (self._n_triple, self._clear_triple):
            for key in store:
                store[key] *= decay

    def reset_ues(self, ues: Iterable[int]) -> None:
        """Discard all statistics involving the given clients.

        Used by online adaptation when drift is detected: the flagged
        clients' pre-change samples describe a world that no longer exists,
        so their individual counts and every pair/triple touching them are
        zeroed — statistics among unaffected clients are kept, which is
        what makes targeted re-measurement sufficient.
        """
        affected = set(int(u) for u in ues)
        bad = [u for u in affected if not 0 <= u < self.num_ues]
        if bad:
            raise MeasurementError(f"unknown UE ids {sorted(bad)}")
        rows = sorted(affected)
        for counts in (self.n, self.clear):
            counts[rows] = 0.0
        for counts in (self.n_pair, self.clear_pair):
            counts[rows, :] = 0.0
            counts[:, rows] = 0.0
        for triple in list(self._n_triple):
            if affected & set(triple):
                self._n_triple[triple] = 0.0
                self._clear_triple[triple] = 0.0

    # -- point estimates ----------------------------------------------------

    def _ue(self, ue: int) -> int:
        if not 0 <= ue < self.num_ues:
            raise KeyError(ue)
        return ue

    def _pair(self, ue_a: int, ue_b: int) -> Tuple[int, int]:
        pair = tuple(sorted((ue_a, ue_b)))
        if not 0 <= pair[0] < pair[1] < self.num_ues:
            raise KeyError(pair)
        return pair

    def individual_samples(self, ue: int) -> float:
        """Effective sample count (decayed weight) for one client."""
        return float(self.n[self._ue(ue)])

    def pair_samples(self, ue_a: int, ue_b: int) -> float:
        """Effective joint sample count for one pair."""
        return float(self.n_pair[self._pair(ue_a, ue_b)])

    def p_individual(self, ue: int) -> float:
        ue = self._ue(ue)
        n = float(self.n[ue])
        if n == 0:
            raise MeasurementError(f"no samples for UE {ue}")
        return _estimate(float(self.clear[ue]), n)

    def p_pairwise(self, ue_a: int, ue_b: int) -> float:
        pair = self._pair(ue_a, ue_b)
        n = float(self.n_pair[pair])
        if n == 0:
            raise MeasurementError(f"no joint samples for pair {pair}")
        return _estimate(float(self.clear_pair[pair]), n)

    def triple_samples(self, i: int, j: int, k: int) -> float:
        return self._n_triple.get(tuple(sorted((i, j, k))), 0.0)

    def p_triplet(self, i: int, j: int, k: int) -> float:
        triple = tuple(sorted((i, j, k)))
        n = self._n_triple.get(triple, 0)
        if n == 0:
            raise MeasurementError(f"no joint samples for triple {triple}")
        return _estimate(self._clear_triple.get(triple, 0), n)

    def complete(self, samples: int) -> bool:
        """True when every pair has at least ``samples`` joint observations."""
        return bool(np.all(self.n_pair[self._upper] >= samples))

    def min_pair_samples(self) -> float:
        if self.num_ues < 2:
            return 0.0
        return float(self.n_pair[self._upper].min())

    # -- transformed output ----------------------------------------------------

    def _log_se(self, p: float, n: float) -> float:
        """Delta-method standard error of ``log p_hat``."""
        return math.sqrt((1.0 - p) / (p * max(n, 1)))

    def to_transformed(
        self,
        z: float = 3.0,
        include_triplets: bool = False,
        min_triple_samples: int = 50,
    ) -> TransformedMeasurements:
        """Build the inference target with ``z``-sigma tolerances.

        The tolerance of each transformed constraint is ``z`` times the
        delta-method standard error of its estimate; terminals whose effect
        is below the noise floor are (correctly) not inferable.

        With ``include_triplets`` (and ``track_triplets`` at construction),
        every observed triple with at least ``min_triple_samples`` joint
        samples contributes a Section 3.5 constraint.
        """
        n = self.n.tolist()
        clear = self.clear.tolist()
        n_pair = self.n_pair.tolist()
        clear_pair = self.clear_pair.tolist()

        def p_pairwise(i: int, j: int) -> float:
            if n_pair[i][j] == 0:
                raise MeasurementError(f"no joint samples for pair {(i, j)}")
            return _estimate(clear_pair[i][j], n_pair[i][j])

        p_individual = []
        for ue in range(self.num_ues):
            if n[ue] == 0:
                raise MeasurementError(f"no samples for UE {ue}")
            p_individual.append(_estimate(clear[ue], n[ue]))
        individual: Dict[int, float] = {}
        pairwise: Dict[Tuple[int, int], float] = {}
        tol_individual: Dict[int, float] = {}
        tol_pairwise: Dict[Tuple[int, int], float] = {}
        for ue, p in enumerate(p_individual):
            individual[ue] = transform_individual(p)
            tol_individual[ue] = z * self._log_se(p, n[ue])
        for pair in combinations(range(self.num_ues), 2):
            i, j = pair
            p_i = p_individual[i]
            p_j = p_individual[j]
            p_ij = p_pairwise(i, j)
            pairwise[pair] = transform_pairwise(p_i, p_j, p_ij)
            variance = (
                self._log_se(p_ij, n_pair[i][j]) ** 2
                + self._log_se(p_i, n[i]) ** 2
                + self._log_se(p_j, n[j]) ** 2
            )
            tol_pairwise[pair] = z * math.sqrt(variance)
        triplet: Dict[Tuple[int, int, int], float] = {}
        tol_triplet: Dict[Tuple[int, int, int], float] = {}
        if include_triplets:
            if not self.track_triplets:
                raise MeasurementError(
                    "estimator was built without track_triplets=True"
                )
            for triple, n_ijk in self._n_triple.items():
                if n_ijk < min_triple_samples:
                    continue
                i, j, k = triple
                p_ijk = self.p_triplet(i, j, k)
                triplet[triple] = transform_triplet(
                    p_individual[i],
                    p_individual[j],
                    p_individual[k],
                    p_pairwise(i, j),
                    p_pairwise(i, k),
                    p_pairwise(j, k),
                    p_ijk,
                )
                # Dominant noise source: the triple count itself, plus the
                # six lower-order estimates it is combined with.
                variance = self._log_se(p_ijk, n_ijk) ** 2
                for a, b in ((i, j), (i, k), (j, k)):
                    variance += (
                        self._log_se(p_pairwise(a, b), n_pair[a][b]) ** 2
                    )
                for u in triple:
                    variance += self._log_se(p_individual[u], n[u]) ** 2
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
