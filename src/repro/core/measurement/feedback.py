"""One pass of access feedback per uplink subframe.

Every UL subframe's pilots are one access sample (Section 3.3): the
estimator counts it into ``p(i)`` and ``p(i, j)``, and the adaptive
controller's drift monitor feeds the same sample to its per-client and
per-pair detectors.  Both keep their state in dense arrays, and one pass
over the subframe's scheduled ids updates them:

* :class:`ScheduledIds` — a scheduled set's ids, validated and sorted
  once.  A held schedule hands the controller the same ``scheduled_set``
  object for every UL subframe of its TxOP, so a caller may keep one per
  burst; :meth:`ScheduledIds.accessed_flags` turns each subframe's
  accessed set into per-id flags.
* :func:`access_feedback` — the pass itself: estimator counts, then the
  detector recurrences, then the co-flag pass.  It runs in the compiled
  kernel library (``access_feedback`` in ``core/scheduling/_kernel.py``)
  when that is available and in :func:`_feedback_loop` otherwise — the
  same loop over the same arrays (read and written through flat
  ``memoryview``\\ s, which cost far less per element than numpy
  indexing), with the same float sequence.

Validation happens before any write: an id outside ``[0, num_ues)`` or an
accessed client that was not scheduled raises the caller's error type and
leaves every count and detector untouched.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

__all__ = [
    "ScheduledIds",
    "access_feedback",
    "compiled_feedback",
    "flat_views",
]

#: Doubles of state per drift stream, as the kernel's ``DRIFT_STATE``
#: (not imported: the scheduling package that holds the kernel imports
#: this one).
_STATE = 5


def compiled_feedback():
    """The compiled ``access_feedback``, or ``None`` without the kernel
    library.  Imported on first use: the scheduling package that holds the
    kernel imports this package."""
    from repro.core.scheduling._kernel import kernel

    lib = kernel()
    return None if lib is None else lib.access_feedback


def flat_views(*arrays: np.ndarray) -> Tuple[memoryview, ...]:
    """One flat, writable ``memoryview`` per C-contiguous array, typed
    like its elements (for the Python form of the pass)."""
    return tuple(
        memoryview(array).cast("B").cast(array.dtype.char) for array in arrays
    )


class ScheduledIds:
    """The distinct ids of one scheduled set, ascending and validated.

    Attributes:
        source: the scheduled set as given (a set, for subset checks).
        ues: the ids as a Python list.
        array: the ids as a contiguous ``int64`` array.
        address: the array's data pointer, for the kernel.
    """

    __slots__ = ("source", "ues", "array", "address")

    def __init__(
        self, scheduled: Iterable[int], num_ues: int, error: type
    ) -> None:
        source = (
            scheduled
            if isinstance(scheduled, (set, frozenset))
            else set(scheduled)
        )
        ues = sorted(source)
        if ues and not (0 <= ues[0] and ues[-1] < num_ues):
            bad = [ue for ue in ues if not 0 <= ue < num_ues]
            raise error(f"unknown UE ids {bad} (cell has {num_ues})")
        self.source = source
        self.ues: List[int] = ues
        self.array = np.array(ues, dtype=np.int64)
        self.address = self.array.ctypes.data

    def accessed_flags(self, accessed: Iterable[int], error: type) -> bytes:
        """One byte per id: 1 when that client accessed the channel.

        Raises ``error`` when an accessed client was not scheduled.
        """
        if not isinstance(accessed, (set, frozenset)):
            accessed = set(accessed)
        if not accessed <= self.source:
            raise error(
                f"accessed UEs {sorted(accessed - self.source)} "
                "were never scheduled"
            )
        return bytes([ue in accessed for ue in self.ues])


def access_feedback(
    compiled, ids: ScheduledIds, flags: bytes, num_ues: int, counts, streams
) -> int:
    """Run one subframe's feedback pass; return how many clients drifted.

    Args:
        compiled: the kernel's ``access_feedback`` (see
            :func:`compiled_feedback`), or ``None`` for the Python loop.
        ids, flags: the validated scheduled ids and their accessed flags.
        num_ues: clients in the cell (the arrays' leading dimension).
        counts: an :class:`~repro.core.measurement.estimator.AccessEstimator`
            whose counts take the sample, or ``None``.
        streams: a :class:`~repro.dynamics.detect.DriftMonitor` whose
            detectors take the sample, or ``None``.  Its ``drifted`` row
            holds the flagged clients afterwards (when the count is > 0).
    """
    if compiled is not None:
        flagged = compiled(
            ids.address,
            len(ids.ues),
            flags,
            num_ues,
            None if counts is None else counts.kernel_address,
            None if streams is None else streams.kernel_address,
        )
        if flagged < 0:
            raise RuntimeError("access_feedback rejected the scheduled ids")
        return flagged
    return _feedback_loop(ids.ues, flags, num_ues, counts, streams)


def _feedback_loop(
    ues: List[int], flags: bytes, num_ues: int, counts, streams
) -> int:
    """``access_feedback`` in Python: the kernel's loop over the same
    arrays, element for element, so the same binary64 operations in the
    same order and the same bits."""
    size = len(ues)
    if counts is not None:
        n, clear, n_pair, clear_pair = counts.views
        for i, a in enumerate(ues):
            n[a] += 1.0
            if flags[i]:
                clear[a] += 1.0
        for i, a in enumerate(ues):
            row = a * num_ues
            for j in range(i + 1, size):
                e = row + ues[j]
                n_pair[e] += 1.0
                if flags[i] and flags[j]:
                    clear_pair[e] += 1.0
    if streams is None:
        return 0

    step = _cusum_step if streams.cusum else _page_hinkley_step
    ue_count, ue_state, pair_count, pair_state, drifted = streams.views
    drifted[:] = bytes(num_ues)
    fired = False
    for i, a in enumerate(ues):
        if step(streams, ue_count, ue_state, a, 1.0 if flags[i] else 0.0):
            drifted[a] = 1
            fired = True
    if pair_count is not None:
        for i, a in enumerate(ues):
            row = a * num_ues
            for j in range(i + 1, size):
                b = ues[j]
                x = 1.0 if flags[i] and flags[j] else 0.0
                if step(streams, pair_count, pair_state, row + b, x):
                    drifted[a] = 1
                    drifted[b] = 1
                    fired = True
    if not fired:
        return 0
    bar = streams.bar
    for ue in range(num_ues):
        if drifted[ue] or ue_count[ue] < streams.min_samples:
            continue
        base = _STATE * ue
        if streams.cusum:
            falling = ue_state[base + 1]
            rising = ue_state[base + 2]
        else:
            falling = ue_state[base + 2] - ue_state[base + 1]
            rising = ue_state[base + 3] - ue_state[base + 4]
        # Each max is the compare it performs (see DriftMonitor).
        if (rising if rising > falling else falling) > bar:
            drifted[ue] = 1
    return sum(drifted)


def _page_hinkley_step(streams, count, state, key: int, x: float) -> bool:
    """One Page–Hinkley update of stream ``key``; True when it fires."""
    n = count[key] + 1
    count[key] = n
    base = _STATE * key
    mean = state[base]
    mean += (x - mean) / n
    low = state[base + 1] + ((x - mean) + streams.slack)
    low_max = state[base + 2]
    if low > low_max:
        low_max = low
    high = state[base + 3] + ((x - mean) - streams.slack)
    high_min = state[base + 4]
    if high < high_min:
        high_min = high
    state[base] = mean
    state[base + 1] = low
    state[base + 2] = low_max
    state[base + 3] = high
    state[base + 4] = high_min
    if n < streams.min_samples:
        return False
    falling = low_max - low
    rising = high - high_min
    return (rising if rising > falling else falling) > streams.threshold


def _cusum_step(streams, count, state, key: int, x: float) -> bool:
    """One CUSUM update of stream ``key``; True when it fires."""
    n = count[key] + 1
    count[key] = n
    base = _STATE * key
    mean = state[base]
    mean += (x - mean) / n
    pos = ((state[base + 1] + x) - mean) - streams.slack
    if not pos > 0.0:
        pos = 0.0
    neg = ((state[base + 2] - x) + mean) - streams.slack
    if not neg > 0.0:
        neg = 0.0
    state[base] = mean
    state[base + 1] = pos
    state[base + 2] = neg
    return (
        n >= streams.min_samples
        and (neg if neg > pos else pos) > streams.threshold
    )
