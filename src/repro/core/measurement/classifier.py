"""Turning PHY receptions into access observations (Section 3.3).

The estimator needs to know, for every scheduled client, whether it *used*
its grant.  The eNB cannot ask the client — it infers from pilots:

* no pilot on any granted RB  -> the client's CCA failed: **blocked**
  (hidden-terminal loss, counts as "did not access");
* pilot present -> the client accessed the channel, regardless of whether
  the data decoded (collision and fading are reception losses, not access
  losses, and must not contaminate the access statistics).

This module also exposes the loss-cause breakdown used to sanity-check the
pilot discrimination logic (collision vs fading vs blocking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.lte.enb import (
    COLLIDED,
    DECODED,
    FADED,
    GrantArrays,
    SubframeReception,
)
from repro.lte.resources import SubframeSchedule

__all__ = ["AccessObservation", "classify_subframe"]


@dataclass(frozen=True)
class AccessObservation:
    """Per-subframe access sample extracted from eNB-side receptions."""

    subframe: int
    scheduled: FrozenSet[int]
    accessed: FrozenSet[int]
    blocked: FrozenSet[int]
    collided: FrozenSet[int]
    faded: FrozenSet[int]
    decoded: FrozenSet[int]

    @property
    def access_fraction(self) -> float:
        if not self.scheduled:
            return 0.0
        return len(self.accessed) / len(self.scheduled)


def classify_subframe(
    schedule: SubframeSchedule, reception: SubframeReception
) -> AccessObservation:
    """Classify every scheduled UE of a subframe by its pilot evidence.

    A UE scheduled on several RBs accessed the channel iff any of its RBs
    shows a pilot (CCA is per-subframe, so in practice all of them do).
    The decoded/collided/faded breakdown is per-UE: a UE is "decoded" if at
    least one of its grants delivered data, else "collided" if one of its
    grants collided, else "faded" if one faded.

    Reads the reception's per-grant outcome codes; ``reception`` must be
    the decode of ``schedule``.  One ``bincount`` over the keys
    ``4 * ue + code`` says which codes each UE's grants drew; Python then
    visits the distinct UEs, never the grants.
    """
    grants = reception.grants
    _, ues, keys, size = _burst_keys(grants)
    present = np.bincount(keys + reception.codes, minlength=size).tolist()
    decoded, collided, faded = [], [], []
    for ue, key in ues:
        if present[key + DECODED]:
            decoded.append(ue)
        elif present[key + COLLIDED]:
            collided.append(ue)
        elif present[key + FADED]:
            faded.append(ue)
    decoded = frozenset(decoded)
    if collided or faded:
        accessed = decoded.union(collided, faded)
        collided = frozenset(collided)
        faded = frozenset(faded)
    else:
        accessed = decoded
        collided = faded = frozenset()
    scheduled = grants.scheduled_set
    return AccessObservation(
        subframe=reception.subframe,
        scheduled=scheduled,
        accessed=accessed,
        blocked=scheduled - accessed,
        collided=collided,
        faded=faded,
        decoded=decoded,
    )


#: The last classified :class:`GrantArrays`; its distinct UEs, ascending,
#: each with its key base ``4 * ue``; per grant that base; and the key
#: range.  A held schedule's grants serve every UL subframe of its TxOP,
#: so these are computed once per burst.  The entry holds its grants
#: alive, so an identity match is never a recycled object, and the keys
#: depend on the grants alone: what the entry holds changes how often
#: the keys are computed, never an observation.
_last_burst: Tuple[
    Optional[GrantArrays], List[Tuple[int, int]], np.ndarray, int
] = (None, [], np.zeros(0, dtype=np.intp), 0)


def _burst_keys(grants: GrantArrays):
    """``_last_burst`` for ``grants``, recomputed when they change."""
    global _last_burst
    burst = _last_burst
    if burst[0] is not grants:
        ues = sorted(grants.scheduled_set)
        burst = _last_burst = (
            grants,
            [(ue, 4 * ue) for ue in ues],
            grants.ue * 4,
            4 * ues[-1] + 4 if ues else 0,
        )
    return burst
