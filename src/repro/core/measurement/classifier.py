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
from typing import FrozenSet

from repro.lte.enb import COLLIDED, DECODED, FADED, SubframeReception
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
    the decode of ``schedule``.
    """
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
