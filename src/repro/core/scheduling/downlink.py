"""Access-aware downlink scheduling (Section 3.7 of the paper).

On the downlink the conflict manifests differently: the eNB transmits, so
a hidden terminal near a client corrupts *reception* (a collision at the
client) rather than suppressing a grant.  Over-scheduling transmissions is
impossible — but the blueprint still pays off: knowing each client's
interference exposure, the eNB can weight its DL schedule toward clients
whose air is likely clean *right now* and avoid wasting subframes on
clients being jammed ("access-aware scheduling for OFDMA and MU-MIMO
transmissions on the DL", Eqn. 5 applied to reception).

The model: a DL transmission to client ``i`` in a subframe succeeds iff no
hidden terminal attached to ``i`` is active (the same binary impact model
as the uplink).  The scheduler maximizes expected delivered PF utility
``sum_i p(i) * r_{i,b} / R_i`` per RB, exactly Eqn. 5.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.core.scheduling.access_aware import AccessAwareScheduler
from repro.lte.resources import SubframeSchedule

__all__ = ["AccessAwareDownlinkScheduler", "downlink_delivered_bits"]


class AccessAwareDownlinkScheduler(AccessAwareScheduler):
    """Eqn. 5 applied to DL reception success probabilities.

    Structurally identical to the UL access-aware scheduler — the
    probability that client ``i`` can *use* its grant becomes the
    probability that ``i`` can *hear* its transmission — so it is that
    scheduler under its own name, on the same scalar and vectorized
    paths.  It never schedules more than ``M`` streams per RB
    (over-scheduling transmissions is impossible on DL).
    """

    name = "dl-access-aware"


def downlink_delivered_bits(
    schedule: SubframeSchedule,
    jammed_ues: Iterable[int],
    subframe_duration_s: float = 1e-3,
) -> Tuple[Dict[int, float], int, int]:
    """Resolve one DL subframe: transmissions to jammed clients are lost.

    Returns ``(delivered_bits_by_ue, rbs_delivered, rbs_lost)``.  This is
    the DL counterpart of the UL reception pipeline: no CCA gate on the
    client side, but a per-client collision when its local interferer is
    active during the subframe.
    """
    jammed: Set[int] = set(jammed_ues)
    delivered: Dict[int, float] = {}
    rbs_delivered = 0
    rbs_lost = 0
    for rb in schedule.allocated_rbs():
        rb_ok = False
        for grant in schedule.rb(rb):
            if grant.ue_id in jammed:
                continue
            delivered[grant.ue_id] = (
                delivered.get(grant.ue_id, 0.0)
                + grant.rate_bps * subframe_duration_s
            )
            rb_ok = True
        if rb_ok:
            rbs_delivered += 1
        else:
            rbs_lost += 1
    return delivered, rbs_delivered, rbs_lost
