"""The access-aware (AA) scheduler (Eqn. 5) — the weighted-PF comparison.

AA knows each client's *individual* access probability ``p(i)`` and weights
the PF marginal utility by it, steering grants toward clients likely to
pass CCA.  It does **not** know the joint access structure, so it cannot
over-schedule: groups stay within ``M`` clients per RB, and the paper shows
it cannot recover the lost utilization (Figs. 15–18).
"""

from __future__ import annotations

import numpy as np

from repro.core.joint.provider import JointAccessProvider
from repro.core.scheduling.base import UplinkScheduler, build_schedule_fast
from repro.core.scheduling.types import BurstTable, SchedulingContext
from repro.lte.pilots import MAX_ORTHOGONAL_PILOTS
from repro.lte.resources import SubframeSchedule

__all__ = ["AccessAwareScheduler"]


class AccessAwareScheduler(UplinkScheduler):
    """PF weighted by individual access probabilities."""

    name = "access-aware"

    def __init__(self, provider: JointAccessProvider) -> None:
        self.provider = provider
        #: Schedule calls served (the engine benchmarks read it).
        self.fast_path_schedules = 0

    def schedule(self, context: SchedulingContext) -> SubframeSchedule:
        # AA's utility is still a plain per-client sum: scaling the PF
        # weight rows by the access-probability vector gives exactly
        # ``p(i) * w(i)`` per entry (IEEE multiplication is commutative
        # bit-for-bit), so the linear builder applies unchanged.
        access = np.zeros(context.num_ue_slots)
        for ue in context.ue_ids:
            access[ue] = self.provider.access_probability(ue)
        table = BurstTable(
            context,
            min(context.num_antennas, MAX_ORTHOGONAL_PILOTS),
            scale=access,
        )
        self.fast_path_schedules += 1
        return build_schedule_fast(
            context, max_group_size=context.num_antennas, table=table
        )
