"""Genie-aided oracle scheduler: the utilization upper bound.

The oracle is told, each subframe, exactly which clients will pass CCA
(``context.clear_ues``) — information no real eNB in unlicensed spectrum
can have.  It then runs plain PF restricted to those clients, so every
grant it issues is used.  Useful as the ceiling against which PF's loss
and BLU's recovery are measured.
"""

from __future__ import annotations

import numpy as np

from repro.core.scheduling.base import UplinkScheduler, build_schedule_fast
from repro.core.scheduling.types import BurstTable, SchedulingContext
from repro.errors import SchedulingError
from repro.lte.pilots import MAX_ORTHOGONAL_PILOTS
from repro.lte.resources import SubframeSchedule

__all__ = ["OracleScheduler"]


class OracleScheduler(UplinkScheduler):
    """PF over the genie-provided set of clients that will clear CCA."""

    name = "oracle"

    #: Genie information is per subframe, so the engine must re-consult the
    #: oracle every UL subframe rather than reusing a burst schedule.
    reschedule_every_subframe = True

    def __init__(self) -> None:
        #: Schedule calls served (the engine benchmarks read it).
        self.fast_path_schedules = 0

    def schedule(self, context: SchedulingContext) -> SubframeSchedule:
        if context.clear_ues is None:
            raise SchedulingError(
                "oracle scheduler needs context.clear_ues (genie information)"
            )
        # An additive 0 / -inf offset vector vetoes blocked clients: any
        # group containing one sums to -inf (finite + -inf, -inf + -inf —
        # no +inf exists, so no NaN), which the strict-improvement scan
        # never accepts; clear clients keep their weights bit-for-bit
        # (w + 0.0 == w, no -0.0 occurs).
        offsets = np.full(context.num_ue_slots, -np.inf)
        for ue in context.clear_ues:
            if 0 <= ue < offsets.shape[0]:
                offsets[ue] = 0.0
        table = BurstTable(
            context,
            min(context.num_antennas, MAX_ORTHOGONAL_PILOTS),
            offset=offsets,
        )
        self.fast_path_schedules += 1
        return build_schedule_fast(
            context, max_group_size=context.num_antennas, table=table
        )
