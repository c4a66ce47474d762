"""Uplink schedulers: PF baseline, access-aware, BLU speculative, extras."""

from repro.core.scheduling.access_aware import AccessAwareScheduler
from repro.core.scheduling.base import UplinkScheduler
from repro.core.scheduling.channels import (
    BlueprintChannelAssigner,
    ChannelAssigner,
    StaticChannelAssigner,
    build_channel_assigner,
)
from repro.core.scheduling.downlink import (
    AccessAwareDownlinkScheduler,
    downlink_delivered_bits,
)
from repro.core.scheduling.fairness import PfAverageTracker, jain_fairness_index
from repro.core.scheduling.oracle import OracleScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.core.scheduling.single_user import SingleUserScheduler
from repro.core.scheduling.speculative import SpeculativeScheduler
from repro.core.scheduling.types import SchedulingContext

__all__ = [
    "AccessAwareDownlinkScheduler",
    "AccessAwareScheduler",
    "BlueprintChannelAssigner",
    "ChannelAssigner",
    "OracleScheduler",
    "PfAverageTracker",
    "ProportionalFairScheduler",
    "SchedulingContext",
    "SingleUserScheduler",
    "SpeculativeScheduler",
    "StaticChannelAssigner",
    "UplinkScheduler",
    "build_channel_assigner",
    "downlink_delivered_bits",
    "jain_fairness_index",
]
