"""LTE substrate: frame structure, rates, channels, the eNB node model."""

from repro.lte import consts
from repro.lte.channel import FadingProcess, PathLossModel, UplinkChannel
from repro.lte.enb import ENodeB, SubframeReception
from repro.lte.mcs import (
    CQI_TABLE,
    CqiEntry,
    cqi_to_efficiency,
    rb_rate_bps,
    shannon_rb_rate_bps,
    sinr_to_cqi,
    sinr_to_efficiency,
)
from repro.lte.phy import (
    GrantOutcome,
    RBReception,
    effective_rate_bps,
    mumimo_sinr_penalty_db,
    receive_rb,
)
from repro.lte.harq import HarqConfig, HarqPool, HarqTransportBlock
from repro.lte.noma import receive_rb_sic
from repro.lte.pilots import (
    MAX_ORTHOGONAL_PILOTS,
    PilotObservation,
    assign_pilot_indices,
)
from repro.lte.resources import RBSchedule, SubframeSchedule, TxOp, UplinkGrant
from repro.lte.traffic import (
    FullBufferTraffic,
    PeriodicTraffic,
    PoissonTraffic,
    TrafficSource,
    UeQueue,
)

__all__ = [
    "consts",
    "CQI_TABLE",
    "CqiEntry",
    "ENodeB",
    "FadingProcess",
    "FullBufferTraffic",
    "GrantOutcome",
    "HarqConfig",
    "HarqPool",
    "HarqTransportBlock",
    "MAX_ORTHOGONAL_PILOTS",
    "PathLossModel",
    "PeriodicTraffic",
    "PilotObservation",
    "PoissonTraffic",
    "RBReception",
    "RBSchedule",
    "SubframeReception",
    "SubframeSchedule",
    "TrafficSource",
    "TxOp",
    "UeQueue",
    "UplinkChannel",
    "UplinkGrant",
    "assign_pilot_indices",
    "cqi_to_efficiency",
    "effective_rate_bps",
    "mumimo_sinr_penalty_db",
    "rb_rate_bps",
    "receive_rb",
    "receive_rb_sic",
    "shannon_rb_rate_bps",
    "sinr_to_cqi",
    "sinr_to_efficiency",
]
