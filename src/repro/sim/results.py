"""Simulation metrics: what every figure of the paper is computed from.

:class:`SimulationResult` is one run's outcome; :class:`SweepPoint`,
:class:`ReplicatedMetric` and :func:`gain_over` are the shapes the
experiment layer (:mod:`repro.experiments`) reports comparisons, sweeps
and seed replications in.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core.scheduling.fairness import jain_fairness_index
from repro.lte import consts

__all__ = ["ReplicatedMetric", "SimulationResult", "SweepPoint", "gain_over"]


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run.

    Grant counters are per (UE, RB, subframe) grant; RB counters are per
    (RB, subframe) allocation unit.
    """

    scheduler_name: str
    num_subframes: int = 0
    ul_subframes: int = 0
    dl_subframes: int = 0
    idle_subframes: int = 0

    delivered_bits_by_ue: Dict[int, float] = field(default_factory=dict)

    grants_issued: int = 0
    grants_decoded: int = 0
    grants_blocked: int = 0
    grants_collided: int = 0
    grants_faded: int = 0

    rbs_allocated: int = 0
    rbs_utilized: int = 0
    fully_utilized_subframes: int = 0

    # HARQ (populated when the simulation enables it).
    harq_retransmissions: int = 0
    harq_blocks_recovered: int = 0
    harq_blocks_dropped: int = 0

    #: Optional per-UL-subframe series (enabled via ``record_series``).
    utilization_series: List[float] = field(default_factory=list)

    # Telemetry attached by an ObsSession when observability is enabled.
    # Excluded from equality/repr: the bit-exactness contract compares
    # simulation outcomes, never observation payloads.
    obs_snapshot: Optional[Dict] = field(default=None, compare=False, repr=False)
    obs_trace: Optional[List[Dict]] = field(
        default=None, compare=False, repr=False
    )
    #: Streamed time-series frame (``TimeSeriesFrame.to_dict()`` form),
    #: attached when ``obs.stream`` is on.
    obs_series: Optional[Dict] = field(default=None, compare=False, repr=False)

    # -- derived metrics ----------------------------------------------------

    @property
    def total_delivered_bits(self) -> float:
        return sum(self.delivered_bits_by_ue.values())

    @property
    def aggregate_throughput_bps(self) -> float:
        """Delivered bits over the whole wall-clock run (DL/idle included)."""
        if self.num_subframes == 0:
            return 0.0
        duration_s = self.num_subframes * consts.SUBFRAME_DURATION_S
        return self.total_delivered_bits / duration_s

    @property
    def aggregate_throughput_mbps(self) -> float:
        return self.aggregate_throughput_bps / 1e6

    def per_ue_throughput_bps(self) -> Dict[int, float]:
        duration_s = max(self.num_subframes, 1) * consts.SUBFRAME_DURATION_S
        return {ue: bits / duration_s for ue, bits in self.delivered_bits_by_ue.items()}

    @property
    def rb_utilization(self) -> float:
        """Fraction of allocated RB units that carried decoded data (Fig. 18)."""
        if self.rbs_allocated == 0:
            return 0.0
        return self.rbs_utilized / self.rbs_allocated

    @property
    def utilization_loss(self) -> float:
        """The Fig. 4a metric: allocated-but-wasted fraction."""
        return 1.0 - self.rb_utilization

    @property
    def fully_utilized_fraction(self) -> float:
        """Fraction of UL subframes with every allocated RB used (Fig. 4b)."""
        if self.ul_subframes == 0:
            return 0.0
        return self.fully_utilized_subframes / self.ul_subframes

    @property
    def grant_usage_fraction(self) -> float:
        if self.grants_issued == 0:
            return 0.0
        return self.grants_decoded / self.grants_issued

    @property
    def grant_block_fraction(self) -> float:
        if self.grants_issued == 0:
            return 0.0
        return self.grants_blocked / self.grants_issued

    @property
    def grant_collision_fraction(self) -> float:
        if self.grants_issued == 0:
            return 0.0
        return self.grants_collided / self.grants_issued

    @property
    def jain_index(self) -> float:
        if not self.delivered_bits_by_ue:
            return 1.0
        return jain_fairness_index(list(self.delivered_bits_by_ue.values()))

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline metrics, for tables and JSON export."""
        return {
            "throughput_mbps": self.aggregate_throughput_mbps,
            "rb_utilization": self.rb_utilization,
            "utilization_loss": self.utilization_loss,
            "fully_utilized_fraction": self.fully_utilized_fraction,
            "grant_usage": self.grant_usage_fraction,
            "grant_blocked": self.grant_block_fraction,
            "grant_collided": self.grant_collision_fraction,
            "jain_index": self.jain_index,
            "ul_subframes": float(self.ul_subframes),
        }

    def to_dict(self) -> Dict:
        """Full JSON-serializable dump: counters plus derived summary."""
        return {
            "scheduler": self.scheduler_name,
            "counters": {
                "num_subframes": self.num_subframes,
                "ul_subframes": self.ul_subframes,
                "dl_subframes": self.dl_subframes,
                "idle_subframes": self.idle_subframes,
                "grants_issued": self.grants_issued,
                "grants_decoded": self.grants_decoded,
                "grants_blocked": self.grants_blocked,
                "grants_collided": self.grants_collided,
                "grants_faded": self.grants_faded,
                "rbs_allocated": self.rbs_allocated,
                "rbs_utilized": self.rbs_utilized,
                "fully_utilized_subframes": self.fully_utilized_subframes,
                "harq_retransmissions": self.harq_retransmissions,
                "harq_blocks_recovered": self.harq_blocks_recovered,
                "harq_blocks_dropped": self.harq_blocks_dropped,
            },
            "delivered_bits_by_ue": {
                str(ue): bits for ue, bits in self.delivered_bits_by_ue.items()
            },
            "summary": self.summary(),
        }

    def to_json(self, indent: int = 2) -> str:
        """The :meth:`to_dict` dump as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- lossless state (checkpoint/resume) ---------------------------------

    def to_state(self) -> Dict:
        """Lossless JSON-ready dump of every field, for checkpointing.

        Unlike :meth:`to_dict` (a reporting view that drops the series
        and telemetry), this round-trips bit-exactly through JSON via
        :meth:`from_state` — float values survive because Python's
        shortest-repr serialization is exact.
        """
        state = {
            spec.name: getattr(self, spec.name)
            for spec in dataclasses.fields(self)
            if spec.name not in ("delivered_bits_by_ue",)
        }
        state["delivered_bits_by_ue"] = {
            str(ue): bits for ue, bits in self.delivered_bits_by_ue.items()
        }
        state["utilization_series"] = list(self.utilization_series)
        return state

    @classmethod
    def from_state(cls, state: Dict) -> "SimulationResult":
        """Rebuild a result from a :meth:`to_state` payload."""
        data = dict(state)
        data["delivered_bits_by_ue"] = {
            int(ue): bits
            for ue, bits in data.get("delivered_bits_by_ue", {}).items()
        }
        return cls(**data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationResult({self.scheduler_name}: "
            f"{self.aggregate_throughput_mbps:.2f} Mbps, "
            f"util={self.rb_utilization:.2f})"
        )


@dataclass
class SweepPoint:
    """One point of a parameter sweep: its label and results by scheduler."""

    parameter: object
    results: Dict[str, SimulationResult]


@dataclass
class ReplicatedMetric:
    """Mean and standard deviation of one metric across seeds."""

    mean: float
    std: float
    samples: int

    def __repr__(self) -> str:  # pragma: no cover - display aid
        return f"{self.mean:.3f} ± {self.std:.3f} (n={self.samples})"


def gain_over(
    results: Mapping[str, SimulationResult],
    candidate: str,
    baseline: str,
    metric: str = "throughput_mbps",
) -> float:
    """Ratio of a summary metric between two named results."""
    base = results[baseline].summary()[metric]
    cand = results[candidate].summary()[metric]
    if base == 0.0:
        return float("inf") if cand > 0 else 1.0
    return cand / base
