"""Declarative multi-cell deployment specifications.

A :class:`DeploymentSpec` is the single serializable description of a
deployment-scale campaign: how many eNBs and where (grid lattice or a
Poisson point process), the per-cell client and ambient-WiFi populations,
the radio model that turns geometry into sensing relationships, which
scheduler runs in every cell, the per-cell simulation parameters, and the
root seed every entropy stream derives from.

Specs are frozen and round-trip losslessly through ``to_dict`` /
``from_dict`` (and therefore JSON); the serialized form carries a
top-level ``"kind": "deployment"`` marker so tooling (``repro
validate-specs``) can distinguish deployment specs from single-cell
:class:`~repro.experiments.ExperimentSpec` files living in the same
directory.  Validation is strict, in the style of the experiment specs:
unknown keys and malformed values raise
:class:`~repro.errors.SpecError`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.errors import SpecError
from repro.experiments.spec import (
    SchedulerSpec,
    _drop_retired_fields,
    _reject_unknown,
    _require_mapping,
)
from repro.lte import consts
from repro.obs.config import ObsConfig
from repro.resilience.faults import FaultPlan
from repro.sim.config import SimulationConfig

__all__ = ["PlacementSpec", "RadioSpec", "DeploymentSpec", "DEPLOYMENT_KIND"]

#: Top-level ``kind`` marker in serialized deployment specs.
DEPLOYMENT_KIND = "deployment"


@dataclass(frozen=True)
class PlacementSpec:
    """How eNBs are placed on the plane.

    ``kind`` is ``"grid"`` (params: ``rows``, ``cols``, ``spacing_m``) or
    ``"ppp"`` (params: ``num_cells``, ``area_m`` — a Poisson point
    process conditioned on the cell count, the Li et al. stochastic-
    geometry coexistence model).
    """

    kind: str = "grid"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("grid", "ppp"):
            raise SpecError(
                f"unknown placement kind {self.kind!r}; known: ['grid', 'ppp']"
            )

    @property
    def num_cells(self) -> int:
        """The eNB count implied by the placement parameters."""
        if self.kind == "grid":
            rows = int(self.params.get("rows", 1))
            cols = int(self.params.get("cols", 1))
            return rows * cols
        return int(self.params.get("num_cells", 1))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlacementSpec":
        data = _require_mapping(data, "placement")
        _reject_unknown(data, ("kind", "params"), "placement")
        kind = data.get("kind", "grid")
        if not isinstance(kind, str) or not kind:
            raise SpecError("placement needs a non-empty string 'kind'")
        params = _require_mapping(data.get("params", {}), "placement.params")
        allowed = (
            ("rows", "cols", "spacing_m")
            if kind == "grid"
            else ("num_cells", "area_m")
        )
        if kind in ("grid", "ppp"):
            _reject_unknown(params, allowed, f"placement '{kind}' params")
        return cls(kind=kind, params=params)


@dataclass(frozen=True)
class RadioSpec:
    """The radio model turning deployment geometry into sensing graphs.

    Energy-detection thresholds decide who hears whom; transmit powers and
    the log-distance path-loss exponent set the ranges; the activity range
    draws each ambient WiFi node's busy probability; and
    ``ue_uplink_activity`` is the busy probability a foreign cell's UE
    presents when it appears as a *cross-cell hidden terminal* in another
    cell's sensing graph.
    """

    ue_ed_threshold_dbm: float = consts.DEFAULT_ED_THRESHOLD_DBM
    enb_ed_threshold_dbm: float = consts.DEFAULT_ED_THRESHOLD_DBM
    wifi_tx_power_dbm: float = consts.DEFAULT_TX_POWER_DBM
    ue_tx_power_dbm: float = consts.DEFAULT_TX_POWER_DBM
    path_loss_exponent: float = 3.0
    activity_low: float = 0.1
    activity_high: float = 0.5
    ue_uplink_activity: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.activity_low <= self.activity_high < 1.0:
            raise SpecError(
                "activity range must satisfy 0 <= low <= high < 1: "
                f"[{self.activity_low}, {self.activity_high}]"
            )
        if not 0.0 <= self.ue_uplink_activity < 1.0:
            raise SpecError(
                f"ue_uplink_activity outside [0,1): {self.ue_uplink_activity}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RadioSpec":
        data = _require_mapping(data, "radio")
        allowed = tuple(f.name for f in dataclasses.fields(cls))
        _reject_unknown(data, allowed, "radio")
        return cls(**data)


@dataclass(frozen=True)
class DeploymentSpec:
    """One complete, serializable multi-cell deployment campaign.

    Every cell runs the same ``scheduler`` kind (each cell gets a *fresh*
    instance — per-cell BLU controllers infer per-cell blueprints) under
    the same ``sim`` config (the per-cell eNB busy probability is
    overridden from the deployment's own interference geometry).  ``seed``
    roots a single ``numpy.random.SeedSequence.spawn`` tree from which
    every placement draw, per-cell engine stream, and per-cluster stream
    derives, so no two cells ever share entropy and results are
    bit-identical under any sharding.

    ``coupling_margin_db`` is the cluster-partition safety margin: two
    cells are considered coupled when any transmitter of one is received
    within this many dB of the energy-detection threshold at any sensor of
    the other (or a shared WiFi interferer straddles both).  Raising the
    margin is strictly conservative — it can only merge clusters.

    ``num_channels`` > 1 gives the deployment a channel axis: each cell
    is assigned one of the plan's channels (``channel_assignment`` —
    ``"round-robin"`` stripes by cell id, ``"coloring"`` greedily colors
    the unattenuated coupling graph so coupled neighbours land on
    different channels), ambient WiFi nodes inherit their nearest eNB's
    channel, and all cross-node powers are ACLR-attenuated before
    sensing classification and cluster partitioning — so channelization
    becomes a lever for the partitioner: cells that would couple
    co-channel fall into separate clusters once channelized apart.
    """

    name: str
    placement: PlacementSpec
    ues_per_cell: int = 4
    wifi_per_cell: int = 2
    cell_radius_m: float = 25.0
    radio: RadioSpec = field(default_factory=RadioSpec)
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    scheduler: SchedulerSpec = field(default_factory=lambda: SchedulerSpec("pf"))
    coupling_margin_db: float = 6.0
    num_channels: int = 1
    channel_assignment: str = "round-robin"
    channel_spacing_mhz: float = 20.0
    seed: int = 0
    record_series: bool = False
    #: Observability for every cell's run; ``None`` collects nothing.
    obs: Optional[ObsConfig] = None
    #: Seeded fault plan; worker faults apply per *cluster* work item.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError("deployment needs a non-empty string name")
        if self.ues_per_cell < 1:
            raise SpecError(
                f"ues_per_cell must be >= 1: {self.ues_per_cell}"
            )
        if self.wifi_per_cell < 0:
            raise SpecError(
                f"wifi_per_cell must be >= 0: {self.wifi_per_cell}"
            )
        if self.cell_radius_m <= 0:
            raise SpecError(
                f"cell_radius_m must be positive: {self.cell_radius_m}"
            )
        if self.coupling_margin_db < 0:
            raise SpecError(
                f"coupling_margin_db must be >= 0: {self.coupling_margin_db}"
            )
        if not isinstance(self.num_channels, int) or isinstance(
            self.num_channels, bool
        ) or self.num_channels < 1:
            raise SpecError(
                f"num_channels must be a positive integer: "
                f"{self.num_channels!r}"
            )
        if self.channel_assignment not in ("round-robin", "coloring"):
            raise SpecError(
                f"channel_assignment must be one of ['coloring', "
                f"'round-robin']: {self.channel_assignment!r}"
            )
        if self.channel_spacing_mhz <= 0:
            raise SpecError(
                f"channel_spacing_mhz must be positive: "
                f"{self.channel_spacing_mhz}"
            )
        if not isinstance(self.seed, int):
            raise SpecError(f"seed must be an int: {self.seed!r}")
        if not isinstance(self.scheduler, SchedulerSpec):
            raise SpecError(
                f"scheduler must be a SchedulerSpec, "
                f"got {type(self.scheduler).__name__}"
            )
        if self.obs is not None and not isinstance(self.obs, ObsConfig):
            raise SpecError(
                f"obs must be an ObsConfig, got {type(self.obs).__name__}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise SpecError(
                f"faults must be a FaultPlan, got {type(self.faults).__name__}"
            )

    @property
    def num_cells(self) -> int:
        """eNB count implied by the placement."""
        return self.placement.num_cells

    @property
    def total_ues(self) -> int:
        """Deployment-wide UE count."""
        return self.num_cells * self.ues_per_cell

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": DEPLOYMENT_KIND,
            "name": self.name,
            "placement": self.placement.to_dict(),
            "ues_per_cell": self.ues_per_cell,
            "wifi_per_cell": self.wifi_per_cell,
            "cell_radius_m": self.cell_radius_m,
            "radio": self.radio.to_dict(),
            "sim": dataclasses.asdict(self.sim),
            "scheduler": self.scheduler.to_dict(),
            "coupling_margin_db": self.coupling_margin_db,
            "num_channels": self.num_channels,
            "channel_assignment": self.channel_assignment,
            "channel_spacing_mhz": self.channel_spacing_mhz,
            "seed": self.seed,
            "record_series": self.record_series,
            "obs": self.obs.to_dict() if self.obs else None,
            "faults": self.faults.to_dict() if self.faults else None,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeploymentSpec":
        data = _require_mapping(data, "deployment")
        kind = data.get("kind", DEPLOYMENT_KIND)
        if kind != DEPLOYMENT_KIND:
            raise SpecError(
                f"not a deployment spec: kind={kind!r} "
                f"(expected {DEPLOYMENT_KIND!r})"
            )
        _drop_retired_fields(data, "deployment")
        _reject_unknown(
            data,
            (
                "kind",
                "name",
                "placement",
                "ues_per_cell",
                "wifi_per_cell",
                "cell_radius_m",
                "radio",
                "sim",
                "scheduler",
                "coupling_margin_db",
                "num_channels",
                "channel_assignment",
                "channel_spacing_mhz",
                "seed",
                "record_series",
                "obs",
                "faults",
            ),
            "deployment",
        )
        for key in ("name", "placement"):
            if key not in data:
                raise SpecError(f"deployment is missing required field {key!r}")
        sim_raw = _require_mapping(data.get("sim", {}), "sim")
        sim_allowed = tuple(f.name for f in dataclasses.fields(SimulationConfig))
        _reject_unknown(sim_raw, sim_allowed, "sim")
        scheduler_raw = data.get("scheduler", {"kind": "pf"})
        return cls(
            name=data["name"],
            placement=PlacementSpec.from_dict(data["placement"]),
            ues_per_cell=int(data.get("ues_per_cell", 4)),
            wifi_per_cell=int(data.get("wifi_per_cell", 2)),
            cell_radius_m=float(data.get("cell_radius_m", 25.0)),
            radio=RadioSpec.from_dict(data.get("radio", {})),
            sim=SimulationConfig(**sim_raw),
            scheduler=SchedulerSpec.from_dict(scheduler_raw),
            coupling_margin_db=float(data.get("coupling_margin_db", 6.0)),
            num_channels=data.get("num_channels", 1),
            channel_assignment=data.get("channel_assignment", "round-robin"),
            channel_spacing_mhz=float(data.get("channel_spacing_mhz", 20.0)),
            seed=int(data.get("seed", 0)),
            record_series=bool(data.get("record_series", False)),
            obs=(
                ObsConfig.from_dict(data["obs"])
                if data.get("obs") is not None
                else None
            ),
            faults=(
                FaultPlan.from_dict(data["faults"])
                if data.get("faults") is not None
                else None
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "DeploymentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid JSON: {error}") from error
        return cls.from_dict(data)

    def replace(self, **changes: Any) -> "DeploymentSpec":
        """A copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)
