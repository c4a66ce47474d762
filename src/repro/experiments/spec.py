"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the single serializable description of one
experiment: which scenario to build (topology + SNR draw), which
schedulers to compare (by registry kind), the :class:`SimulationConfig`,
an optional environment timeline, and the seed.  Specs are frozen and
round-trip losslessly through ``to_dict``/``from_dict`` (and therefore
JSON), so an experiment can live in a ``specs/*.json`` file, travel to a
worker process, or be archived next to its results.

Validation is strict: unknown keys, unknown kinds, and malformed values
raise :class:`~repro.errors.SpecError` (a ``ConfigurationError``
subclass), never a bare ``KeyError``/``TypeError``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import SpecError
from repro.obs.config import ObsConfig
from repro.resilience.faults import FaultPlan
from repro.sim.config import SimulationConfig
from repro.spectrum.channels import ChannelPlan

__all__ = [
    "ChannelSpec",
    "ScenarioSpec",
    "SchedulerSpec",
    "TimelineSpec",
    "ExperimentSpec",
]


def _require_mapping(value: Any, where: str) -> Dict[str, Any]:
    if not isinstance(value, Mapping):
        raise SpecError(f"{where} must be a mapping, got {type(value).__name__}")
    bad = [key for key in value if not isinstance(key, str)]
    if bad:
        raise SpecError(f"{where} has non-string keys: {bad}")
    return dict(value)


def _require_kind(data: Mapping[str, Any], where: str) -> str:
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        raise SpecError(f"{where} needs a non-empty string 'kind'")
    return kind


def _reject_unknown(data: Mapping[str, Any], allowed: Tuple[str, ...], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SpecError(
            f"unknown field(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


#: Removed top-level spec fields (experiment and deployment specs alike):
#: name -> (the one value older spec files may still carry, why it went).
#: ``from_dict`` drops a field holding that value and rejects any other;
#: ``to_dict`` never writes it; checkpoint manifests compare without it.
RETIRED_FIELDS: Dict[str, Tuple[Any, str]] = {
    "fast_path": (True, "the scalar engine path was removed"),
}


def _drop_retired_fields(data: Dict[str, Any], where: str) -> None:
    """Remove :data:`RETIRED_FIELDS` from a spec mapping, in place."""
    for name, (kept, reason) in RETIRED_FIELDS.items():
        if name in data and data.pop(name) is not kept:
            raise SpecError(
                f"{where} field {name!r} is retired and only {kept!r} is "
                f"still accepted: {reason}; drop the field"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """Reference to a registered topology scenario plus its SNR draw.

    ``kind`` names a builder in the scenario registry (``fig1``,
    ``testbed``, ``skewed``, ``generated``); ``params`` are its keyword
    arguments.  ``snr`` describes the per-UE mean-SNR assignment:
    ``{"kind": "uniform", ...}``, ``{"kind": "fixed", "snr_db": ...}`` or
    ``{"kind": "explicit", "by_ue": {"0": 20.0, ...}}``.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    snr: Dict[str, Any] = field(default_factory=lambda: {"kind": "uniform"})

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params), "snr": dict(self.snr)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        data = _require_mapping(data, "scenario")
        _reject_unknown(data, ("kind", "params", "snr"), "scenario")
        kind = _require_kind(data, "scenario")
        params = _require_mapping(data.get("params", {}), "scenario.params")
        snr = _require_mapping(data.get("snr", {"kind": "uniform"}), "scenario.snr")
        _require_kind(snr, "scenario.snr")
        return cls(kind=kind, params=params, snr=snr)


@dataclass(frozen=True)
class SchedulerSpec:
    """Reference to a registered scheduler/controller kind."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str = "scheduler") -> "SchedulerSpec":
        data = _require_mapping(data, where)
        _reject_unknown(data, ("kind", "params"), where)
        kind = _require_kind(data, where)
        params = _require_mapping(data.get("params", {}), f"{where}.params")
        return cls(kind=kind, params=params)


@dataclass(frozen=True)
class TimelineSpec:
    """Reference to a registered environment-timeline builder."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TimelineSpec":
        data = _require_mapping(data, "timeline")
        _reject_unknown(data, ("kind", "params"), "timeline")
        kind = _require_kind(data, "timeline")
        params = _require_mapping(data.get("params", {}), "timeline.params")
        return cls(kind=kind, params=params)


_CHANNEL_ASSIGNMENTS = ("static", "blueprint")


@dataclass(frozen=True)
class ChannelSpec:
    """The channel axis of an experiment: plan, homes, and assignment.

    ``plan`` defines the channels themselves (centers + ACLR model);
    ``terminal_channels``/``terminal_margins_db`` place the scenario's
    hidden terminals onto home channels (empty tuples mean all on
    channel 0 with zero margin).  ``assignment`` chooses how UEs get
    their channel: ``"static"`` parks every UE on ``channel`` (or on the
    explicit ``ue_channels`` list), ``"blueprint"`` lets the scheduler's
    channel-selection stage pick per-UE channels from the blueprint
    (``load_penalty`` spreads UEs over equally-clear channels).

    The default ``ChannelSpec()`` is the 1-channel plan with everything
    on channel 0 — bit-exact with a spec that has no channel block.
    """

    plan: ChannelPlan = field(default_factory=ChannelPlan.default)
    terminal_channels: Tuple[int, ...] = ()
    terminal_margins_db: Tuple[float, ...] = ()
    assignment: str = "static"
    channel: int = 0
    ue_channels: Optional[Tuple[int, ...]] = None
    load_penalty: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.plan, ChannelPlan):
            raise SpecError(
                f"channels.plan must be a ChannelPlan, "
                f"got {type(self.plan).__name__}"
            )
        object.__setattr__(
            self, "terminal_channels", tuple(int(c) for c in self.terminal_channels)
        )
        object.__setattr__(
            self,
            "terminal_margins_db",
            tuple(float(m) for m in self.terminal_margins_db),
        )
        if self.ue_channels is not None:
            object.__setattr__(
                self, "ue_channels", tuple(int(c) for c in self.ue_channels)
            )
        if self.assignment not in _CHANNEL_ASSIGNMENTS:
            raise SpecError(
                f"channels.assignment must be one of "
                f"{sorted(_CHANNEL_ASSIGNMENTS)}: {self.assignment!r}"
            )
        if not 0 <= self.channel < self.plan.num_channels:
            raise SpecError(
                f"channels.channel {self.channel} outside plan with "
                f"{self.plan.num_channels} channel(s)"
            )
        for home in self.terminal_channels:
            if not 0 <= home < self.plan.num_channels:
                raise SpecError(
                    f"channels.terminal_channels entry {home} outside plan "
                    f"with {self.plan.num_channels} channel(s)"
                )
        for margin in self.terminal_margins_db:
            if margin < 0.0:
                raise SpecError(
                    f"channels.terminal_margins_db must be >= 0: {margin}"
                )
        if self.ue_channels is not None:
            for assigned in self.ue_channels:
                if not 0 <= assigned < self.plan.num_channels:
                    raise SpecError(
                        f"channels.ue_channels entry {assigned} outside plan "
                        f"with {self.plan.num_channels} channel(s)"
                    )
        if self.load_penalty < 0.0:
            raise SpecError(
                f"channels.load_penalty must be >= 0: {self.load_penalty}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan.to_dict(),
            "terminal_channels": list(self.terminal_channels),
            "terminal_margins_db": list(self.terminal_margins_db),
            "assignment": self.assignment,
            "channel": self.channel,
            "ue_channels": (
                list(self.ue_channels) if self.ue_channels is not None else None
            ),
            "load_penalty": self.load_penalty,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChannelSpec":
        data = _require_mapping(data, "channels")
        _reject_unknown(
            data,
            (
                "plan",
                "terminal_channels",
                "terminal_margins_db",
                "assignment",
                "channel",
                "ue_channels",
                "load_penalty",
            ),
            "channels",
        )
        plan_raw = data.get("plan")
        plan = (
            ChannelPlan.from_dict(_require_mapping(plan_raw, "channels.plan"))
            if plan_raw is not None
            else ChannelPlan.default()
        )
        channel = data.get("channel", 0)
        if not isinstance(channel, int) or isinstance(channel, bool):
            raise SpecError(f"channels.channel must be an int: {channel!r}")
        ue_channels = data.get("ue_channels")
        return cls(
            plan=plan,
            terminal_channels=tuple(data.get("terminal_channels", ())),
            terminal_margins_db=tuple(data.get("terminal_margins_db", ())),
            assignment=data.get("assignment", "static"),
            channel=channel,
            ue_channels=tuple(ue_channels) if ue_channels is not None else None,
            load_penalty=float(data.get("load_penalty", 0.0)),
        )


_SIM_FIELDS = tuple(f.name for f in dataclasses.fields(SimulationConfig))


def _sim_config_from_dict(data: Mapping[str, Any]) -> SimulationConfig:
    data = _require_mapping(data, "sim")
    _reject_unknown(data, _SIM_FIELDS, "sim")
    return SimulationConfig(**data)


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete, serializable experiment description.

    ``schedulers`` maps display names (the keys of the result dict) to
    :class:`SchedulerSpec` registry references.  ``seed`` drives every
    source of randomness in a run; all schedulers face the identical
    seeded world (the matched-conditions contract of ``sim.runner``).
    """

    name: str
    scenario: ScenarioSpec
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    schedulers: Dict[str, SchedulerSpec] = field(default_factory=dict)
    timeline: Optional[TimelineSpec] = None
    seed: Optional[int] = 0
    record_series: bool = False
    #: Observability (metrics/tracing) for every run of this spec;
    #: ``None`` — the default — collects nothing.
    obs: Optional[ObsConfig] = None
    #: Seeded fault plan (``repro.resilience``) applied to every run;
    #: ``None`` — the default — injects nothing.
    faults: Optional[FaultPlan] = None
    #: Channel plan + per-UE assignment policy; ``None`` — the default —
    #: is the implicit 1-channel world (bit-exact with older specs).
    channels: Optional[ChannelSpec] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError("experiment needs a non-empty string name")
        if not self.schedulers:
            raise SpecError(f"experiment {self.name!r} lists no schedulers")
        for label, scheduler in self.schedulers.items():
            if not isinstance(scheduler, SchedulerSpec):
                raise SpecError(
                    f"scheduler {label!r} must be a SchedulerSpec, "
                    f"got {type(scheduler).__name__}"
                )
        if self.obs is not None and not isinstance(self.obs, ObsConfig):
            raise SpecError(
                f"obs must be an ObsConfig, got {type(self.obs).__name__}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise SpecError(
                f"faults must be a FaultPlan, got {type(self.faults).__name__}"
            )
        if self.channels is not None and not isinstance(self.channels, ChannelSpec):
            raise SpecError(
                f"channels must be a ChannelSpec, "
                f"got {type(self.channels).__name__}"
            )

    @property
    def scheduler_names(self) -> Tuple[str, ...]:
        return tuple(self.schedulers)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scenario": self.scenario.to_dict(),
            "sim": dataclasses.asdict(self.sim),
            "schedulers": {
                label: scheduler.to_dict()
                for label, scheduler in self.schedulers.items()
            },
            "timeline": self.timeline.to_dict() if self.timeline else None,
            "seed": self.seed,
            "record_series": self.record_series,
            "obs": self.obs.to_dict() if self.obs else None,
            "faults": self.faults.to_dict() if self.faults else None,
            "channels": self.channels.to_dict() if self.channels else None,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        data = _require_mapping(data, "experiment")
        _drop_retired_fields(data, "experiment")
        _reject_unknown(
            data,
            (
                "name",
                "scenario",
                "sim",
                "schedulers",
                "timeline",
                "seed",
                "record_series",
                "obs",
                "faults",
                "channels",
            ),
            "experiment",
        )
        for key in ("name", "scenario", "schedulers"):
            if key not in data:
                raise SpecError(f"experiment is missing required field {key!r}")
        schedulers_raw = _require_mapping(data["schedulers"], "schedulers")
        schedulers = {
            label: SchedulerSpec.from_dict(entry, where=f"schedulers[{label!r}]")
            for label, entry in schedulers_raw.items()
        }
        timeline_raw = data.get("timeline")
        seed = data.get("seed", 0)
        if seed is not None and not isinstance(seed, int):
            raise SpecError(f"seed must be an int or null: {seed!r}")
        return cls(
            name=data["name"],
            scenario=ScenarioSpec.from_dict(data["scenario"]),
            sim=_sim_config_from_dict(data.get("sim", {})),
            schedulers=schedulers,
            timeline=(
                TimelineSpec.from_dict(timeline_raw)
                if timeline_raw is not None
                else None
            ),
            seed=seed,
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
            channels=(
                ChannelSpec.from_dict(data["channels"])
                if data.get("channels") is not None
                else None
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid JSON: {error}") from error
        return cls.from_dict(data)

    def replace(self, **changes: Any) -> "ExperimentSpec":
        """A copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)
