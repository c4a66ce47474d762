"""The environment as a first-class time-varying object.

The paper's speculative phase exists because the world is *not* frozen:
hidden WiFi nodes arrive and leave, their duty cycles drift, clients roam.
An :class:`EnvironmentTimeline` scripts those dynamics as typed events
pinned to subframe indices; the simulation engine applies them at subframe
boundaries through a :class:`TimelineRuntime`, deriving a fresh (immutable)
:class:`~repro.topology.graph.InterferenceTopology` per structural change so
every memoized edge matrix downstream is invalidated by construction.

Event kinds:

* :class:`HiddenNodeArrival` / :class:`HiddenNodeDeparture` — a WiFi hidden
  terminal appears with its own activity process / disappears;
* :class:`DutyCycleDrift` — an existing terminal's busy probability changes
  (traffic load shift);
* :class:`UeJoin` / :class:`UeLeave` — a client attaches to / detaches from
  the cell (its traffic gates on and off; the UE id space is fixed);
* :class:`LinkStrengthRamp` — a client's mean SNR ramps by ``delta_db``
  over ``duration`` subframes (mobility / shadowing).

Terminals are addressed by *label*, not index: indices shift on departure,
labels are stable.  Initial terminals are labelled ``ht0..ht{h-1}`` unless
the timeline supplies ``initial_labels``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.spectrum.activity import (
    ActivityProcess,
    BernoulliActivity,
    MarkovOnOffActivity,
)
from repro.topology.graph import InterferenceTopology

__all__ = [
    "HiddenNodeArrival",
    "HiddenNodeDeparture",
    "DutyCycleDrift",
    "UeJoin",
    "UeLeave",
    "LinkStrengthRamp",
    "TimelineEvent",
    "TimelineUpdate",
    "AddTerminalOp",
    "RemoveTerminalOp",
    "RetuneOp",
    "EnvironmentTimeline",
    "TimelineRuntime",
]


@dataclass(frozen=True)
class HiddenNodeArrival:
    """A new hidden terminal appears at subframe ``at``."""

    at: int
    q: float
    ues: Tuple[int, ...]
    label: Optional[str] = None
    activity_kind: str = "bernoulli"  # or "markov"
    mean_busy_subframes: float = 3.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ues", tuple(int(u) for u in self.ues))
        if not 0.0 <= self.q < 1.0:
            raise ConfigurationError(
                f"arrival busy probability outside [0,1): {self.q}"
            )
        if self.activity_kind not in ("bernoulli", "markov"):
            raise ConfigurationError(
                f"unknown activity kind: {self.activity_kind!r}"
            )


@dataclass(frozen=True)
class HiddenNodeDeparture:
    """The hidden terminal ``label`` leaves at subframe ``at``."""

    at: int
    label: str


@dataclass(frozen=True)
class DutyCycleDrift:
    """Terminal ``label``'s busy probability becomes ``q`` at ``at``."""

    at: int
    label: str
    q: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.q < 1.0:
            raise ConfigurationError(
                f"drifted busy probability outside [0,1): {self.q}"
            )


@dataclass(frozen=True)
class UeJoin:
    """Client ``ue`` attaches (its traffic gates on) at ``at``."""

    at: int
    ue: int


@dataclass(frozen=True)
class UeLeave:
    """Client ``ue`` detaches (its traffic gates off) at ``at``."""

    at: int
    ue: int


@dataclass(frozen=True)
class LinkStrengthRamp:
    """Client ``ue``'s mean SNR shifts ``delta_db`` over ``duration`` sf."""

    at: int
    ue: int
    delta_db: float
    duration: int = 1

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ConfigurationError(
                f"ramp duration must be >= 1 subframe: {self.duration}"
            )


TimelineEvent = Union[
    HiddenNodeArrival,
    HiddenNodeDeparture,
    DutyCycleDrift,
    UeJoin,
    UeLeave,
    LinkStrengthRamp,
]

_STRUCTURAL = (HiddenNodeArrival, HiddenNodeDeparture, DutyCycleDrift)


@dataclass(frozen=True)
class AddTerminalOp:
    """Activity-model op: append the arrived terminal's process."""

    process: ActivityProcess


@dataclass(frozen=True)
class RemoveTerminalOp:
    """Activity-model op: drop the process at ``index``."""

    index: int


@dataclass(frozen=True)
class RetuneOp:
    """Activity-model op: re-tune the process at ``index`` to ``q``."""

    index: int
    q: float


@dataclass
class TimelineUpdate:
    """Everything the engine must apply at one subframe boundary."""

    topology: Optional[InterferenceTopology] = None  # None = unchanged
    activity_ops: List[object] = field(default_factory=list)
    snr_delta_db: Dict[int, float] = field(default_factory=dict)
    joins: List[int] = field(default_factory=list)
    leaves: List[int] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return (
            self.topology is None
            and not self.activity_ops
            and not self.snr_delta_db
            and not self.joins
            and not self.leaves
        )


class EnvironmentTimeline:
    """An ordered script of environment events for one simulation run."""

    def __init__(
        self,
        events: Iterable[TimelineEvent] = (),
        initial_labels: Optional[Sequence[str]] = None,
    ) -> None:
        self.events: List[TimelineEvent] = sorted(
            events, key=lambda e: e.at
        )
        for event in self.events:
            if event.at < 0:
                raise ConfigurationError(
                    f"event scheduled before subframe 0: {event}"
                )
        self.initial_labels = (
            list(initial_labels) if initial_labels is not None else None
        )

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def has_structural_events(self) -> bool:
        """Whether any event changes the hidden-terminal population."""
        return any(isinstance(e, _STRUCTURAL) for e in self.events)

    def horizon(self) -> int:
        """Subframe index after which the timeline is quiescent."""
        last = 0
        for event in self.events:
            end = event.at
            if isinstance(event, LinkStrengthRamp):
                end += event.duration
            last = max(last, end)
        return last

    def runtime(self, topology: InterferenceTopology) -> "TimelineRuntime":
        """Bind the script to a starting topology for one run."""
        return TimelineRuntime(self, topology)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnvironmentTimeline({self.num_events} events)"


def _default_process_seed(label: str, at: int) -> int:
    # Deterministic and independent of Python's randomized str hashing, so
    # the engine, its scalar test reference and re-runs build identical
    # processes.
    return zlib.crc32(f"{label}@{at}".encode()) & 0x7FFFFFFF


class TimelineRuntime:
    """One run's cursor over a timeline: resolves labels, emits updates.

    The runtime owns the label→index map and the topology derivation; the
    engine owns the substrate mutation (activity processes, channel means,
    traffic gates).  ``step(t)`` must be called once per subframe with
    monotonically increasing ``t``.
    """

    def __init__(
        self, timeline: EnvironmentTimeline, topology: InterferenceTopology
    ) -> None:
        self._timeline = timeline
        self.topology = topology
        labels = timeline.initial_labels
        if labels is None:
            labels = [f"ht{k}" for k in range(topology.num_terminals)]
        if len(labels) != topology.num_terminals:
            raise ConfigurationError(
                f"{len(labels)} initial labels for "
                f"{topology.num_terminals} terminals"
            )
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"duplicate terminal labels: {labels}")
        self._labels: List[str] = list(labels)
        self._cursor = 0
        self._last_t = -1
        #: Ramps still in progress: (event, subframes already applied).
        self._active_ramps: List[Tuple[LinkStrengthRamp, int]] = []
        self.events_applied = 0

    # -- label bookkeeping -------------------------------------------------

    def terminal_index(self, label: str) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise SimulationError(
                f"timeline references unknown hidden terminal {label!r}; "
                f"live terminals: {self._labels}"
            ) from None

    @property
    def terminal_labels(self) -> Tuple[str, ...]:
        return tuple(self._labels)

    # -- per-subframe application ------------------------------------------

    def _build_process(self, event: HiddenNodeArrival) -> ActivityProcess:
        seed = (
            event.seed
            if event.seed is not None
            else _default_process_seed(event.label or "arrival", event.at)
        )
        rng = np.random.default_rng(seed)
        if event.activity_kind == "markov":
            return MarkovOnOffActivity(
                event.q, event.mean_busy_subframes, rng=rng
            )
        return BernoulliActivity(event.q, rng=rng)

    def _apply_event(
        self, event: TimelineEvent, update: TimelineUpdate
    ) -> None:
        if isinstance(event, HiddenNodeArrival):
            label = event.label or f"arrival@{event.at}"
            if label in self._labels:
                raise SimulationError(
                    f"duplicate hidden terminal label {label!r} at "
                    f"subframe {event.at}"
                )
            bad = [u for u in event.ues if not 0 <= u < self.topology.num_ues]
            if bad:
                raise SimulationError(
                    f"arrival {label!r} silences unknown UEs {bad}"
                )
            self.topology = self.topology.with_terminal(event.q, event.ues)
            self._labels.append(label)
            update.activity_ops.append(
                AddTerminalOp(self._build_process(event))
            )
        elif isinstance(event, HiddenNodeDeparture):
            index = self.terminal_index(event.label)
            self.topology = self.topology.without_terminal(index)
            del self._labels[index]
            update.activity_ops.append(RemoveTerminalOp(index))
        elif isinstance(event, DutyCycleDrift):
            index = self.terminal_index(event.label)
            self.topology = self.topology.with_terminal_q(index, event.q)
            update.activity_ops.append(RetuneOp(index, event.q))
        elif isinstance(event, UeJoin):
            update.joins.append(event.ue)
        elif isinstance(event, UeLeave):
            update.leaves.append(event.ue)
        elif isinstance(event, LinkStrengthRamp):
            self._active_ramps.append((event, 0))
        else:  # pragma: no cover - the union is closed
            raise SimulationError(f"unknown timeline event {event!r}")
        self.events_applied += 1

    def step(self, t: int) -> Optional[TimelineUpdate]:
        """Resolve all events due at subframe ``t``; None when quiescent."""
        if t <= self._last_t:
            raise SimulationError(
                f"timeline stepped backwards: subframe {t} after "
                f"{self._last_t}"
            )
        self._last_t = t
        update = TimelineUpdate()
        topology_before = self.topology
        events = self._timeline.events
        while self._cursor < len(events) and events[self._cursor].at <= t:
            self._apply_event(events[self._cursor], update)
            self._cursor += 1
        if self._active_ramps:
            still_active: List[Tuple[LinkStrengthRamp, int]] = []
            for ramp, done in self._active_ramps:
                per_subframe = ramp.delta_db / ramp.duration
                update.snr_delta_db[ramp.ue] = (
                    update.snr_delta_db.get(ramp.ue, 0.0) + per_subframe
                )
                if done + 1 < ramp.duration:
                    still_active.append((ramp, done + 1))
            self._active_ramps = still_active
        if self.topology is not topology_before:
            update.topology = self.topology
        return None if update.empty else update
