"""Seeded storage/IO chaos rounds against the checkpoint machinery.

The promise of :mod:`repro.resilience.checkpoint` — kill the process
anywhere, corrupt any cell file, run out of disk mid-campaign, and a
resume still converges to results bit-exact with an uninterrupted run —
is adversarially exercised here instead of merely asserted.

One **chaos round** is a seeded trial against a spec:

1. derive a :class:`ChaosSchedule` from ``SeedSequence([seed, round])``
   — a kill point (which durable cell write the "process" dies before)
   and at most one storage fault (torn write, bit flip, fsync loss,
   ``ENOSPC``, ``EIO``) striking a chosen cell write;
2. run the campaign with a :class:`StorageChaos` interceptor installed
   on the :mod:`repro.resilience.storage` seam, checkpointing and
   streaming telemetry into the round directory; the kill raises
   :class:`SimulatedKill` from inside the durable-write path (after
   which the driver may also tear the telemetry log's final line, the
   residue a real ``SIGKILL`` mid-append leaves);
3. recover with :func:`~repro.experiments.build.resume_checkpoint` and
   **no** interceptor — corrupt cells are quarantined and recomputed,
   absent cells recomputed, intact cells loaded;
4. audit the directory with
   :func:`~repro.resilience.audit.audit_campaign` against a fault-free
   reference run: no lost/duplicate cells, every digest verified,
   every cell payload bit-exact with the reference, telemetry lifecycle
   consistent — plus an in-memory check that the resumed results equal
   the reference results.

Every decision draws from the round's ``SeedSequence``, so a verdict is
reproducible from ``(spec, seed)`` alone — rerunning ``repro chaos``
with the same seed replays the identical fault schedule and verdict.
The engine RNG stream is never touched: chaos perturbs only storage.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ChaosError
from repro.resilience.audit import audit_campaign
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.storage import StorageInterceptor, use_storage_interceptor

if TYPE_CHECKING:
    from repro.deploy.spec import DeploymentSpec
    from repro.experiments.spec import ExperimentSpec

__all__ = [
    "STORAGE_FAULT_KINDS",
    "ChaosRound",
    "ChaosSchedule",
    "ChaosVerdict",
    "SimulatedKill",
    "StorageChaos",
    "derive_schedule",
    "run_chaos",
]

#: Storage fault kinds a schedule can strike one cell write with.
STORAGE_FAULT_KINDS = (
    "torn-write",   # a prefix of the record lands on disk (non-atomic write)
    "bit-flip",     # the write completes, then one stored byte is flipped
    "fsync-loss",   # the write "succeeds" but nothing reaches the disk
    "enospc",       # the write raises OSError(ENOSPC) — disk full
    "eio",          # the write raises OSError(EIO) — media error
)


class SimulatedKill(BaseException):
    """Raised from inside a durable write to emulate SIGKILL at that point.

    Derives from ``BaseException`` so no library-level ``except
    Exception`` recovery path can accidentally swallow the "process
    death" — only the chaos driver catches it.
    """


@dataclass(frozen=True)
class ChaosSchedule:
    """One round's seeded fault plan, reproducible from ``(seed, round)``.

    ``kill_after_writes = k`` kills the run immediately before its
    ``k``-th durable cell write (0 = before any cell lands); ``None``
    lets the run complete.  ``fault_kind``/``fault_op`` strike the
    ``fault_op``-th cell write with one storage fault (``None`` = clean
    round).  ``tear_telemetry`` truncates the telemetry log's final line
    at the kill point — the residue of dying mid-append.
    """

    round_index: int
    kill_after_writes: Optional[int] = None
    fault_kind: Optional[str] = None
    fault_op: int = 0
    tear_telemetry: bool = False

    def __post_init__(self) -> None:
        if self.fault_kind is not None and self.fault_kind not in STORAGE_FAULT_KINDS:
            raise ChaosError(
                f"unknown storage fault kind {self.fault_kind!r}; "
                f"allowed: {list(STORAGE_FAULT_KINDS)}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dump for the machine-readable verdict report."""
        return {
            "round": self.round_index,
            "kill_after_writes": self.kill_after_writes,
            "fault_kind": self.fault_kind,
            "fault_op": self.fault_op,
            "tear_telemetry": self.tear_telemetry,
        }


def derive_schedule(
    seed: int, round_index: int, num_items: int
) -> ChaosSchedule:
    """The deterministic fault plan for one round.

    All draws come from ``SeedSequence([seed, round_index])``, so the
    schedule depends only on the chaos seed, the round, and the item
    count — never on wall clock, filesystem state, or previous rounds.
    """
    if num_items < 1:
        raise ChaosError(f"need at least one work item, got {num_items}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, round_index]))
    # ~1/(n+1) of rounds complete un-killed; the rest die before write k.
    kill_draw = int(rng.integers(0, num_items + 1))
    kill_after = None if kill_draw == num_items else kill_draw
    # Most rounds carry one storage fault; draw 0 keeps the round clean.
    fault_draw = int(rng.integers(0, len(STORAGE_FAULT_KINDS) + 1))
    fault_kind = (
        None if fault_draw == 0 else STORAGE_FAULT_KINDS[fault_draw - 1]
    )
    fault_op = int(rng.integers(0, num_items))
    tear = bool(rng.integers(0, 2)) and kill_after is not None
    return ChaosSchedule(
        round_index=round_index,
        kill_after_writes=kill_after,
        fault_kind=fault_kind,
        fault_op=fault_op,
        tear_telemetry=tear,
    )


class StorageChaos(StorageInterceptor):
    """A schedule bound to one checkpoint directory's cell writes.

    Counts durable ``cell-*.json`` writes under ``directory`` and, per
    the schedule, raises :class:`SimulatedKill` before write ``k``,
    applies the scheduled storage fault to write ``fault_op``, and logs
    everything it did into ``events`` for the round report.  Writes
    anywhere else (the manifest, other directories, telemetry appends)
    pass through untouched.
    """

    def __init__(self, schedule: ChaosSchedule, directory) -> None:
        self.schedule = schedule
        self.directory = Path(directory)
        self.writes_seen = 0
        self.fault_fired = False
        self.events: List[str] = []
        self._flip_pending: Optional[Path] = None

    def _is_cell_write(self, path: Path) -> bool:
        return path.parent == self.directory and path.name.startswith("cell-")

    def intercept_write(self, path: Path, data: str) -> bool:
        if not self._is_cell_write(path):
            return False
        op = self.writes_seen
        kill_after = self.schedule.kill_after_writes
        if kill_after is not None and op >= kill_after:
            self.events.append(f"kill before cell write {op} ({path.name})")
            raise SimulatedKill(f"simulated kill before write of {path.name}")
        kind = self.schedule.fault_kind
        if kind is not None and not self.fault_fired and op == self.schedule.fault_op:
            self.fault_fired = True
            if kind == "enospc":
                self.events.append(f"ENOSPC on {path.name}")
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            if kind == "eio":
                self.events.append(f"EIO on {path.name}")
                raise OSError(errno.EIO, "injected: I/O error")
            if kind == "torn-write":
                # A prefix lands on the *final* path: what a non-atomic
                # writer (or replace-without-data-fsync) leaves behind.
                torn = data[: max(1, len(data) // 3)]
                path.write_text(torn, encoding="utf-8")
                self.writes_seen += 1
                self.events.append(f"torn write of {path.name}")
                return True
            if kind == "fsync-loss":
                # The writer believes the cell landed; the disk disagrees.
                self.writes_seen += 1
                self.events.append(f"fsync loss of {path.name}")
                return True
            if kind == "bit-flip":
                self._flip_pending = path
        self.writes_seen += 1
        return False

    def post_write(self, path: Path) -> None:
        if self._flip_pending != path:
            return
        self._flip_pending = None
        raw = bytearray(path.read_bytes())
        if raw:
            raw[len(raw) // 2] ^= 0x01
            path.write_bytes(bytes(raw))
        self.events.append(f"bit flip in {path.name}")


def _tear_last_telemetry_line(directory: Path) -> bool:
    """Truncate the telemetry log mid-final-line (kill-during-append)."""
    from repro.obs.telemetry import TELEMETRY_FILENAME

    path = Path(directory) / TELEMETRY_FILENAME
    if not path.is_file():
        return False
    text = path.read_text(encoding="utf-8")
    stripped = text.rstrip("\n")
    if not stripped:
        return False
    last_start = stripped.rfind("\n") + 1
    last_line = stripped[last_start:]
    if len(last_line) < 2:
        return False
    torn = stripped[: last_start + len(last_line) // 2]
    path.write_text(torn, encoding="utf-8")
    return True


@dataclass
class ChaosRound:
    """One round's outcome: what was injected, what recovery did."""

    schedule: ChaosSchedule
    #: "completed", "killed", or "crashed: <error>".
    phase1: str = "completed"
    chaos_events: List[str] = field(default_factory=list)
    quarantined: int = 0
    recomputed: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether recovery restored every invariant this round."""
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready, timestamp-free (so verdicts are seed-reproducible)."""
        return {
            "schedule": self.schedule.to_dict(),
            "phase1": self.phase1,
            "chaos_events": list(self.chaos_events),
            "quarantined": self.quarantined,
            "recomputed": self.recomputed,
            "violations": list(self.violations),
            "ok": self.ok,
        }


@dataclass
class ChaosVerdict:
    """The machine-readable outcome of a whole chaos campaign."""

    spec_name: str
    kind: str
    seed: int
    num_items: int
    rounds: List[ChaosRound] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every round passed every auditor invariant."""
        return all(round_.ok for round_ in self.rounds)

    @property
    def rounds_passed(self) -> int:
        return sum(1 for round_ in self.rounds if round_.ok)

    @property
    def rounds_with_quarantine(self) -> int:
        return sum(1 for round_ in self.rounds if round_.quarantined)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready verdict; identical across reruns with one seed."""
        return {
            "spec": self.spec_name,
            "kind": self.kind,
            "seed": self.seed,
            "num_items": self.num_items,
            "rounds_total": len(self.rounds),
            "rounds_passed": self.rounds_passed,
            "rounds_with_quarantine": self.rounds_with_quarantine,
            "ok": self.ok,
            "rounds": [round_.to_dict() for round_ in self.rounds],
        }


class _Target:
    """One spec adapted to the chaos driver: run, resume, snapshot."""

    def __init__(
        self, spec: ExperimentSpec | DeploymentSpec, seeds: Tuple[int, ...]
    ) -> None:
        from repro.deploy.spec import DeploymentSpec

        self.spec = spec
        self.name = spec.name
        self.seeds = seeds
        self.is_deployment = isinstance(spec, DeploymentSpec)
        if self.is_deployment:
            from repro.deploy.model import build_deployment

            self.num_items = build_deployment(spec).num_clusters
            self.kind = "deploy"
        else:
            self.num_items = len(seeds) * len(list(spec.scheduler_names))
            self.kind = "grid"

    def run(self, checkpoint_dir, telemetry_dir=None) -> Any:
        if self.is_deployment:
            from repro.deploy.runner import run_campaign

            return run_campaign(
                self.spec, checkpoint_dir=checkpoint_dir,
                telemetry_dir=telemetry_dir,
            )
        from repro.experiments.build import run_experiment_grid

        return run_experiment_grid(
            self.spec, list(self.seeds), checkpoint_dir=checkpoint_dir,
            telemetry_dir=telemetry_dir,
        )

    def resume(self, checkpoint_dir, telemetry_dir=None) -> Any:
        from repro.experiments.build import resume_checkpoint

        _kind, payload = resume_checkpoint(
            checkpoint_dir, telemetry_dir=telemetry_dir
        )
        return payload

    @staticmethod
    def snapshot(payload: Any) -> Any:
        """A plain-data, bit-comparable view of a run's in-memory results.

        Observation payloads are stripped (see
        :func:`repro.resilience.audit.comparable_state`): they carry
        wall-clock data that legitimately differs between runs.
        """
        from repro.deploy.runner import CampaignResult
        from repro.resilience.audit import comparable_state

        if isinstance(payload, CampaignResult):
            return {
                cell_id: comparable_state(result.to_state())
                for cell_id, result in sorted(payload.cell_results.items())
            }
        return [
            (
                name,
                seed,
                comparable_state(result.to_state())
                if result is not None
                else None,
            )
            for name, seed, result in payload
        ]


def run_chaos(
    spec: ExperimentSpec | DeploymentSpec,
    rounds: int,
    seed: int,
    workdir,
    seeds: Tuple[int, ...] = (0, 1),
) -> ChaosVerdict:
    """Run ``rounds`` seeded chaos rounds against a spec; see module doc.

    ``spec`` is an ``ExperimentSpec`` (run as a ``(scheduler, seed)``
    grid over ``seeds``) or a ``DeploymentSpec`` (run as a sharded
    campaign).  ``workdir`` receives one
    ``round-NNN/`` checkpoint+telemetry directory per round plus a
    fault-free ``reference/`` the auditor compares against.
    """
    if rounds < 1:
        raise ChaosError(f"need at least one round, got {rounds}")
    target = _Target(spec, tuple(seeds))
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    reference_dir = workdir / "reference"
    reference_payload = target.run(reference_dir)
    reference_snapshot = _Target.snapshot(reference_payload)

    verdict = ChaosVerdict(
        spec_name=target.name, kind=target.kind, seed=seed,
        num_items=target.num_items,
    )
    for round_index in range(rounds):
        schedule = derive_schedule(seed, round_index, target.num_items)
        round_dir = workdir / f"round-{round_index:03d}"
        chaos = StorageChaos(schedule, round_dir)
        outcome = ChaosRound(schedule=schedule)
        killed = False
        with use_storage_interceptor(chaos):
            try:
                target.run(round_dir, telemetry_dir=round_dir)
            except SimulatedKill:
                killed = True
                outcome.phase1 = "killed"
            except OSError as error:
                # An injected disk fault escaped to the campaign driver —
                # the run dies mid-flight, like a real full disk would
                # kill it.  Recovery happens on resume, space permitting.
                outcome.phase1 = f"crashed: {error}"
        outcome.chaos_events = list(chaos.events)
        if killed and schedule.tear_telemetry:
            if _tear_last_telemetry_line(round_dir):
                outcome.chaos_events.append("tore final telemetry line")

        # Recovery, chaos off: quarantine corruption, recompute the rest.
        store = CheckpointStore(round_dir)
        before = store.completed()
        resumed_payload = target.resume(round_dir, telemetry_dir=round_dir)
        outcome.quarantined = len(CheckpointStore(round_dir).quarantined_files())
        outcome.recomputed = max(0, target.num_items - len(before)) + (
            outcome.quarantined
        )

        report = audit_campaign(
            round_dir, reference_dir=reference_dir, telemetry_dir=round_dir
        )
        outcome.violations = list(report.violations)
        if _Target.snapshot(resumed_payload) != reference_snapshot:
            outcome.violations.append(
                "resumed in-memory results differ from the fault-free "
                "reference run"
            )
        verdict.rounds.append(outcome)
    return verdict


def write_verdict(verdict: ChaosVerdict, path) -> Path:
    """Write the machine-readable verdict report as JSON; returns path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(verdict.to_dict(), indent=2) + "\n")
    return path
