"""Atomic, integrity-checked per-cell checkpointing for experiment runs.

Layout of a checkpoint directory::

    manifest.json        what is being run: format version, kind
                         (grid/sweep/deploy), the full spec dict(s),
                         seeds/parameters, and the ordered cell labels —
                         enough for ``repro resume`` to finish the run
                         with no other inputs
    cell-00000.json      one completed cell: index, label, the lossless
                         result payload, and a sha256 digest of all three
    cell-00001.json      ...
    quarantine/          corrupt/torn cells moved aside by
                         :meth:`CheckpointStore.load_cell_or_quarantine`
                         so resume recomputes them instead of crashing

Durability contract (pinned by ``tests/resilience/``):

* Every write goes through
  :func:`repro.resilience.storage.atomic_write_json` — temp file +
  fsync + ``os.replace`` + directory fsync — so a kill *or power loss*
  mid-write never leaves a truncated cell, and a completed cell is
  actually on the platter, not just in the page cache.
* Every cell record carries a sha256 digest over its canonical JSON;
  loading verifies it, so silent corruption (bit rot, torn writes that
  happen to stay parseable) is detected, not propagated into results.
* The strict loaders (:meth:`~CheckpointStore.load_cell`,
  :meth:`~CheckpointStore.load_payload`) raise
  :class:`~repro.errors.CheckpointError` naming the offending path.
  The recovery loaders (``*_or_quarantine``) instead move the bad file
  into ``quarantine/``, record a :class:`QuarantinedCell`, and return
  ``None`` — the runner then recomputes exactly that cell, and the
  incident surfaces as a DEGRADED note in deploy reports and
  ``repro monitor`` rather than crashing the resume.

Results round-trip bit-exactly — Python's shortest ``repr`` float
serialization is lossless — which is what the resume-equals-fresh
regression tests (and the :mod:`repro.resilience.chaos` auditor) pin
down.

Re-running against an existing directory validates the manifest first: a
different spec, seed list, or cell ordering raises
:class:`~repro.errors.CheckpointError` rather than silently mixing
results from two different experiments.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

from repro.errors import CheckpointError
from repro.resilience.storage import atomic_write_json
from repro.sim.results import SimulationResult

__all__ = ["CheckpointStore", "QuarantinedCell"]

_MANIFEST = "manifest.json"
_CELL_PREFIX = "cell-"
_QUARANTINE_DIR = "quarantine"

#: Manifest format written by this code; version 1 (pre-digest) stores
#: remain resumable.
MANIFEST_VERSION = 2
SUPPORTED_MANIFEST_VERSIONS = (1, 2)


def _atomic_write_json(path: Path, payload: Any) -> None:
    """Durably write JSON: old file or new file, never half — and the
    completed write survives power loss (fsync file + directory)."""
    atomic_write_json(path, payload, durable=True)


def _normalize(payload: Any) -> Any:
    """Round ``payload`` through JSON so tuples/ints compare canonically."""
    return json.loads(json.dumps(payload))


def _identity(manifest: Mapping[str, Any]) -> Dict[str, Any]:
    """The manifest fields that identify a run.

    The format ``version`` is left out, so version-1 stores resume under
    version-2 code.  So are retired spec fields
    (``repro.experiments.spec.RETIRED_FIELDS``), which never changed
    results, so stores written while specs still carried them resume
    under code that no longer writes them.
    """
    from repro.experiments.spec import RETIRED_FIELDS

    def current(spec: Any) -> Any:
        if not isinstance(spec, dict):
            return spec
        return {k: v for k, v in spec.items() if k not in RETIRED_FIELDS}

    identity = {key: value for key, value in manifest.items() if key != "version"}
    if "spec" in identity:
        identity["spec"] = current(identity["spec"])
    if isinstance(identity.get("specs"), list):
        identity["specs"] = [current(spec) for spec in identity["specs"]]
    return identity


def _digest(record: Mapping[str, Any]) -> str:
    """sha256 over the canonical JSON of a record (digest field excluded)."""
    undigested = {key: value for key, value in record.items() if key != "sha256"}
    canonical = json.dumps(undigested, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class QuarantinedCell:
    """One corrupt/torn cell file moved aside instead of crashing resume."""

    index: int
    path: str
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record for reports and telemetry."""
        return {"index": self.index, "path": self.path, "reason": self.reason}

    def note(self) -> str:
        """One-line human-readable DEGRADED note."""
        return (
            f"checkpoint cell {self.index} quarantined and recomputed: "
            f"{self.reason}"
        )


class CheckpointStore:
    """One checkpoint directory: a manifest plus atomic, digested cells."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        #: Cells this instance quarantined (recovery loaders only).
        self.quarantined: List[QuarantinedCell] = []

    # -- manifest ----------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """Location of this store's ``manifest.json``."""
        return self.directory / _MANIFEST

    def initialize(self, manifest: Mapping[str, Any]) -> Dict[str, Any]:
        """Create the directory + manifest, or validate an existing one.

        Raises :class:`CheckpointError` when the directory already holds
        a manifest for a *different* run — checkpoints never mix.  The
        comparison covers the run's identity (see :func:`_identity`).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = _normalize({"version": MANIFEST_VERSION, **manifest})
        path = self.manifest_path
        if path.exists():
            stored = self.load_manifest()
            if _identity(stored) != _identity(payload):
                raise CheckpointError(
                    f"checkpoint directory {self.directory} belongs to a "
                    "different run (manifest mismatch); use a fresh "
                    "directory or resume with the original spec"
                )
            return stored
        _atomic_write_json(path, payload)
        return payload

    def load_manifest(self) -> Dict[str, Any]:
        """Read and parse the manifest; raises on absence or corruption."""
        path = self.manifest_path
        if not path.is_file():
            raise CheckpointError(
                f"no checkpoint manifest at {path}; expected a directory "
                "previously written by a --checkpoint-dir run (holding "
                "manifest.json and cell-*.json files)"
            )
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"corrupt checkpoint manifest {path}: {error}"
            ) from error
        if not isinstance(data, dict):
            raise CheckpointError(f"checkpoint manifest {path} is not an object")
        # Version-1 manifests predate the ``version`` field entirely.
        version = data.get("version", 1)
        if version not in SUPPORTED_MANIFEST_VERSIONS:
            raise CheckpointError(
                f"checkpoint manifest {path} has unsupported version "
                f"{version!r}; supported: {list(SUPPORTED_MANIFEST_VERSIONS)}"
            )
        return data

    # -- cells -------------------------------------------------------------

    def cell_path(self, index: int) -> Path:
        """File that holds (or will hold) cell ``index``."""
        return self.directory / f"{_CELL_PREFIX}{index:05d}.json"

    def _write_record(self, index: int, record: Dict[str, Any]) -> None:
        record["sha256"] = _digest(record)
        _atomic_write_json(self.cell_path(index), record)

    def _read_record(self, index: int) -> Optional[Dict[str, Any]]:
        """Load + integrity-check one cell record; ``None`` if absent.

        Raises :class:`CheckpointError` naming the offending path on a
        truncated/garbage file, a digest mismatch, or an index that does
        not match the filename.
        """
        path = self.cell_path(index)
        if not path.is_file():
            return None
        try:
            text = path.read_text()
        except OSError as error:
            raise CheckpointError(
                f"unreadable checkpoint cell {path}: {error}"
            ) from error
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"corrupt checkpoint cell {path}: {error}"
            ) from error
        if not isinstance(record, dict):
            raise CheckpointError(
                f"corrupt checkpoint cell {path}: not an object"
            )
        stored = record.get("sha256")
        if stored is not None and stored != _digest(record):
            raise CheckpointError(
                f"checkpoint cell {path} failed its sha256 integrity check "
                "(silent corruption or torn write)"
            )
        if record.get("index") != index:
            raise CheckpointError(
                f"checkpoint cell {path} claims index {record.get('index')!r}"
            )
        return record

    def save_cell(
        self,
        index: int,
        label: Sequence[Any],
        result: SimulationResult,
    ) -> None:
        """Durably persist one completed cell (with integrity digest)."""
        self._write_record(
            index,
            {"index": index, "label": list(label), "result": result.to_state()},
        )

    def load_cell(self, index: int) -> Optional[SimulationResult]:
        """The stored result for cell ``index``, or ``None`` if absent.

        Strict: raises :class:`CheckpointError` naming the path on any
        corruption.  Use :meth:`load_cell_or_quarantine` on recovery
        paths that should heal instead of crash.
        """
        record = self._read_record(index)
        if record is None:
            return None
        try:
            return SimulationResult.from_state(record["result"])
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"corrupt checkpoint cell {self.cell_path(index)}: {error}"
            ) from error

    def save_payload(self, index: int, label: Sequence[Any], payload: Any) -> None:
        """Durably persist one completed item with an arbitrary JSON payload.

        The generic sibling of :meth:`save_cell` for runners whose work
        items are not single ``SimulationResult`` objects (the deployment
        campaign checkpoints one interference *cluster* — several cells'
        results — per file).
        """
        self._write_record(
            index, {"index": index, "label": list(label), "payload": payload}
        )

    def load_payload(self, index: int) -> Optional[Any]:
        """The stored payload for item ``index``, or ``None`` if absent.

        Strict, like :meth:`load_cell`.
        """
        record = self._read_record(index)
        if record is None:
            return None
        try:
            return record["payload"]
        except KeyError as error:
            raise CheckpointError(
                f"corrupt checkpoint cell {self.cell_path(index)}: {error}"
            ) from error

    # -- quarantine --------------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt cells are moved aside."""
        return self.directory / _QUARANTINE_DIR

    def quarantine_cell(self, index: int, reason: str) -> QuarantinedCell:
        """Move a bad cell file into ``quarantine/`` and record it."""
        source = self.cell_path(index)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / source.name
        suffix = 1
        while target.exists():
            suffix += 1
            target = self.quarantine_dir / f"{source.name}.{suffix}"
        try:
            os.replace(source, target)
        except OSError:  # pragma: no cover - raced removal
            pass
        record = QuarantinedCell(index=index, path=str(target), reason=reason)
        self.quarantined.append(record)
        return record

    def _load_or_quarantine(self, index: int, loader) -> Optional[Any]:
        try:
            return loader(index)
        except CheckpointError as error:
            self.quarantine_cell(index, str(error))
            return None

    def load_cell_or_quarantine(self, index: int) -> Optional[SimulationResult]:
        """Like :meth:`load_cell`, but corrupt cells are quarantined and
        reported as ``None`` (= recompute) instead of raising."""
        return self._load_or_quarantine(index, self.load_cell)

    def load_payload_or_quarantine(self, index: int) -> Optional[Any]:
        """Like :meth:`load_payload`, but quarantines instead of raising."""
        return self._load_or_quarantine(index, self.load_payload)

    def quarantined_files(self) -> List[Path]:
        """Every file ever moved into this directory's quarantine."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(
            path for path in self.quarantine_dir.iterdir() if path.is_file()
        )

    def completed(self) -> Set[int]:
        """Indices of every cell file present in the directory."""
        indices: Set[int] = set()
        for path in self.directory.glob(f"{_CELL_PREFIX}*.json"):
            stem = path.stem[len(_CELL_PREFIX):]
            if stem.isdigit():
                indices.add(int(stem))
        return indices
