"""Build and execute :class:`ExperimentSpec` objects.

``build_experiment`` resolves a spec through the registries into an
:class:`ExperimentPlan` — the concrete topology, SNR map, timeline, and
per-name scheduler builders — and the plan runs the matched-conditions
comparison.  Parallel execution ships the *spec dict* to each worker
(plain data, always picklable) and rebuilds the plan there through
:func:`~repro.resilience.supervised_map`, so results stay identical to
``n_jobs=1``.  Every entry point validates ``n_jobs`` up front.

Serial runs additionally capture the live scheduler instances on the
plan (``plan.schedulers``) so callers can inspect controller state after
the run — e.g. ``AdaptiveBLUController.metrics`` for the dynamics report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.scheduling.base import UplinkScheduler
from repro.core.scheduling.channels import build_channel_assigner
from repro.errors import CheckpointError, SpecError
from repro.experiments.registry import (
    BuildContext,
    build_scheduler,
    build_snrs,
    build_timeline,
    build_topology,
)
from repro.experiments.spec import ExperimentSpec
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.inject import FaultInjector
from repro.resilience.supervisor import (
    FailedItem,
    SupervisorConfig,
    resolve_n_jobs,
    supervised_map,
)
from repro.sim.engine import CellSimulation
from repro.sim.results import ReplicatedMetric, SimulationResult, SweepPoint
from repro.topology.graph import InterferenceTopology
from repro.topology.multichannel import MultiChannelTopology

__all__ = [
    "ExperimentPlan",
    "build_experiment",
    "resume_checkpoint",
    "run_experiment",
    "run_experiment_grid",
    "run_experiment_replications",
    "run_experiment_sweep",
]


@dataclass
class ExperimentPlan:
    """A spec resolved against the registries, ready to run."""

    spec: ExperimentSpec
    topology: InterferenceTopology
    mean_snr_db: Dict[int, float]
    timeline: Optional[object]
    #: The channel-resolved world behind ``topology`` when the spec has a
    #: channel block: the shared terminal population across the plan's
    #: channels (``multichannel``) and the per-UE channel assignment that
    #: produced the effective topology.  ``None``/``None`` for 1-channel
    #: (channel-free) specs — the engine then sees the base topology
    #: untouched.
    multichannel: Optional[MultiChannelTopology] = None
    ue_channels: Optional[Tuple[int, ...]] = None
    #: Scheduler instances captured by the most recent serial ``run()``;
    #: lets callers read post-run controller state (dynamics metrics).
    schedulers: Dict[str, UplinkScheduler] = field(default_factory=dict)

    @property
    def context(self) -> BuildContext:
        return BuildContext(
            num_ues=self.topology.num_ues,
            topology=self.topology,
            mean_snr_db=self.mean_snr_db,
            timeline=self.timeline,
        )

    def build_scheduler(self, name: str) -> UplinkScheduler:
        """A fresh scheduler instance for one named entry of the spec."""
        if name not in self.spec.schedulers:
            raise SpecError(
                f"experiment {self.spec.name!r} has no scheduler {name!r}; "
                f"has: {list(self.spec.scheduler_names)}"
            )
        return build_scheduler(self.spec.schedulers[name], self.context)

    def simulation(
        self,
        name: str,
        *,
        seed: Optional[int] = None,
        record_series: Optional[bool] = None,
        phase_timer=None,
        hooks=None,
        scheduler: Optional[UplinkScheduler] = None,
        **engine_overrides,
    ) -> CellSimulation:
        """One fully configured engine for a named scheduler entry.

        Keyword overrides exist for harness code (benchmarks re-seed runs
        and attach timers; examples attach traffic sources or
        joint activity models); experiment results themselves should come
        from :meth:`run` so the spec stays the single source of truth.
        """
        return CellSimulation(
            topology=self.topology,
            mean_snr_db=self.mean_snr_db,
            scheduler=(
                scheduler if scheduler is not None else self.build_scheduler(name)
            ),
            config=self.spec.sim,
            seed=self.spec.seed if seed is None else seed,
            record_series=(
                self.spec.record_series if record_series is None else record_series
            ),
            timeline=self.timeline,
            phase_timer=phase_timer,
            hooks=hooks,
            **engine_overrides,
        )

    def _fault_injector(self, seed: Optional[int]) -> Optional[FaultInjector]:
        """The run-level fault injector for one run's effective seed.

        Built identically in the parent and in every worker (from the
        same ``(plan, seed)``), so faulted runs stay bit-identical
        serial vs parallel.  ``None`` when the spec has no run faults.
        """
        faults = self.spec.faults
        if faults is None or not faults.has_run_faults:
            return None
        effective = self.spec.seed if seed is None else seed
        return FaultInjector(faults, seed=effective)

    def run_one(
        self, name: str, *, seed: Optional[int] = None, capture: bool = True
    ) -> SimulationResult:
        scheduler = self.build_scheduler(name)
        if capture:
            self.schedulers[name] = scheduler
        injector = self._fault_injector(seed)
        fault_hooks = None
        if injector is not None:
            fault_hooks = injector.hooks()
            attach = getattr(scheduler, "set_fault_injector", None)
            if attach is not None:
                attach(injector)
        obs = self.spec.obs
        if obs is None or not obs.enabled:
            return self.simulation(
                name, seed=seed, scheduler=scheduler, hooks=fault_hooks
            ).run()
        # Observability on: a fresh per-run session provides the hooks and
        # the active registry; its snapshot (and trace) ride on the result,
        # so worker processes ship telemetry back with their results.
        from repro.obs.session import ObsSession
        from repro.sim.stages import CompositeHooks

        session = ObsSession(
            obs,
            ue_channels=self.ue_channels,
            phase_probe=lambda: getattr(scheduler, "phase", None),
            run_label=name,
        )
        hooks = session.hooks
        if fault_hooks is not None:
            # Fault hooks run first so the metrics hooks observe the
            # faulted (consistent) world at subframe end.
            children = [fault_hooks] + (
                [hooks] if hooks is not None else []
            )
            hooks = CompositeHooks(children)
        simulation = self.simulation(
            name, seed=seed, scheduler=scheduler, hooks=hooks
        )
        with session.activate():
            result = simulation.run()
        session.finish()
        session.attach(result)
        return result

    def run(self, n_jobs: Optional[int] = 1) -> Dict[str, SimulationResult]:
        """Run every scheduler under identical seeded conditions."""
        jobs = resolve_n_jobs(n_jobs)
        names = list(self.spec.scheduler_names)
        if jobs > 1 and len(names) > 1:
            items = [(self.spec.to_dict(), name, None) for name in names]
            results = supervised_map(
                _run_spec_item, items, n_jobs=jobs, fail_fast=True
            ).results
            return dict(zip(names, results))
        return {name: self.run_one(name) for name in names}


def build_experiment(spec: ExperimentSpec) -> ExperimentPlan:
    """Resolve a spec through the registries; raises SpecError on any gap.

    With a channel block, the scenario's topology becomes the shared
    terminal population of a :class:`MultiChannelTopology`; the spec's
    assignment policy resolves per-UE channels *here* (the channel
    selection stage ahead of the RB loop), and the engine — along with
    every scheduler built from the plan's context — runs on the
    *effective* topology that assignment induces.  The effective
    topology keeps every terminal (identical engine RNG consumption),
    so a 1-channel plan is bit-exact with a channel-free spec.
    """
    topology = build_topology(spec.scenario)
    multichannel: Optional[MultiChannelTopology] = None
    ue_channels: Optional[Tuple[int, ...]] = None
    if spec.channels is not None:
        multichannel = MultiChannelTopology.from_base(
            topology,
            spec.channels.plan,
            terminal_channels=spec.channels.terminal_channels,
            terminal_margins_db=spec.channels.terminal_margins_db,
        )
        assigner = build_channel_assigner(
            spec.channels.assignment,
            channel=spec.channels.channel,
            ue_channels=spec.channels.ue_channels,
            load_penalty=spec.channels.load_penalty,
        )
        ue_channels = assigner.assign(multichannel)
        topology = multichannel.effective_topology(ue_channels)
    return ExperimentPlan(
        spec=spec,
        topology=topology,
        mean_snr_db=build_snrs(spec.scenario, topology.num_ues),
        timeline=build_timeline(spec.timeline),
        multichannel=multichannel,
        ue_channels=ue_channels,
    )


#: (spec_dict, scheduler_name, seed_override) — plain data, always picklable.
_SpecItem = Tuple[dict, str, Optional[int]]


def _run_spec_item(item: _SpecItem) -> SimulationResult:
    """Worker entry point: rebuild the plan from the spec dict and run."""
    spec_dict, name, seed = item
    plan = build_experiment(ExperimentSpec.from_dict(spec_dict))
    return plan.run_one(name, seed=seed, capture=False)


def run_experiment(
    spec: ExperimentSpec, n_jobs: Optional[int] = 1
) -> Dict[str, SimulationResult]:
    """Build and run a spec; results keyed by the spec's scheduler names."""
    return build_experiment(spec).run(n_jobs=n_jobs)


def _execute_cells(
    items: List[_SpecItem],
    pending: List[int],
    results: List[object],
    labelled: Sequence[Tuple[object, object]],
    store: Optional[CheckpointStore],
    supervisor: Optional[SupervisorConfig],
    n_jobs: Optional[int],
    worker_fault,
    telemetry=None,
    cell_labels: Optional[Sequence[str]] = None,
) -> None:
    """Run the pending cells, saving each into ``store`` as it completes.

    ``items[pos]`` corresponds to original cell index ``pending[pos]``;
    worker-fault lookups and checkpoint filenames use the *original*
    index so fault plans and cell files are stable across resumes.
    ``telemetry``/``cell_labels`` stream item lifecycle events into a
    :class:`~repro.obs.telemetry.TelemetryLog` (labels aligned with
    ``pending``).
    """
    on_result = None
    if store is not None:
        def on_result(pos: int, result) -> None:
            index = pending[pos]
            store.save_cell(index, list(labelled[index]), result)

    shifted_fault = None
    if worker_fault is not None:
        def shifted_fault(pos: int, attempt: int):
            return worker_fault(pending[pos], attempt)

    outcome = supervised_map(
        _run_spec_item,
        items,
        n_jobs=n_jobs,
        config=supervisor,
        worker_fault=shifted_fault,
        on_result=on_result,
        fail_fast=supervisor is None,
        telemetry=telemetry,
        labels=cell_labels,
    )
    for pos, result in enumerate(outcome.results):
        results[pending[pos]] = result


def _cell_label(name: object, seed: object) -> str:
    """The stable telemetry item label for one (scheduler, seed) cell."""
    return f"{name}@{seed if seed is not None else 'spec'}"


def run_experiment_grid(
    spec: ExperimentSpec,
    seeds: Sequence[Optional[int]],
    n_jobs: Optional[int] = 1,
    checkpoint_dir=None,
    supervisor: Optional[SupervisorConfig] = None,
    telemetry_dir=None,
) -> List[Tuple[str, Optional[int], SimulationResult]]:
    """Run every (scheduler, seed) combination as one flat batch.

    The raw-result primitive under replications: returns
    ``(scheduler_name, seed, result)`` triples in seed-major order,
    identical for any ``n_jobs``.  When the spec enables observability,
    each result carries its run's ``obs_snapshot``, so callers can
    :func:`~repro.obs.report.collect_snapshot` across the whole grid.

    ``checkpoint_dir`` persists one atomic result file per completed
    cell (plus a manifest); re-running the same grid loads completed
    cells from disk and computes only the missing ones, bit-identically
    to an uninterrupted run.  ``supervisor`` enables retry/timeout
    supervision; permanently failing cells come back as
    :class:`~repro.resilience.FailedItem` in the result slot instead of
    aborting the grid.
    """
    if not seeds:
        raise SpecError("need at least one seed")
    resolve_n_jobs(n_jobs)
    names = list(spec.scheduler_names)
    spec_dict = spec.to_dict()
    labelled = [(name, seed) for seed in seeds for name in names]
    results: List[object] = [None] * len(labelled)
    pending = list(range(len(labelled)))
    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        store.initialize(
            {
                "kind": "grid",
                "spec": spec_dict,
                "seeds": list(seeds),
                "cells": [[name, seed] for name, seed in labelled],
            }
        )
        for index in sorted(store.completed()):
            if index < len(labelled):
                # Corrupt cells quarantine to None and rejoin ``pending``.
                results[index] = store.load_cell_or_quarantine(index)
        pending = [i for i in range(len(labelled)) if results[i] is None]
    worker_fault = None
    if spec.faults is not None and spec.faults.has_worker_faults:
        worker_fault = FaultInjector(spec.faults, seed=spec.seed).worker_fault
    telemetry = None
    if telemetry_dir is not None:
        from repro.obs.telemetry import TelemetryLog

        telemetry = TelemetryLog.in_dir(telemetry_dir)
        telemetry.emit(
            "campaign-started",
            campaign=spec.name,
            kind="grid",
            labels=[_cell_label(name, seed) for name, seed in labelled],
            completed=[
                _cell_label(*labelled[i])
                for i in range(len(labelled))
                if i not in pending
            ] or None,
        )
        if store is not None:
            for cell in store.quarantined:
                telemetry.emit(
                    "degraded",
                    item=_cell_label(*labelled[cell.index]),
                    note=cell.note(),
                )
    items: List[_SpecItem] = [
        (spec_dict, *labelled[index]) for index in pending
    ]
    if items:
        _execute_cells(
            items, pending, results, labelled, store, supervisor, n_jobs,
            worker_fault, telemetry=telemetry,
            cell_labels=[_cell_label(*labelled[i]) for i in pending],
        )
    if telemetry is not None:
        telemetry.emit("campaign-done", campaign=spec.name)
    return [
        (name, seed, results[index])
        for index, (name, seed) in enumerate(labelled)
    ]


def run_experiment_replications(
    spec: ExperimentSpec,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    metrics: Sequence[str] = ("throughput_mbps", "rb_utilization"),
    n_jobs: Optional[int] = 1,
    checkpoint_dir=None,
    supervisor: Optional[SupervisorConfig] = None,
) -> Dict[str, Dict[str, ReplicatedMetric]]:
    """Repeat a spec over seeds; mean ± std per scheduler and metric.

    With a ``supervisor``, cells quarantined as failed are excluded from
    the aggregates (their seeds simply contribute no sample).
    """
    names = list(spec.scheduler_names)
    grid = run_experiment_grid(
        spec, seeds, n_jobs=n_jobs, checkpoint_dir=checkpoint_dir,
        supervisor=supervisor,
    )

    samples: Dict[str, Dict[str, List[float]]] = {
        name: {metric: [] for metric in metrics} for name in names
    }
    for name, _seed, result in grid:
        if result is None or isinstance(result, FailedItem):
            continue
        summary = result.summary()
        for metric in metrics:
            samples[name][metric].append(summary[metric])
    report: Dict[str, Dict[str, ReplicatedMetric]] = {}
    for name, by_metric in samples.items():
        report[name] = {}
        for metric, values in by_metric.items():
            if not values:
                report[name][metric] = ReplicatedMetric(
                    mean=float("nan"), std=0.0, samples=0
                )
                continue
            array = np.asarray(values, dtype=float)
            report[name][metric] = ReplicatedMetric(
                mean=float(array.mean()),
                std=float(array.std(ddof=1)) if len(array) > 1 else 0.0,
                samples=len(array),
            )
    return report


def run_experiment_sweep(
    specs: Sequence[ExperimentSpec],
    parameters: Optional[Sequence[object]] = None,
    n_jobs: Optional[int] = 1,
    checkpoint_dir=None,
    supervisor: Optional[SupervisorConfig] = None,
    telemetry_dir=None,
) -> List[SweepPoint]:
    """Run several specs as one flat batch of (spec, scheduler) jobs.

    ``parameters`` labels the sweep points (defaults to the spec names);
    with ``n_jobs > 1`` all runs across all points fan out together, so
    parallelism helps even when one end of the sweep dominates.

    ``checkpoint_dir``/``supervisor`` behave as in
    :func:`run_experiment_grid` (checkpointing a sweep requires the
    ``parameters`` labels to be JSON-serializable).  Cells quarantined
    by the supervisor are omitted from their point's ``results``.
    """
    if not specs:
        raise SpecError("sweep needs at least one spec")
    resolve_n_jobs(n_jobs)
    if parameters is None:
        parameters = [spec.name for spec in specs]
    if len(parameters) != len(specs):
        raise SpecError(
            f"{len(parameters)} parameters for {len(specs)} specs"
        )
    labelled: List[Tuple[int, str]] = []
    items_all: List[_SpecItem] = []
    points = [
        SweepPoint(parameter=parameter, results={}) for parameter in parameters
    ]
    for index, spec in enumerate(specs):
        spec_dict = spec.to_dict()
        for name in spec.scheduler_names:
            labelled.append((index, name))
            items_all.append((spec_dict, name, None))
    results: List[object] = [None] * len(labelled)
    pending = list(range(len(labelled)))
    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        try:
            manifest = {
                "kind": "sweep",
                "specs": [spec.to_dict() for spec in specs],
                "parameters": list(parameters),
                "cells": [[index, name] for index, name in labelled],
            }
            store.initialize(manifest)
        except (TypeError, ValueError) as error:
            raise CheckpointError(
                f"sweep parameters must be JSON-serializable to "
                f"checkpoint: {error}"
            ) from error
        for index in sorted(store.completed()):
            if index < len(labelled):
                results[index] = store.load_cell_or_quarantine(index)
        pending = [i for i in range(len(labelled)) if results[i] is None]
    telemetry = None
    sweep_labels = [
        f"{parameters[index]}/{name}" for index, name in labelled
    ]
    if telemetry_dir is not None:
        from repro.obs.telemetry import TelemetryLog

        telemetry = TelemetryLog.in_dir(telemetry_dir)
        telemetry.emit(
            "campaign-started",
            campaign=specs[0].name,
            kind="sweep",
            labels=sweep_labels,
            completed=[
                sweep_labels[i]
                for i in range(len(labelled))
                if i not in pending
            ] or None,
        )
        if store is not None:
            for cell in store.quarantined:
                telemetry.emit(
                    "degraded",
                    item=sweep_labels[cell.index],
                    note=cell.note(),
                )
    items = [items_all[index] for index in pending]
    if items:
        _execute_cells(
            items, pending, results, labelled, store, supervisor, n_jobs,
            worker_fault=None, telemetry=telemetry,
            cell_labels=[sweep_labels[i] for i in pending],
        )
    if telemetry is not None:
        telemetry.emit("campaign-done", campaign=specs[0].name)
    for (index, name), result in zip(labelled, results):
        if result is None or isinstance(result, FailedItem):
            continue
        points[index].results[name] = result
    return points


def resume_checkpoint(
    checkpoint_dir,
    n_jobs: Optional[int] = 1,
    supervisor: Optional[SupervisorConfig] = None,
    telemetry_dir=None,
):
    """Finish an interrupted checkpointed run from its manifest alone.

    Reads ``manifest.json``, rebuilds the spec(s), and re-invokes the
    matching runner with the same checkpoint directory — completed cells
    load from disk, missing cells are computed.  Returns ``("grid",
    triples)``, ``("sweep", points)``, or ``("deploy", campaign)``
    depending on what was checkpointed.
    """
    store = CheckpointStore(checkpoint_dir)
    manifest = store.load_manifest()
    kind = manifest.get("kind")
    if kind == "deploy":
        from repro.deploy.runner import resume_campaign

        return "deploy", resume_campaign(
            checkpoint_dir, n_jobs=n_jobs, supervisor=supervisor,
            telemetry_dir=telemetry_dir,
        )
    if kind == "grid":
        spec = ExperimentSpec.from_dict(manifest["spec"])
        seeds = manifest["seeds"]
        return "grid", run_experiment_grid(
            spec, seeds, n_jobs=n_jobs, checkpoint_dir=checkpoint_dir,
            supervisor=supervisor, telemetry_dir=telemetry_dir,
        )
    if kind == "sweep":
        specs = [ExperimentSpec.from_dict(entry) for entry in manifest["specs"]]
        return "sweep", run_experiment_sweep(
            specs, parameters=manifest["parameters"], n_jobs=n_jobs,
            checkpoint_dir=checkpoint_dir, supervisor=supervisor,
            telemetry_dir=telemetry_dir,
        )
    raise CheckpointError(
        f"checkpoint manifest has unknown kind {kind!r}; "
        "expected 'grid', 'sweep', or 'deploy'"
    )
