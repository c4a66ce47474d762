"""Declarative experiment specs: serialize, validate, build, run.

The one-stop shape for "an experiment" across the repo:

* :class:`ExperimentSpec` — frozen, JSON-round-trippable description
  (scenario + sim config + schedulers + optional timeline + seed).
* Registries — string kinds for scenarios, SNR draws, timelines, and
  schedulers; extensible via ``register_*`` decorators.
* :func:`build_experiment` / :func:`run_experiment` — resolve a spec into
  an :class:`ExperimentPlan` and run the matched-seed comparison; with
  the grid, sweep and replication runners, the one way to run experiments
  (``n_jobs`` fans plain spec-dict work items over worker processes).
"""

from repro.experiments.build import (
    ExperimentPlan,
    build_experiment,
    resume_checkpoint,
    run_experiment,
    run_experiment_grid,
    run_experiment_replications,
    run_experiment_sweep,
)
from repro.experiments.registry import (
    BuildContext,
    build_scheduler,
    build_snrs,
    build_timeline,
    build_topology,
    register_scenario,
    register_scheduler,
    register_timeline,
    scenario_kinds,
    scheduler_kinds,
    timeline_kinds,
    timeline_blueprint_stages,
)
from repro.experiments.spec import (
    ChannelSpec,
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    TimelineSpec,
)

__all__ = [
    "BuildContext",
    "ChannelSpec",
    "ExperimentPlan",
    "ExperimentSpec",
    "ScenarioSpec",
    "SchedulerSpec",
    "TimelineSpec",
    "build_experiment",
    "build_scheduler",
    "build_snrs",
    "build_timeline",
    "build_topology",
    "register_scenario",
    "register_scheduler",
    "register_timeline",
    "resume_checkpoint",
    "run_experiment",
    "run_experiment_grid",
    "run_experiment_replications",
    "run_experiment_sweep",
    "scenario_kinds",
    "scheduler_kinds",
    "timeline_kinds",
    "timeline_blueprint_stages",
]
