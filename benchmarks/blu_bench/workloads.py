"""The four benchmark workloads: seeded inputs and one timed repetition.

Each workload turns ``--seed`` into concrete inputs through
``numpy.random.SeedSequence([seed, workload index])`` and then touches
only public ``repro`` API: specs, ``build_experiment``,
``ExperimentPlan.simulation``, ``run_campaign``, ``resume_campaign`` and
``audit_campaign``.

Structure is fixed and the seed draws the realization, so every seed
runs comparable work.  A cell workload runs one cell, always with the
``skewed`` hidden-terminal topology of seed 3 (topology sets how hard the
blueprint is to infer and how large the speculative groups grow); the
benchmark seed draws ``VARIANTS`` input variants of it, each with its own
SNRs, engine random streams and churning-node activity, and successive
repetitions run the variants in turn.  How long one variant takes varies
with its draw (the blueprint solver's by about 11%), so a run times many
draws rather than one.  The campaign always deploys seed 3 (its
cluster sizes set how well two workers balance); the benchmark seed
draws which half of the clusters the resume recomputes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

DEFAULT_SEED = 2017
WORKLOADS = ("cell-pf", "cell-blu", "cell-blu-churn", "campaign")
#: Campaign worker processes: the 2-core machine the baseline ran on.
CAMPAIGN_JOBS = 2
#: Input variants of a cell workload per seed; repetition ``r`` runs
#: variant ``r % VARIANTS``.
VARIANTS = 8


@dataclass(frozen=True)
class CellSize:
    scheduler: str
    num_ues: int
    num_terminals: int
    num_rbs: int
    num_antennas: int
    subframes: int
    #: Replay a hidden node arriving at 1/4 and leaving at 3/4 of the run.
    churn: bool = False


#: ``(full, smoke)`` sizes per cell workload.  One cell of at most about
#: two seconds, so that a run repeats it ten times or more and its median
#: covers every variant.
CELL_SIZES: Dict[str, Tuple[CellSize, CellSize]] = {
    "cell-pf": (
        CellSize("pf", 20, 6, 20, 4, 2500),
        CellSize("pf", 20, 6, 20, 4, 300),
    ),
    # 10 RBs keep the engine and speculative scheduling small next to
    # the blueprint inference that ends the measurement phase.
    "cell-blu": (
        CellSize("blu", 28, 7, 10, 4, 1200),
        CellSize("blu", 8, 3, 10, 2, 300),
    ),
    # Long enough that the hidden node arrives after the post-blueprint
    # cooldown, so the cell re-infers on arrival and on departure.
    "cell-blu-churn": (
        CellSize("blu-adaptive", 12, 4, 20, 4, 3000, churn=True),
        CellSize("blu-adaptive", 8, 3, 10, 2, 1200, churn=True),
    ),
}

#: ``(full, smoke)`` campaign sizes: cells, square side (same density),
#: subframes per cell.
CAMPAIGN_SIZES = ((100, 2800.0, 400), (12, 970.0, 400))

#: Subframes per cell of the untimed warm-up run (first calls are slower):
#: one cell, or every cell of the campaign.
WARMUP_SUBFRAMES = 300
WARMUP_CAMPAIGN_SUBFRAMES = 50


def derived_seeds(seed: int, workload: str, count: int, *key: int) -> List[int]:
    """``count`` input seeds for ``workload`` (and ``key``, such as a
    variant) from the benchmark seed."""
    sequence = np.random.SeedSequence([seed, WORKLOADS.index(workload), *key])
    return [int(value) for value in sequence.generate_state(count)]


def digest(states) -> str:
    """sha256 over canonical JSON of results with observation payloads
    (wall-clock data) stripped."""
    from repro.resilience.audit import comparable_state

    canonical = json.dumps(
        comparable_state(states), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cell_spec(workload: str, seed: int, smoke: bool, variant: int):
    """The :class:`~repro.experiments.ExperimentSpec` of one variant."""
    from repro.experiments import (
        ExperimentSpec, ScenarioSpec, SchedulerSpec, TimelineSpec,
    )
    from repro.sim.config import SimulationConfig

    size = CELL_SIZES[workload][1 if smoke else 0]
    snr_seed, engine_seed, churn_seed = derived_seeds(seed, workload, 3, variant)
    timeline = None
    if size.churn:
        timeline = TimelineSpec("hidden-node-churn", {
            "arrive_at": size.subframes // 4,
            "depart_at": 3 * size.subframes // 4,
            "q": 0.5,
            "ues": [0, 1],
            "label": "bench-late",
            "seed": churn_seed,
        })
    return ExperimentSpec(
        name=workload,
        scenario=ScenarioSpec(
            kind="skewed",
            params={"num_ues": size.num_ues,
                    "num_terminals": size.num_terminals,
                    "seed": 3},
            snr={"kind": "uniform", "seed": snr_seed},
        ),
        sim=SimulationConfig(
            num_subframes=size.subframes,
            num_rbs=size.num_rbs,
            num_antennas=size.num_antennas,
        ),
        schedulers={size.scheduler: SchedulerSpec(size.scheduler)},
        timeline=timeline,
        seed=engine_seed,
    )


def campaign_spec(smoke: bool, subframes: Optional[int] = None):
    """The 10-UE-per-cell PPP deployment, observed like ``repro deploy
    --obs --stream``."""
    from repro.deploy import DeploymentSpec, PlacementSpec
    from repro.obs import ObsConfig
    from repro.sim.config import SimulationConfig

    num_cells, area_m, full_subframes = CAMPAIGN_SIZES[1 if smoke else 0]
    return DeploymentSpec(
        name="blu-bench-campaign",
        placement=PlacementSpec("ppp", {"num_cells": num_cells, "area_m": area_m}),
        ues_per_cell=10,
        wifi_per_cell=2,
        sim=SimulationConfig(num_subframes=subframes or full_subframes),
        seed=3,
        obs=ObsConfig(enabled=True, stream=True),
    )


class CellWorkload:
    """Repeated runs of one cell, variant after variant."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        self.size = CELL_SIZES[name][1 if smoke else 0]
        self.specs = [cell_spec(name, seed, smoke, v) for v in range(VARIANTS)]
        self.plans: list = []

    def setup(self) -> None:
        from repro.experiments import build_experiment

        self.plans = [build_experiment(spec) for spec in self.specs]

    def warm_up(self) -> None:
        from dataclasses import replace

        from repro.experiments import build_experiment

        spec = self.specs[0]
        short = spec.replace(sim=replace(spec.sim, num_subframes=WARMUP_SUBFRAMES))
        build_experiment(short).simulation(self.size.scheduler).run()

    def run(self, variant: int):
        """Build one variant's engine and run it; returns the result."""
        return self.plans[variant].simulation(self.size.scheduler).run()


class CampaignWorkload:
    """Fresh checkpointed campaign, optionally a resume of half of it."""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.spec = campaign_spec(smoke)
        self.warm_spec = campaign_spec(smoke, subframes=WARMUP_CAMPAIGN_SUBFRAMES)
        self.seed = seed
        self.workdir = workdir
        self.deployment = None
        #: Clusters whose checkpoint files the resume deletes.
        self.recomputed: List[int] = []

    def setup(self) -> None:
        from repro.deploy import build_deployment, verify_partition

        self.deployment = build_deployment(self.spec)
        verify_partition(
            self.deployment.coupling_db,
            self.spec.coupling_margin_db,
            self.deployment.clusters,
        )
        clusters = self.deployment.num_clusters
        rng = np.random.default_rng(derived_seeds(self.seed, "campaign", 1))
        self.recomputed = sorted(
            int(i) for i in rng.choice(clusters, clusters // 2, replace=False)
        )

    def warm_up(self) -> None:
        from repro.deploy import run_campaign

        directory = self.workdir / "warm-up"
        shutil.rmtree(directory, ignore_errors=True)
        run_campaign(self.warm_spec, n_jobs=CAMPAIGN_JOBS,
                     checkpoint_dir=directory, telemetry_dir=directory)
        shutil.rmtree(directory, ignore_errors=True)

    def rep(self, tag: str, n_jobs: int, resume: bool, section=None) -> dict:
        """One repetition; ``section(fn, ...)`` wraps each timed part.

        Returns the fresh campaign, its wall time and interval, and its
        directories; with
        ``resume`` also the resumed campaign, its wall time and the
        resume audit.
        """
        from repro.deploy import resume_campaign, run_campaign
        from repro.resilience import CheckpointStore, audit_campaign

        section = section or (lambda fn, *args, **kwargs: fn(*args, **kwargs))
        fresh = self.workdir / f"{tag}-fresh"
        resumed = self.workdir / f"{tag}-resumed"
        for directory in (fresh, resumed):
            shutil.rmtree(directory, ignore_errors=True)

        def fresh_campaign():
            campaign = run_campaign(self.spec, n_jobs=n_jobs,
                                    checkpoint_dir=fresh, telemetry_dir=fresh)
            # What ``repro deploy --obs --stream`` reports after the run.
            campaign.obs_snapshot()
            campaign.obs_series()
            return campaign

        start = perf_counter()
        campaign = section(fresh_campaign)
        end = perf_counter()
        out = {
            "campaign": campaign,
            "fresh_interval": (start, end),
            "fresh_s": end - start,
            "fresh_dir": fresh,
            "resumed_dir": resumed,
        }
        if not resume:
            return out
        shutil.copytree(fresh, resumed)
        store = CheckpointStore(resumed)
        for index in self.recomputed:
            store.cell_path(index).unlink()
        start = perf_counter()
        out["resumed"] = section(resume_campaign, resumed, n_jobs=n_jobs,
                                 telemetry_dir=resumed)
        out["resume_s"] = perf_counter() - start
        out["audit"] = audit_campaign(resumed, reference_dir=fresh,
                                      telemetry_dir=resumed)
        return out

    @staticmethod
    def cell_states(campaign) -> list:
        return [
            campaign.cell_results[cell_id].to_state()
            for cell_id in sorted(campaign.cell_results)
        ]
