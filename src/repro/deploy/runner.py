"""The sharded deployment campaign runner.

A campaign simulates every cell of a deployment under its own per-cell
scheduler instance.  The unit of distribution is an **interference
cluster** (see :mod:`repro.deploy.partition`): one work item per
cluster, fanned out through the resilience layer's
:func:`~repro.resilience.supervisor.supervised_map` with per-cluster
atomic checkpoints, bounded retries, and quarantine of permanently
failing clusters.

Work items are ``(spec_dict, cluster_index)`` — plain data, always
picklable.  Each worker rebuilds the (pure-function-of-the-spec)
deployment, runs its cluster's cells in cell order against the stored
per-cell ``SeedSequence`` streams, and ships the per-cell
:class:`~repro.sim.results.SimulationResult` list back.  Because every
cell's engine stream depends only on the deployment seed tree — never on
which process or cluster shard executed it — sharded execution is
bit-identical to running all cells serially (the regression tests pin
this down).

Worker-level fault injection draws from each cluster's own
``SeedSequence`` child, so fault schedules are per-cluster-deterministic
and independent of how clusters map to processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.deploy.model import Deployment, build_deployment
from repro.deploy.partition import verify_partition
from repro.deploy.spec import DeploymentSpec
from repro.errors import CheckpointError, DeploymentError
from repro.experiments.registry import BuildContext, build_scheduler
from repro.obs.metrics import MetricsSnapshot
from repro.obs.report import collect_snapshot
from repro.resilience.checkpoint import CheckpointStore, QuarantinedCell
from repro.resilience.inject import FaultInjector
from repro.resilience.supervisor import (
    FailedItem,
    SupervisorConfig,
    resolve_n_jobs,
    supervised_map,
)
from repro.sim.engine import CellSimulation
from repro.sim.results import SimulationResult

__all__ = ["CampaignResult", "run_campaign", "resume_campaign"]

#: Manifest ``kind`` for deployment-campaign checkpoints.
DEPLOY_CHECKPOINT_KIND = "deploy"


@dataclass
class CampaignResult:
    """Everything a finished (possibly partially failed) campaign produced."""

    spec: DeploymentSpec
    deployment: Deployment
    #: Per-cell results keyed by cell id; cells of quarantined clusters
    #: are absent.
    cell_results: Dict[int, SimulationResult]
    #: Quarantined clusters keyed by cluster index.
    failed_clusters: Dict[int, FailedItem] = field(default_factory=dict)
    #: Corrupt/torn checkpoint cells that were quarantined and recomputed
    #: during this run — the campaign *degraded* but self-healed.
    quarantined_cells: List[QuarantinedCell] = field(default_factory=list)

    @property
    def num_cells(self) -> int:
        return self.deployment.num_cells

    @property
    def complete(self) -> bool:
        """True when every cell of every cluster produced a result."""
        return len(self.cell_results) == self.deployment.num_cells

    def summaries(self) -> Dict[int, Dict[str, float]]:
        """Per-cell summary metrics, keyed by cell id, in cell order."""
        return {
            cell_id: self.cell_results[cell_id].summary()
            for cell_id in sorted(self.cell_results)
        }

    def per_ue_throughput_bps(self) -> Dict[int, float]:
        """Pooled per-UE throughput under deployment-wide *global* UE ids."""
        pooled: Dict[int, float] = {}
        for cell_id in sorted(self.cell_results):
            cell = self.deployment.cells[cell_id]
            per_ue = self.cell_results[cell_id].per_ue_throughput_bps()
            for local_ue, bps in per_ue.items():
                pooled[cell.global_ue(local_ue)] = bps
        return pooled

    def report(
        self, metrics=("throughput_mbps", "rb_utilization")
    ) -> Dict[str, Any]:
        """Aggregate utilization/fairness report (see
        :func:`repro.analysis.fairness.deployment_report`)."""
        from repro.analysis.fairness import deployment_report

        report = deployment_report(
            self.summaries(), self.per_ue_throughput_bps(), metrics=metrics
        )
        report["num_clusters"] = self.deployment.num_clusters
        report["failed_clusters"] = sorted(self.failed_clusters)
        report["degraded"] = [
            cell.note() for cell in self.quarantined_cells
        ]
        report["cross_cell_hidden_terminals"] = (
            self.deployment.cross_cell_terminal_count()
        )
        return report

    def obs_snapshot(self) -> Optional[MetricsSnapshot]:
        """Deterministic merge of every cell's obs snapshot, in cell order.

        Merge order is ascending cell id — independent of cluster
        completion order or process layout — so the campaign-level
        snapshot is identical for any ``n_jobs``.
        """
        ordered = [
            self.cell_results[cell_id] for cell_id in sorted(self.cell_results)
        ]
        return collect_snapshot(ordered)

    def obs_series(self):
        """Campaign-wide time-series merge, same ordering contract as
        :meth:`obs_snapshot` (``None`` when streaming was off)."""
        from repro.obs.stream import collect_series

        ordered = [
            self.cell_results[cell_id] for cell_id in sorted(self.cell_results)
        ]
        return collect_series(ordered)


def _run_cell(deployment: Deployment, cell_id: int) -> SimulationResult:
    """Simulate one cell of a built deployment with a fresh scheduler."""
    spec = deployment.spec
    cell = deployment.cells[cell_id]
    context = BuildContext(
        num_ues=cell.num_ues,
        topology=cell.topology,
        mean_snr_db=cell.mean_snr_db,
    )
    scheduler = build_scheduler(spec.scheduler, context)
    obs = spec.obs
    session = None
    if obs is not None and obs.enabled:
        from repro.obs.session import ObsSession

        session = ObsSession(
            obs,
            phase_probe=lambda: getattr(scheduler, "phase", None),
            run_label=f"cell-{cell_id}",
        )
    simulation = CellSimulation(
        topology=cell.topology,
        mean_snr_db=cell.mean_snr_db,
        scheduler=scheduler,
        config=cell.sim_config(spec.sim),
        seed=deployment.cell_sim_seeds[cell_id],
        record_series=spec.record_series,
        hooks=session.hooks if session is not None else None,
    )
    if session is None:
        return simulation.run()
    with session.activate():
        result = simulation.run()
    session.finish()
    session.attach(result)
    return result


#: Per-process deployment cache: building a 100-cell deployment is cheap
#: but not free, and a worker may execute many cluster items of the same
#: campaign.  Keyed by the canonical spec JSON; capacity 1 (workers only
#: ever serve one campaign at a time).
_DEPLOYMENT_CACHE: Dict[str, Deployment] = {}


def _cached_deployment(spec_dict: Dict[str, Any]) -> Deployment:
    key = json.dumps(spec_dict, sort_keys=True)
    if key not in _DEPLOYMENT_CACHE:
        _DEPLOYMENT_CACHE.clear()
        _DEPLOYMENT_CACHE[key] = build_deployment(
            DeploymentSpec.from_dict(spec_dict)
        )
    return _DEPLOYMENT_CACHE[key]


#: (spec_dict, cluster_index) — plain data, always picklable.
_ClusterItem = Tuple[Dict[str, Any], int]


def _run_cluster_item(item: _ClusterItem) -> List[Dict[str, Any]]:
    """Worker entry point: run one cluster, return per-cell result states.

    Results cross the process boundary as lossless ``to_state`` dicts
    (rather than live objects) so the same payload is what checkpoints
    store — one serialization, bit-exact either way.
    """
    spec_dict, cluster_index = item
    deployment = _cached_deployment(spec_dict)
    cluster = deployment.clusters[cluster_index]
    return [_run_cell(deployment, cell_id).to_state() for cell_id in cluster]


def _cluster_fault_seed(deployment: Deployment, cluster_index: int) -> int:
    """A stable per-cluster fault seed from the deployment's seed tree."""
    return int(
        deployment.cluster_seeds[cluster_index].generate_state(1)[0]
    )


def run_campaign(
    spec: DeploymentSpec,
    n_jobs: Optional[int] = 1,
    checkpoint_dir=None,
    supervisor: Optional[SupervisorConfig] = None,
    telemetry_dir=None,
) -> CampaignResult:
    """Run a deployment campaign, sharded by interference cluster.

    ``n_jobs`` fans cluster work items over a process pool (``-1`` =
    all cores); results are bit-identical for any value.
    ``checkpoint_dir`` persists one atomic file per completed cluster
    plus a manifest, so a killed campaign resumes via
    :func:`resume_campaign` (or ``repro resume``) computing only the
    missing clusters.  ``supervisor`` enables retry/timeout supervision;
    permanently failing clusters are quarantined into
    ``CampaignResult.failed_clusters`` instead of aborting the campaign.
    ``telemetry_dir`` streams the campaign lifecycle into that
    directory's ``telemetry.jsonl`` (see :mod:`repro.obs.telemetry`) for
    ``repro monitor`` — heartbeats, retries, per-cluster completions.
    """
    resolve_n_jobs(n_jobs)
    deployment = build_deployment(spec)
    verify_partition(
        deployment.coupling_db, spec.coupling_margin_db, deployment.clusters
    )
    spec_dict = spec.to_dict()
    num_clusters = deployment.num_clusters

    cluster_states: List[Optional[List[Dict[str, Any]]]] = [None] * num_clusters
    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        store.initialize(
            {
                "kind": DEPLOY_CHECKPOINT_KIND,
                "spec": spec_dict,
                "clusters": [list(cluster) for cluster in deployment.clusters],
            }
        )
        for index in sorted(store.completed()):
            if index < num_clusters:
                # Corrupt/torn cells are quarantined (returned as None)
                # and land back in ``pending`` for recomputation.
                payload = store.load_payload_or_quarantine(index)
                if payload is not None:
                    cluster_states[index] = payload
    pending = [i for i in range(num_clusters) if cluster_states[i] is None]

    telemetry = None
    if telemetry_dir is not None:
        from repro.obs.telemetry import TelemetryLog

        telemetry = TelemetryLog.in_dir(telemetry_dir)
        telemetry.emit(
            "campaign-started",
            campaign=spec.name,
            kind=DEPLOY_CHECKPOINT_KIND,
            clusters=num_clusters,
            cells=deployment.num_cells,
            labels=[f"cluster-{i}" for i in range(num_clusters)],
            completed=[
                f"cluster-{i}"
                for i in range(num_clusters)
                if cluster_states[i] is not None
            ] or None,
        )
        if store is not None:
            for cell in store.quarantined:
                telemetry.emit(
                    "degraded", item=f"cluster-{cell.index}", note=cell.note()
                )

    failed: Dict[int, FailedItem] = {}
    if pending:
        items: List[_ClusterItem] = [(spec_dict, index) for index in pending]

        worker_fault = None
        if spec.faults is not None and spec.faults.has_worker_faults:
            def worker_fault(pos: int, attempt: int):
                cluster_index = pending[pos]
                injector = FaultInjector(
                    spec.faults,
                    seed=_cluster_fault_seed(deployment, cluster_index),
                )
                return injector.worker_fault(cluster_index, attempt)

        def on_result(pos: int, states: List[Dict[str, Any]]) -> None:
            index = pending[pos]
            if store is not None:
                store.save_payload(
                    index, list(deployment.clusters[index]), states
                )
            if telemetry is not None:
                telemetry.emit(
                    "cluster-done",
                    item=f"cluster-{index}",
                    cells=len(deployment.clusters[index]),
                )

        outcome = supervised_map(
            _run_cluster_item,
            items,
            n_jobs=n_jobs,
            config=supervisor,
            worker_fault=worker_fault,
            on_result=on_result if (store or telemetry) else None,
            fail_fast=supervisor is None,
            telemetry=telemetry,
            labels=[f"cluster-{i}" for i in pending],
        )
        for pos, states in enumerate(outcome.results):
            index = pending[pos]
            if isinstance(states, FailedItem):
                failed[index] = states
            else:
                cluster_states[index] = states

    if telemetry is not None:
        telemetry.emit(
            "campaign-done",
            campaign=spec.name,
            failed=sorted(failed) or None,
        )

    cell_results: Dict[int, SimulationResult] = {}
    for index, states in enumerate(cluster_states):
        if states is None:
            continue
        cluster = deployment.clusters[index]
        if len(states) != len(cluster):
            raise DeploymentError(
                f"cluster {index} produced {len(states)} results for "
                f"{len(cluster)} cells"
            )
        for cell_id, state in zip(cluster, states):
            cell_results[cell_id] = SimulationResult.from_state(state)

    return CampaignResult(
        spec=spec,
        deployment=deployment,
        cell_results=cell_results,
        failed_clusters=failed,
        quarantined_cells=list(store.quarantined) if store is not None else [],
    )


def resume_campaign(
    checkpoint_dir,
    n_jobs: Optional[int] = 1,
    supervisor: Optional[SupervisorConfig] = None,
    telemetry_dir=None,
) -> CampaignResult:
    """Finish an interrupted deployment campaign from its manifest alone."""
    store = CheckpointStore(checkpoint_dir)
    manifest = store.load_manifest()
    kind = manifest.get("kind")
    if kind != DEPLOY_CHECKPOINT_KIND:
        raise CheckpointError(
            f"checkpoint manifest has kind {kind!r}; expected "
            f"{DEPLOY_CHECKPOINT_KIND!r}"
        )
    spec = DeploymentSpec.from_dict(manifest["spec"])
    return run_campaign(
        spec, n_jobs=n_jobs, checkpoint_dir=checkpoint_dir,
        supervisor=supervisor, telemetry_dir=telemetry_dir,
    )
