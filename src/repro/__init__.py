"""repro — BLU: Blue-printing Interference for Robust LTE Access in
Unlicensed Spectrum (CoNEXT 2017), reproduced as a Python library.

Layers:

* ``repro.lte`` — the LTE substrate: frame structure, CQI/MCS rates,
  fading channels, the eNB node model, pilots, MU-MIMO reception.
* ``repro.spectrum`` — the unlicensed medium: CCA/sensing models, WiFi
  hidden terminals (CSMA/CA, traffic, rate adaptation), activity processes.
* ``repro.topology`` — geometry, the interference graph ``(h, q, Z)``,
  scenario generation, hidden-terminal counting.
* ``repro.core`` — BLU itself: measurement scheduling (Algorithm 1),
  access estimation, blueprint inference (Section 3.4), higher-order joint
  distributions (Section 3.6), the scheduler family (PF / access-aware /
  speculative / oracle), and the two-phase controller (Fig. 9).
* ``repro.sim`` — the cell-level simulation engine and its result types.
* ``repro.traces`` — trace recording, combination, and persistence.
* ``repro.analysis`` — CDFs and result tables.

* ``repro.experiments`` — declarative, JSON-round-trippable experiment
  specs and the registries that resolve them into runnable plans.
* ``repro.resilience`` — seeded fault injection, supervised parallel
  execution (retry/timeout/quarantine), and checkpoint/resume.

Quickstart::

    from repro import (ExperimentSpec, ScenarioSpec, SchedulerSpec,
                       SimulationConfig, run_experiment)

    results = run_experiment(ExperimentSpec(
        name="quickstart",
        scenario=ScenarioSpec(
            kind="testbed",
            params={"num_ues": 8, "hts_per_ue": 2, "activity": 0.4, "seed": 1},
            snr={"kind": "uniform", "seed": 2},
        ),
        sim=SimulationConfig(num_subframes=4000),
        schedulers={"pf": SchedulerSpec("pf"), "blu": SchedulerSpec("blu")},
    ))
    print({k: v.aggregate_throughput_mbps for k, v in results.items()})

For live objects a spec cannot serialize (a hand-built scheduler, a joint
activity model), run one engine directly: ``plan.simulation(name,
scheduler=...)`` on a built plan, or :class:`~repro.sim.CellSimulation`.
"""

from repro.core.blueprint import (
    BlueprintInference,
    InferenceConfig,
    InferenceResult,
    McmcConfig,
    McmcInference,
    TransformedMeasurements,
)
from repro.core.controller import BLUConfig, BLUController, BLUPhase
from repro.core.joint import (
    EmpiricalJointProvider,
    TopologyJointProvider,
    joint_access_probability,
)
from repro.core.measurement import (
    AccessEstimator,
    MeasurementScheduler,
    minimum_subframes,
)
from repro.core.scheduling import (
    AccessAwareDownlinkScheduler,
    AccessAwareScheduler,
    BlueprintChannelAssigner,
    OracleScheduler,
    PfAverageTracker,
    ProportionalFairScheduler,
    SchedulingContext,
    SingleUserScheduler,
    SpeculativeScheduler,
    jain_fairness_index,
)
from repro.dynamics import (
    AdaptiveBLUController,
    AdaptiveConfig,
    DynamicsMetrics,
    EnvironmentTimeline,
    FullRestartController,
    StagedBlueprintScheduler,
)
from repro.errors import (
    ChaosError,
    CheckpointError,
    ConfigurationError,
    InferenceError,
    MeasurementError,
    ReproError,
    ResilienceError,
    SchedulingError,
    SimulationError,
    SpecError,
    TopologyError,
    TraceError,
    WorkerFailure,
)
from repro.experiments import (
    ChannelSpec,
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    TimelineSpec,
    build_experiment,
    resume_checkpoint,
    run_experiment,
    run_experiment_grid,
    run_experiment_replications,
    run_experiment_sweep,
)
from repro.resilience import (
    AuditReport,
    ChaosVerdict,
    CheckpointStore,
    FailedItem,
    FaultInjector,
    FaultPlan,
    SupervisorConfig,
    audit_campaign,
    run_chaos,
    supervised_map,
)
from repro.obs import (
    EventTracer,
    MetricsRegistry,
    MetricsSnapshot,
    ObsConfig,
    merge_snapshots,
)
from repro.sim import (
    CellSimulation,
    SimulationConfig,
    SimulationResult,
    gain_over,
)
from repro.spectrum import ChannelPlan
from repro.topology import (
    InterferenceTopology,
    MultiChannelTopology,
    Scenario,
    ScenarioConfig,
    channel_drift_timeline,
    client_churn_timeline,
    duty_cycle_drift_timeline,
    edge_set_accuracy,
    fig1_topology,
    generate_scenario,
    hidden_node_churn_timeline,
    skewed_topology,
    statistically_equivalent,
    testbed_topology,
    uniform_snrs,
)

__version__ = "1.0.0"

__all__ = [
    "AccessAwareDownlinkScheduler",
    "AccessAwareScheduler",
    "AccessEstimator",
    "AdaptiveBLUController",
    "AdaptiveConfig",
    "AuditReport",
    "BLUConfig",
    "BLUController",
    "BLUPhase",
    "BlueprintChannelAssigner",
    "BlueprintInference",
    "CellSimulation",
    "ChannelPlan",
    "ChannelSpec",
    "ChaosError",
    "ChaosVerdict",
    "CheckpointError",
    "CheckpointStore",
    "ConfigurationError",
    "DynamicsMetrics",
    "EmpiricalJointProvider",
    "EnvironmentTimeline",
    "EventTracer",
    "ExperimentSpec",
    "FailedItem",
    "FaultInjector",
    "FaultPlan",
    "FullRestartController",
    "InferenceConfig",
    "InferenceError",
    "InferenceResult",
    "InterferenceTopology",
    "McmcConfig",
    "McmcInference",
    "MeasurementError",
    "MeasurementScheduler",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MultiChannelTopology",
    "ObsConfig",
    "OracleScheduler",
    "PfAverageTracker",
    "ProportionalFairScheduler",
    "ReproError",
    "ResilienceError",
    "Scenario",
    "ScenarioConfig",
    "ScenarioSpec",
    "SchedulerSpec",
    "SchedulingContext",
    "SchedulingError",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "SingleUserScheduler",
    "SpecError",
    "SpeculativeScheduler",
    "StagedBlueprintScheduler",
    "SupervisorConfig",
    "TimelineSpec",
    "TopologyError",
    "TopologyJointProvider",
    "TraceError",
    "TransformedMeasurements",
    "WorkerFailure",
    "audit_campaign",
    "build_experiment",
    "channel_drift_timeline",
    "client_churn_timeline",
    "duty_cycle_drift_timeline",
    "edge_set_accuracy",
    "fig1_topology",
    "gain_over",
    "generate_scenario",
    "hidden_node_churn_timeline",
    "jain_fairness_index",
    "joint_access_probability",
    "merge_snapshots",
    "minimum_subframes",
    "resume_checkpoint",
    "run_chaos",
    "run_experiment",
    "run_experiment_grid",
    "run_experiment_replications",
    "run_experiment_sweep",
    "skewed_topology",
    "statistically_equivalent",
    "supervised_map",
    "testbed_topology",
    "uniform_snrs",
    "__version__",
]
