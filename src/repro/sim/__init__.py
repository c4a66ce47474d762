"""Cell-level simulation: engine, configuration, results.

Experiments — matched-seed comparisons, sweeps, replications — run
through :mod:`repro.experiments`; this package is the engine they drive.
"""

from repro.sim.config import SimulationConfig
from repro.sim.downlink import DownlinkSimulation
from repro.sim.engine import CellSimulation
from repro.sim.results import (
    ReplicatedMetric,
    SimulationResult,
    SweepPoint,
    gain_over,
)
from repro.sim.stages import (
    CompositeHooks,
    PhaseTimerHooks,
    SimHooks,
    SubframeContext,
    SubframePipeline,
    SubframeStage,
    build_subframe_pipeline,
)

__all__ = [
    "CellSimulation",
    "CompositeHooks",
    "DownlinkSimulation",
    "PhaseTimerHooks",
    "ReplicatedMetric",
    "SimHooks",
    "SimulationConfig",
    "SimulationResult",
    "SubframeContext",
    "SubframePipeline",
    "SubframeStage",
    "SweepPoint",
    "gain_over",
]
