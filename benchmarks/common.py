"""Shared builders for the figure-reproduction benchmarks.

Every benchmark regenerates one table/figure of the paper: it runs the
experiment under ``pytest-benchmark`` (one timed round — the timing is the
cost of regenerating the figure), prints the same rows/series the paper
reports, and asserts the reproduction *shape* (who wins, monotonicity,
rough magnitudes).  Absolute numbers differ from the WARP testbed; shapes
must hold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (
    AccessAwareScheduler,
    BLUConfig,
    BLUController,
    CellSimulation,
    InferenceConfig,
    ProportionalFairScheduler,
    SimulationConfig,
    SpeculativeScheduler,
    TopologyJointProvider,
    testbed_topology,
    uniform_snrs,
)
from repro.core.blueprint.transform import TransformedMeasurements
from repro.sim.results import SimulationResult
from repro.topology.graph import InterferenceTopology

#: One deterministic seed family for all benchmarks.
MASTER_SEED = 2017


def exact_target(
    topology: InterferenceTopology, tolerance: float = 1e-9
) -> TransformedMeasurements:
    """Exact transformed measurements of a topology (no sampling noise)."""
    n = topology.num_ues
    return TransformedMeasurements.from_probabilities(
        n,
        {i: topology.access_probability(i) for i in range(n)},
        {
            (i, j): topology.pairwise_access_probability(i, j)
            for i in range(n)
            for j in range(i + 1, n)
        },
        default_tolerance=tolerance,
    )


def estimated_target(
    topology: InterferenceTopology,
    num_subframes: int,
    seed: int,
    z: float = 3.0,
) -> TransformedMeasurements:
    """Measurements estimated from a simulated activity trace.

    All clients are observed every subframe (the trace-based evaluation of
    Section 4.2 measures from complete traces).
    """
    from repro.core.measurement.estimator import AccessEstimator

    rng = np.random.default_rng(seed)
    estimator = AccessEstimator(topology.num_ues)
    scheduled = set(range(topology.num_ues))
    for _ in range(num_subframes):
        busy = {
            ue
            for q, ues in zip(topology.q, topology.edges)
            if rng.random() < q
            for ue in ues
        }
        estimator.record_subframe(scheduled, scheduled - busy)
    return estimator.to_transformed(z=z)


def make_testbed_cell(
    num_ues: int,
    hts_per_ue: int,
    activity: float = 0.4,
    seed: int = 3,
    snr_seed: int = 2,
) -> Tuple[InterferenceTopology, Dict[int, float]]:
    """The WARP-testbed-shaped cell used by Figs. 10-13."""
    topology = testbed_topology(
        num_ues=num_ues, hts_per_ue=hts_per_ue, activity=activity, seed=seed
    )
    return topology, uniform_snrs(num_ues, seed=snr_seed)


def standard_factories(
    topology: InterferenceTopology,
    include_blu_controller: bool = True,
    include_perfect: bool = True,
    overschedule_factor: float = 2.0,
    samples_per_pair: int = 50,
):
    """PF / AA / BLU factories against one topology."""
    provider = TopologyJointProvider(topology)
    factories = {
        "pf": ProportionalFairScheduler,
        "aa": lambda: AccessAwareScheduler(provider),
    }
    if include_perfect:
        factories["blu-perfect"] = lambda: SpeculativeScheduler(
            provider, overschedule_factor=overschedule_factor
        )
    if include_blu_controller:
        factories["blu"] = lambda: BLUController(
            topology.num_ues,
            BLUConfig(
                samples_per_pair=samples_per_pair,
                overschedule_factor=overschedule_factor,
                inference=InferenceConfig(seed=0),
            ),
        )
    return factories


def restrict_topology(
    topology: InterferenceTopology, num_ues: int
) -> InterferenceTopology:
    """Thin alias for :meth:`InterferenceTopology.restrict`."""
    return topology.restrict(num_ues)


def gain(results: Dict[str, SimulationResult], name: str, metric: str) -> float:
    base = results["pf"].summary()[metric]
    value = results[name].summary()[metric]
    return value / base if base else float("inf")


def run_cell(
    topology: InterferenceTopology,
    snrs: Dict[int, float],
    factories,
    num_subframes: int = 3000,
    num_antennas: int = 1,
    seed: int = MASTER_SEED,
    max_distinct_ues: int = 10,
) -> Dict[str, SimulationResult]:
    """Run every factory's scheduler on one seeded cell, serially."""
    config = SimulationConfig(
        num_subframes=num_subframes,
        num_antennas=num_antennas,
        max_distinct_ues=max_distinct_ues,
    )
    return {
        name: CellSimulation(topology, snrs, make(), config, seed=seed).run()
        for name, make in factories.items()
    }


def emit(capsys, text: str) -> None:
    """Print a benchmark's result table to the real terminal."""
    with capsys.disabled():
        print()
        print(text)
