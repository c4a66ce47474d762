"""Integration: the paper's trace-based emulation methodology (Section 4.2).

Collect traces from several small "testbed" topologies, splice them into a
large emulated cell (merge_ue_populations / merge_interference_layers), and
run the inference + scheduling machinery against the emulated traces.
"""

import numpy as np
import pytest

from repro import (
    BlueprintInference,
    CellSimulation,
    EmpiricalJointProvider,
    InferenceConfig,
    ProportionalFairScheduler,
    SimulationConfig,
    SpeculativeScheduler,
    edge_set_accuracy,
)
from repro.core.measurement.estimator import AccessEstimator
from repro.topology.scenarios import testbed_topology as make_testbed_topology
from repro.traces.collect import collect_topology_trace
from repro.traces.combine import merge_interference_layers, merge_ue_populations


def small_trace(seed, num_ues=8, subframes=5000, hts_per_ue=2, activity=0.5):
    topology = make_testbed_topology(
        num_ues=num_ues, hts_per_ue=hts_per_ue, activity=activity, seed=seed
    )
    return collect_topology_trace(
        topology,
        {u: 25.0 for u in range(num_ues)},
        subframes,
        seed=seed,
        record_channels=False,
        label=f"cell{seed}",
    )


@pytest.fixture(scope="module")
def emulated_24ue():
    """Three 8-UE recordings spliced into one 24-UE emulated topology."""
    return merge_ue_populations([small_trace(s) for s in (1, 2, 3)])


class TestEmulatedInference:
    def test_inference_on_emulated_cell(self, emulated_24ue):
        trace = emulated_24ue
        estimator = AccessEstimator(trace.topology.num_ues)
        clear = trace.clear_matrix()
        scheduled = set(range(trace.topology.num_ues))
        for t in range(trace.num_subframes):
            accessed = {u for u in scheduled if clear[t, u]}
            estimator.record_subframe(scheduled, accessed)
        result = BlueprintInference(InferenceConfig(seed=0)).infer(
            estimator.to_transformed()
        )
        accuracy = edge_set_accuracy(result.topology, trace.topology)
        assert accuracy >= 0.8

    def test_emulated_marginals_match_truth(self, emulated_24ue):
        trace = emulated_24ue
        clear = trace.clear_matrix()
        for ue in range(trace.topology.num_ues):
            expected = trace.topology.access_probability(ue)
            assert clear[:, ue].mean() == pytest.approx(expected, abs=0.05)


class TestEmulatedScheduling:
    def test_blu_wins_on_emulated_cell(self, emulated_24ue):
        trace = emulated_24ue
        provider = EmpiricalJointProvider(trace.clear_matrix())
        config = SimulationConfig(num_subframes=2000, max_distinct_ues=10)
        factories = {
            "pf": ProportionalFairScheduler,
            "blu": lambda: SpeculativeScheduler(provider),
        }
        results = {
            name: CellSimulation(
                trace.topology, trace.mean_snr_db, make(), config, seed=4
            ).run()
            for name, make in factories.items()
        }
        assert (
            results["blu"].aggregate_throughput_mbps
            > 1.2 * results["pf"].aggregate_throughput_mbps
        )


class TestLayerMergedEmulation:
    def test_layered_interference_increases_blocking(self):
        base = small_trace(5, num_ues=6, subframes=4000, hts_per_ue=1)
        layered = merge_interference_layers(
            [base, small_trace(6, num_ues=6, subframes=4000, hts_per_ue=1)]
        )
        base_clear = base.clear_matrix().mean()
        layered_clear = layered.clear_matrix().mean()
        assert layered_clear < base_clear

    def test_layered_inference_recovers_union(self):
        traces = [
            small_trace(7, num_ues=6, subframes=6000, hts_per_ue=1),
            small_trace(8, num_ues=6, subframes=6000, hts_per_ue=1),
        ]
        merged = merge_interference_layers(traces)
        estimator = AccessEstimator(6)
        clear = merged.clear_matrix()
        scheduled = set(range(6))
        for t in range(merged.num_subframes):
            estimator.record_subframe(
                scheduled, {u for u in scheduled if clear[t, u]}
            )
        result = BlueprintInference(InferenceConfig(seed=0)).infer(
            estimator.to_transformed()
        )
        accuracy = edge_set_accuracy(result.topology, merged.topology)
        assert accuracy >= 0.6
