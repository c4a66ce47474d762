"""End-to-end integration: the full BLU pipeline inside the simulator."""

import numpy as np
import pytest

from repro.core.blueprint.inference import InferenceConfig
from repro.core.controller import BLUConfig, BLUController, BLUPhase
from repro.core.joint.provider import TopologyJointProvider
from repro.core.scheduling import (
    AccessAwareScheduler,
    OracleScheduler,
    ProportionalFairScheduler,
    SingleUserScheduler,
    SpeculativeScheduler,
)
from repro.sim import CellSimulation, SimulationConfig
from repro.topology.graph import InterferenceTopology, edge_set_accuracy
from repro.topology.scenarios import contention_pairs, uniform_snrs
from repro.topology.scenarios import testbed_topology as make_testbed_topology
from repro.spectrum.activity import ExclusiveGroupActivity


@pytest.fixture(scope="module")
def cell():
    topology = make_testbed_topology(num_ues=8, hts_per_ue=2, activity=0.4, seed=3)
    snrs = uniform_snrs(8, seed=2)
    return topology, snrs


@pytest.fixture(scope="module")
def comparison(cell):
    topology, snrs = cell
    provider = TopologyJointProvider(topology)
    config = SimulationConfig(num_subframes=2500, num_antennas=1)
    factories = {
        "pf": ProportionalFairScheduler,
        "aa": lambda: AccessAwareScheduler(provider),
        "blu-perfect": lambda: SpeculativeScheduler(provider),
        "blu": lambda: BLUController(8, BLUConfig(samples_per_pair=40, inference=InferenceConfig(seed=0))),
        "single": SingleUserScheduler,
        "oracle": OracleScheduler,
    }
    return {
        name: CellSimulation(topology, snrs, make(), config, seed=11).run()
        for name, make in factories.items()
    }


class TestFullPipeline:
    def test_controller_reaches_speculative_phase(self, cell):
        topology, snrs = cell
        controller = BLUController(
            8, BLUConfig(samples_per_pair=40, inference=InferenceConfig(seed=0))
        )
        config = SimulationConfig(num_subframes=2500, num_antennas=1)
        CellSimulation(topology, snrs, controller, config, seed=11).run()
        assert controller.phase is BLUPhase.SPECULATIVE
        assert controller.inferred_topology is not None

    def test_controller_inference_accurate_in_situ(self, cell):
        topology, snrs = cell
        controller = BLUController(
            8,
            BLUConfig(
                samples_per_pair=800, inference=InferenceConfig(seed=0)
            ),
        )
        config = SimulationConfig(num_subframes=2500, num_antennas=1)
        CellSimulation(topology, snrs, controller, config, seed=11).run()
        # In-situ estimates are noise-limited (T samples per pair): demand
        # the majority of canonical terminals recovered, not all.
        accuracy = edge_set_accuracy(controller.inferred_topology, topology)
        assert accuracy >= 0.5

    def test_blu_beats_pf_throughput(self, comparison):
        assert (
            comparison["blu"].aggregate_throughput_mbps
            > 1.15 * comparison["pf"].aggregate_throughput_mbps
        )

    def test_blu_beats_pf_utilization(self, comparison):
        assert (
            comparison["blu"].rb_utilization
            > 1.1 * comparison["pf"].rb_utilization
        )

    def test_blu_close_to_perfect_knowledge(self, comparison):
        # The in-situ pipeline (measurement + inference) should capture most
        # of what the perfect-topology speculative scheduler achieves.
        assert (
            comparison["blu"].aggregate_throughput_mbps
            > 0.8 * comparison["blu-perfect"].aggregate_throughput_mbps
        )

    def test_oracle_is_the_ceiling(self, comparison):
        best_real = max(
            result.aggregate_throughput_mbps
            for name, result in comparison.items()
            if name != "oracle"
        )
        assert comparison["oracle"].aggregate_throughput_mbps >= best_real

    def test_pf_never_collides(self, comparison):
        assert comparison["pf"].grants_collided == 0
        assert comparison["aa"].grants_collided == 0
        assert comparison["oracle"].grants_collided == 0

    def test_single_user_conservative(self, comparison):
        result = comparison["single"]
        # One client per subframe: collisions are impossible, and blocking
        # wastes whole subframes rather than slivers.
        assert result.grants_collided == 0
        assert result.aggregate_throughput_mbps > 0.0
        # Giving up concurrency costs throughput against the oracle ceiling.
        assert (
            result.aggregate_throughput_mbps
            < comparison["oracle"].aggregate_throughput_mbps
        )

    def test_fairness_maintained(self, comparison):
        # BLU must stay in PF's fairness ballpark (paper: adheres to PF).
        assert comparison["blu"].jain_index > 0.7
        assert comparison["blu"].jain_index > comparison["pf"].jain_index - 0.25


class TestMuMimoIntegration:
    def test_mumimo_pipeline(self, cell):
        topology, snrs = cell
        provider = TopologyJointProvider(topology)
        config = SimulationConfig(num_subframes=1500, num_antennas=2)
        factories = {
            "pf": ProportionalFairScheduler,
            "blu": lambda: SpeculativeScheduler(provider),
        }
        results = {
            name: CellSimulation(topology, snrs, make(), config, seed=4).run()
            for name, make in factories.items()
        }
        assert (
            results["blu"].aggregate_throughput_mbps
            > results["pf"].aggregate_throughput_mbps
        )

    def test_mumimo_carries_more_than_siso(self, cell):
        topology, snrs = cell
        results = {}
        for antennas in (1, 2):
            config = SimulationConfig(num_subframes=1200, num_antennas=antennas)
            results[antennas] = CellSimulation(
                topology, snrs, ProportionalFairScheduler(), config, seed=5
            ).run()
        assert (
            results[2].aggregate_throughput_mbps
            > results[1].aggregate_throughput_mbps
        )


class TestContentionCoupledIntegration:
    def test_anticorrelated_interference_boosts_blu(self):
        """Fig. 15 methodology: joint access measured directly from traces
        (the empirical provider) captures the anti-correlation between
        contending hidden terminals, which the independence-based topology
        provider cannot represent — and turns it into throughput."""
        from repro.core.joint.provider import EmpiricalJointProvider

        topology = InterferenceTopology.build(
            6, [(0.55 if u % 2 == 0 else 0.35, [u]) for u in range(6)]
        )
        groups = contention_pairs(topology, seed=0)
        snrs = uniform_snrs(6, seed=1)
        config = SimulationConfig(num_subframes=2000, num_antennas=1)

        def factory(rng):
            return ExclusiveGroupActivity(list(topology.q), groups, rng=rng)

        # Record the coupled medium to estimate empirical joints.
        recorder = ExclusiveGroupActivity(
            list(topology.q), groups, rng=np.random.default_rng(42)
        )
        edges = topology.ue_edge_map()
        clear = np.ones((8000, 6), dtype=bool)
        for t in range(8000):
            active = recorder.step()
            for ue, attached in edges.items():
                if attached & active:
                    clear[t, ue] = False
        provider = EmpiricalJointProvider(clear)

        factories = {
            "pf": ProportionalFairScheduler,
            "blu": lambda: SpeculativeScheduler(provider),
        }
        results = {
            name: CellSimulation(
                topology, snrs, make(), config,
                activity_model=factory(np.random.default_rng(6)), seed=6,
            ).run()
            for name, make in factories.items()
        }
        gain = (
            results["blu"].aggregate_throughput_mbps
            / results["pf"].aggregate_throughput_mbps
        )
        assert gain > 1.2
