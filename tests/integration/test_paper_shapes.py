"""Paper-shape regression tests: small/fast versions of the headline claims.

Each test pins the *shape* of one paper result (who wins, monotonicity,
rough magnitude) at reduced scale so the suite stays fast; the full-scale
reproductions live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.analysis.cdf import fraction_at_least
from repro.core.blueprint.inference import BlueprintInference, InferenceConfig
from repro.core.joint.provider import TopologyJointProvider
from repro.core.measurement.pair_scheduler import (
    minimum_subframes,
    tuple_measurement_subframes,
)
from repro.core.scheduling import ProportionalFairScheduler, SpeculativeScheduler
from repro.sim import CellSimulation, SimulationConfig
from repro.spectrum.cca import LTE_ENERGY_SENSING, WIFI_PREAMBLE_SENSING
from repro.topology.generator import ScenarioConfig, generate_scenario
from repro.topology.graph import edge_set_accuracy
from repro.topology.hidden import compare_wifi_vs_lte_cell
from repro.topology.scenarios import uniform_snrs
from repro.topology.scenarios import testbed_topology as make_testbed_topology


def exact_target(topology, tolerance=1e-9):
    from repro.core.blueprint.transform import TransformedMeasurements

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


class TestFig4aShape:
    """Utilization loss grows with hidden terminals, exceeding 50%."""

    def test_loss_monotone_and_severe(self):
        losses = []
        for hts in (0, 1, 3):
            topology = make_testbed_topology(
                num_ues=8, hts_per_ue=hts, activity=0.45, seed=2
            )
            config = SimulationConfig(num_subframes=1200, num_rbs=8)
            result = CellSimulation(
                topology,
                uniform_snrs(8, seed=1),
                ProportionalFairScheduler(),
                config,
                seed=3,
            ).run()
            losses.append(result.utilization_loss)
        assert losses[0] < 0.2  # no hidden terminals: nearly no loss
        assert losses[0] < losses[1] < losses[2]
        assert losses[2] > 0.5  # the paper's "well over 50%"


class TestFig4cShape:
    """LTE energy sensing faces ~2x+ the hidden terminals of WiFi sensing."""

    def test_aggregate_ratio(self):
        wifi_total, lte_total = 0, 0
        for seed in range(15):
            scenario = generate_scenario(
                ScenarioConfig(num_ues=5, num_wifi=20), seed=seed
            )
            comparison = compare_wifi_vs_lte_cell(
                scenario.layout, scenario.powers
            )
            wifi_total += comparison.wifi_cell_count
            lte_total += comparison.lte_cell_count
        assert lte_total >= 2 * max(wifi_total, 1)


class TestFig14Shape:
    """Topology inference: median accuracy ~100%, >=90% for most cases."""

    def test_inference_accuracy_distribution(self):
        inference = BlueprintInference(InferenceConfig(seed=0))
        accuracies = []
        for seed in range(12):
            scenario = generate_scenario(
                ScenarioConfig(num_ues=10, num_wifi=14), seed=seed
            )
            if scenario.topology.num_terminals == 0:
                continue
            result = inference.infer(exact_target(scenario.topology))
            accuracies.append(
                edge_set_accuracy(result.topology, scenario.topology)
            )
        assert np.median(accuracies) == 1.0
        assert fraction_at_least(accuracies, 0.9) >= 0.9


class TestFig15to18Shape:
    """BLU > PF in throughput and utilization; AA cannot fix utilization."""

    @pytest.fixture(scope="class")
    def results(self):
        topology = make_testbed_topology(
            num_ues=10, hts_per_ue=2, activity=0.4, seed=7
        )
        provider = TopologyJointProvider(topology)
        from repro.core.scheduling import AccessAwareScheduler

        snrs = uniform_snrs(10, seed=3)
        config = SimulationConfig(num_subframes=2500, num_rbs=10)
        factories = {
            "pf": ProportionalFairScheduler,
            "aa": lambda: AccessAwareScheduler(provider),
            "blu": lambda: SpeculativeScheduler(provider),
        }
        return {
            name: CellSimulation(topology, snrs, make(), config, seed=9).run()
            for name, make in factories.items()
        }

    def test_blu_throughput_gain(self, results):
        gain = (
            results["blu"].aggregate_throughput_mbps
            / results["pf"].aggregate_throughput_mbps
        )
        assert gain > 1.3

    def test_blu_utilization_gain(self, results):
        gain = results["blu"].rb_utilization / results["pf"].rb_utilization
        assert gain > 1.25

    def test_blu_beats_aa(self, results):
        assert (
            results["blu"].aggregate_throughput_mbps
            > results["aa"].aggregate_throughput_mbps
        )

    def test_aa_cannot_overschedule(self, results):
        # AA's utilization stays well below BLU's (Fig. 18: "AA ... cannot
        # improve spectrum utilization" the way BLU does).
        assert results["aa"].rb_utilization < results["blu"].rb_utilization


class TestFig17Shape:
    """BLU's gain grows with MIMO degrees of freedom."""

    def test_gain_grows_with_m(self):
        topology = make_testbed_topology(
            num_ues=10, hts_per_ue=2, activity=0.4, seed=7
        )
        snrs = uniform_snrs(10, seed=3)
        provider = TopologyJointProvider(topology)
        factories = {
            "pf": ProportionalFairScheduler,
            "blu": lambda: SpeculativeScheduler(provider),
        }
        gains = {}
        for antennas in (1, 2):
            config = SimulationConfig(num_subframes=1500, num_antennas=antennas)
            results = {
                name: CellSimulation(
                    topology, snrs, make(), config, seed=9
                ).run()
                for name, make in factories.items()
            }
            gains[antennas] = (
                results["blu"].aggregate_throughput_mbps
                / results["pf"].aggregate_throughput_mbps
            )
        assert gains[1] > 1.2
        assert gains[2] > 1.2


class TestOverheadShape:
    """Measurement overhead: pair-wise is quadratic, constant in M."""

    def test_paper_overhead_numbers(self):
        # Section 3.7: N=20, T=50, K=8 -> t_max ~ 340 subframes.
        assert minimum_subframes(20, 8, 50) == 340
        # Section 3.3: the 6-tuple alternative needs ~1384*T.
        assert tuple_measurement_subframes(20, 6, 8, 50) >= 1384 * 50

    def test_pairwise_overhead_independent_of_antennas(self):
        # Nothing in the pair-wise bound references M: scheduling 1, 2 or 4
        # antennas needs the identical measurement budget.
        for n in (10, 20):
            assert minimum_subframes(n, 8, 50) == minimum_subframes(n, 8, 50)
