"""Acceptance: end-to-end online adaptation under hidden-node churn.

A hidden WiFi node appears mid-run and starts interfering with two
clients.  The adaptive controller — which was never told the change time —
must detect the drift, re-measure only the affected pairs, warm-restart
inference, and recover at least 90% of the post-change utilization that a
full from-scratch re-blueprint (given oracle knowledge of *when* to
restart) achieves, while spending measurably fewer measurement subframes.
"""

import pytest

from repro import (
    AdaptiveBLUController,
    BLUConfig,
    CellSimulation,
    FullRestartController,
    InferenceConfig,
    SimulationConfig,
    hidden_node_churn_timeline,
    uniform_snrs,
)
from repro import testbed_topology as build_testbed
from repro.analysis.dynamics import recovery_ratio, windowed_utilization

NUM_UES = 6
ARRIVE_AT = 4000
SUBFRAMES = 12000
ARRIVAL_Q = 0.45
AFFECTED = (0, 1)


@pytest.fixture(scope="module")
def churn_run():
    topology = build_testbed(
        num_ues=NUM_UES, hts_per_ue=1, activity=0.25, seed=0
    )
    snrs = uniform_snrs(NUM_UES, seed=1)
    timeline = hidden_node_churn_timeline(
        arrive_at=ARRIVE_AT, q=ARRIVAL_Q, ues=AFFECTED
    )
    blu_config = BLUConfig(inference=InferenceConfig(seed=0))
    controllers = {}

    def adaptive_factory():
        controller = AdaptiveBLUController(NUM_UES, blu_config)
        controllers["adaptive"] = controller
        return controller

    factories = {
        "adaptive": adaptive_factory,
        "restart": lambda: FullRestartController(
            NUM_UES, blu_config, restart_at=ARRIVE_AT
        ),
    }
    config = SimulationConfig(num_subframes=SUBFRAMES)
    results = {
        name: CellSimulation(
            topology, snrs, make(), config,
            seed=0, record_series=True, timeline=timeline,
        ).run()
        for name, make in factories.items()
    }
    return results, controllers["adaptive"].metrics


class TestChurnAdaptation:
    def test_change_detected_after_arrival(self, churn_run):
        _, metrics = churn_run
        assert metrics.detections == 1
        event = metrics.events[0]
        assert event.detected_subframe >= ARRIVE_AT
        assert event.completed
        # Detection is prompt (well inside the post-change window).
        assert metrics.detection_delay(ARRIVE_AT) < 1500

    def test_affected_clients_flagged(self, churn_run):
        _, metrics = churn_run
        assert metrics.events[0].drifted_ues & set(AFFECTED)

    def test_partial_remeasure_is_cheaper_than_full_campaign(self, churn_run):
        _, metrics = churn_run
        assert metrics.full_measurement_subframes > 0
        assert (
            0
            < metrics.partial_measurement_subframes
            < metrics.full_measurement_subframes
        )

    def test_recovers_90pct_of_full_restart_utilization(self, churn_run):
        results, _ = churn_run
        adaptive, restart = results["adaptive"], results["restart"]
        series_len = len(adaptive.utilization_series)
        start = ARRIVE_AT * series_len // SUBFRAMES
        ratio = recovery_ratio(adaptive, restart, start=start)
        assert ratio >= 0.9
        # Sanity: the adaptive run ends at a usable post-change utilization
        # (the new terminal holds the channel q=0.45 of the time, so the
        # ceiling itself is well below the quiet-world level).
        assert windowed_utilization(adaptive, start=start) > 0.4
