"""Unit tests: the environment timeline and its per-run runtime."""

import numpy as np
import pytest

from repro.dynamics.timeline import (
    AddTerminalOp,
    DutyCycleDrift,
    EnvironmentTimeline,
    HiddenNodeArrival,
    HiddenNodeDeparture,
    LinkStrengthRamp,
    RemoveTerminalOp,
    RetuneOp,
    UeJoin,
    UeLeave,
)
from repro.errors import ConfigurationError, SimulationError
from repro.sim.config import SimulationConfig
from repro.sim.engine import CellSimulation
from repro.topology.graph import InterferenceTopology
from repro.topology.scenarios import (
    client_churn_timeline,
    duty_cycle_drift_timeline,
    hidden_node_churn_timeline,
    uniform_snrs,
)
from repro.topology.scenarios import testbed_topology as build_testbed
from tests.reference import ReferenceCellSimulation


@pytest.fixture
def topo():
    return InterferenceTopology.build(3, [(0.3, [0]), (0.4, [1, 2])])


class TestEventValidation:
    def test_arrival_q_range(self):
        with pytest.raises(ConfigurationError):
            HiddenNodeArrival(at=10, q=1.0, ues=(0,))

    def test_arrival_activity_kind(self):
        with pytest.raises(ConfigurationError):
            HiddenNodeArrival(at=10, q=0.3, ues=(0,), activity_kind="pareto")

    def test_drift_q_range(self):
        with pytest.raises(ConfigurationError):
            DutyCycleDrift(at=10, label="ht0", q=-0.1)

    def test_ramp_duration(self):
        with pytest.raises(ConfigurationError):
            LinkStrengthRamp(at=10, ue=0, delta_db=-3.0, duration=0)

    def test_negative_subframe_rejected(self):
        with pytest.raises(ConfigurationError):
            EnvironmentTimeline([UeLeave(at=-1, ue=0)])


class TestTimeline:
    def test_events_sorted_by_subframe(self):
        timeline = EnvironmentTimeline(
            [UeLeave(at=300, ue=0), UeJoin(at=100, ue=0)]
        )
        assert [e.at for e in timeline.events] == [100, 300]

    def test_structural_flag(self):
        assert not EnvironmentTimeline(
            [UeLeave(at=5, ue=0)]
        ).has_structural_events
        assert EnvironmentTimeline(
            [HiddenNodeArrival(at=5, q=0.2, ues=(0,))]
        ).has_structural_events

    def test_horizon_includes_ramp_duration(self):
        timeline = EnvironmentTimeline(
            [LinkStrengthRamp(at=100, ue=0, delta_db=-6.0, duration=250)]
        )
        assert timeline.horizon() == 350


class TestRuntime:
    def test_quiescent_steps_return_none(self, topo):
        runtime = EnvironmentTimeline(
            [UeLeave(at=5, ue=1)]
        ).runtime(topo)
        assert runtime.step(0) is None
        update = runtime.step(5)
        assert update.leaves == [1]

    def test_monotonic_guard(self, topo):
        runtime = EnvironmentTimeline([]).runtime(topo)
        runtime.step(3)
        with pytest.raises(SimulationError):
            runtime.step(3)

    def test_arrival_derives_new_topology(self, topo):
        runtime = EnvironmentTimeline(
            [HiddenNodeArrival(at=7, q=0.5, ues=(0, 2), label="late")]
        ).runtime(topo)
        update = runtime.step(7)
        assert update.topology is runtime.topology
        assert update.topology.num_terminals == topo.num_terminals + 1
        assert update.topology.q[-1] == 0.5
        assert update.topology.edges[-1] == frozenset({0, 2})
        assert isinstance(update.activity_ops[0], AddTerminalOp)
        assert runtime.terminal_labels == ("ht0", "ht1", "late")

    def test_departure_resolves_label_to_index(self, topo):
        runtime = EnvironmentTimeline(
            [HiddenNodeDeparture(at=4, label="ht0")]
        ).runtime(topo)
        update = runtime.step(4)
        assert update.topology.num_terminals == topo.num_terminals - 1
        assert update.activity_ops == [RemoveTerminalOp(0)]
        assert runtime.terminal_labels == ("ht1",)

    def test_drift_retunes_in_place(self, topo):
        runtime = EnvironmentTimeline(
            [DutyCycleDrift(at=9, label="ht1", q=0.8)]
        ).runtime(topo)
        update = runtime.step(9)
        assert update.topology.q[1] == 0.8
        assert update.topology.num_terminals == topo.num_terminals
        assert update.activity_ops == [RetuneOp(1, 0.8)]

    def test_unknown_label_raises(self, topo):
        runtime = EnvironmentTimeline(
            [HiddenNodeDeparture(at=2, label="ghost")]
        ).runtime(topo)
        with pytest.raises(SimulationError, match="ghost"):
            runtime.step(2)

    def test_duplicate_arrival_label_raises(self, topo):
        runtime = EnvironmentTimeline(
            [HiddenNodeArrival(at=2, q=0.1, ues=(0,), label="ht0")]
        ).runtime(topo)
        with pytest.raises(SimulationError, match="duplicate"):
            runtime.step(2)

    def test_ramp_spreads_delta_over_duration(self, topo):
        runtime = EnvironmentTimeline(
            [LinkStrengthRamp(at=10, ue=1, delta_db=-6.0, duration=4)]
        ).runtime(topo)
        total = 0.0
        steps_with_delta = 0
        for t in range(10, 20):
            update = runtime.step(t)
            if update is not None:
                total += update.snr_delta_db[1]
                steps_with_delta += 1
        assert steps_with_delta == 4
        assert total == pytest.approx(-6.0)

    def test_late_step_applies_backlog(self, topo):
        # The engine steps every subframe, but the runtime must also cope
        # with a jump past several due events (applied in order, at once).
        runtime = EnvironmentTimeline(
            [
                HiddenNodeArrival(at=3, q=0.2, ues=(0,), label="a"),
                HiddenNodeDeparture(at=5, label="a"),
            ]
        ).runtime(topo)
        update = runtime.step(8)
        assert runtime.events_applied == 2
        assert update.topology.num_terminals == topo.num_terminals


class TestScenarioBuilders:
    def test_hidden_node_churn(self):
        timeline = hidden_node_churn_timeline(
            arrive_at=1000, q=0.4, ues=(0, 1), depart_at=3000
        )
        kinds = [type(e).__name__ for e in timeline.events]
        assert kinds == ["HiddenNodeArrival", "HiddenNodeDeparture"]

    def test_duty_cycle_staircase(self):
        timeline = duty_cycle_drift_timeline(
            drift_at=500, q=0.6, q_start=0.2, steps=3, step_gap=100
        )
        qs = [e.q for e in timeline.events]
        assert len(qs) == 3
        assert qs[-1] == pytest.approx(0.6)

    def test_client_churn_requires_rejoin_for_ramp(self):
        with pytest.raises(ConfigurationError):
            client_churn_timeline(leave_at=100, ue=0, ramp_delta_db=-3.0)


class TestEngineIntegration:
    """The timeline actually flows through the simulation substrate."""

    def run(self, timeline, engine=CellSimulation, subframes=1500, seed=11):
        from repro.core.scheduling.pf import ProportionalFairScheduler

        topology = build_testbed(
            num_ues=4, hts_per_ue=1, activity=0.2, seed=5
        )
        sim = engine(
            topology,
            uniform_snrs(4, seed=6),
            ProportionalFairScheduler(),
            SimulationConfig(num_subframes=subframes, num_rbs=6),
            seed=seed,
            record_series=True,
            timeline=timeline,
        )
        return sim.run()

    def test_arrival_degrades_access(self):
        quiet = self.run(None)
        churned = self.run(
            hidden_node_churn_timeline(arrive_at=300, q=0.8, ues=(0, 1, 2, 3))
        )
        assert churned.rb_utilization < quiet.rb_utilization

    def test_fast_and_legacy_paths_agree_under_churn(self):
        timeline = hidden_node_churn_timeline(
            arrive_at=400, q=0.5, ues=(0, 1), depart_at=1000
        )
        fast = self.run(timeline)
        legacy = self.run(timeline, engine=ReferenceCellSimulation)
        assert fast.aggregate_throughput_mbps == pytest.approx(
            legacy.aggregate_throughput_mbps
        )
        assert np.allclose(fast.utilization_series, legacy.utilization_series)

    def test_ue_leave_gates_traffic(self):
        timeline = client_churn_timeline(leave_at=200, ue=0)
        result = self.run(timeline)
        # After subframe 200 UE0 never transmits again.
        per_ue = result.per_ue_throughput_bps()
        assert per_ue[0] < min(per_ue[u] for u in (1, 2, 3))

    def test_structural_timeline_rejects_custom_activity(self):
        from repro.core.scheduling.pf import ProportionalFairScheduler
        from repro.spectrum.activity import BernoulliActivity

        topology = build_testbed(
            num_ues=4, hts_per_ue=1, activity=0.2, seed=5
        )
        with pytest.raises(ConfigurationError):
            CellSimulation(
                topology,
                uniform_snrs(4, seed=6),
                ProportionalFairScheduler(),
                SimulationConfig(num_subframes=100),
                activity_processes=[
                    BernoulliActivity(0.2) for _ in range(topology.num_terminals)
                ],
                timeline=hidden_node_churn_timeline(arrive_at=50, q=0.3, ues=(0,)),
            )

    def test_timeline_event_unknown_ue_rejected(self):
        from repro.core.scheduling.pf import ProportionalFairScheduler

        topology = build_testbed(
            num_ues=4, hts_per_ue=1, activity=0.2, seed=5
        )
        with pytest.raises(ConfigurationError):
            CellSimulation(
                topology,
                uniform_snrs(4, seed=6),
                ProportionalFairScheduler(),
                SimulationConfig(num_subframes=100),
                timeline=EnvironmentTimeline([UeLeave(at=10, ue=9)]),
            )
