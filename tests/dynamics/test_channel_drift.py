"""The channel-duty-drift timeline composes with the channel axis."""

import pytest

from repro.errors import ConfigurationError, SpecError
from repro.experiments import (
    ChannelSpec,
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    TimelineSpec,
    build_experiment,
    run_experiment,
)
from repro.sim.config import SimulationConfig
from repro.spectrum import ChannelPlan
from repro.topology.scenarios import channel_drift_timeline
from tests.reference import reference_simulation


def drift_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="fig1-channel-drift",
        scenario=ScenarioSpec(
            kind="fig1",
            params={"activity": 0.3},
            snr={"kind": "uniform", "seed": 3},
        ),
        sim=SimulationConfig(num_subframes=800, num_rbs=8),
        schedulers={"pf": SchedulerSpec("pf")},
        channels=ChannelSpec(
            plan=ChannelPlan.spaced(3),
            terminal_channels=(0, 1, 2),
            assignment="blueprint",
        ),
        timeline=TimelineSpec(
            kind="channel-duty-drift",
            params={
                "drift_at": 200,
                "channel": 1,
                "q": 0.9,
                "terminal_channels": [0, 1, 2],
            },
        ),
        seed=11,
    )


class TestTimelineBuilder:
    def test_targets_only_the_channel_homed_terminals(self):
        timeline = channel_drift_timeline(
            drift_at=100, channel=1, q=0.8, terminal_channels=(0, 1, 1)
        )
        labels = sorted(event.label for event in timeline.events)
        assert labels == ["ht1", "ht2"]

    def test_staircase_needs_q_start(self):
        with pytest.raises(ConfigurationError, match="q_start"):
            channel_drift_timeline(
                drift_at=100,
                channel=0,
                q=0.8,
                terminal_channels=(0,),
                steps=3,
            )

    def test_empty_channel_rejected(self):
        with pytest.raises(ConfigurationError, match="no hidden terminal"):
            channel_drift_timeline(
                drift_at=100, channel=2, q=0.8, terminal_channels=(0, 1)
            )


class TestComposesWithChannels:
    def test_runs_end_to_end_and_paths_agree(self):
        fast = run_experiment(drift_spec())["pf"]
        legacy = reference_simulation(build_experiment(drift_spec()), "pf").run()
        assert fast.to_dict() == legacy.to_dict()

    def test_round_trips_through_json(self):
        spec = drift_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_unknown_timeline_param_is_spec_error(self):
        spec = drift_spec()
        payload = spec.to_dict()
        payload["timeline"]["params"]["bogus"] = 1
        with pytest.raises((SpecError, ConfigurationError)):
            run_experiment(ExperimentSpec.from_dict(payload))
