"""CompositeHooks delivery guarantees and the timing-tools home."""

import importlib

import pytest

from repro.experiments import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    build_experiment,
)
from repro.obs import ObsConfig, PhaseTimer
from repro.obs.hooks import MetricsHooks, TracingHooks
from repro.obs.session import ObsSession
from repro.obs.stream import TimeSeriesRecorder
from repro.sim.config import SimulationConfig
from repro.sim.stages import CompositeHooks, PhaseTimerHooks, SimHooks


class Recorder(SimHooks):
    def __init__(self):
        self.calls = []

    def on_stage_start(self, stage, ctx):
        self.calls.append(("start", stage))

    def on_stage_end(self, stage, ctx):
        self.calls.append(("end", stage))

    def on_subframe_end(self, ctx):
        self.calls.append(("subframe", ctx))


class Exploder(SimHooks):
    def __init__(self, error):
        self.error = error

    def on_stage_start(self, stage, ctx):
        raise self.error

    def on_stage_end(self, stage, ctx):
        raise self.error

    def on_subframe_end(self, ctx):
        raise self.error


class TestCompositeHooks:
    def test_all_children_called_in_order(self):
        first, second = Recorder(), Recorder()
        composite = CompositeHooks([first, second])
        composite.on_stage_start("s", "ctx")
        composite.on_stage_end("s", "ctx")
        composite.on_subframe_end("ctx")
        expected = [("start", "s"), ("end", "s"), ("subframe", "ctx")]
        assert first.calls == expected
        assert second.calls == expected

    def test_later_children_run_despite_earlier_raise(self):
        survivor = Recorder()
        composite = CompositeHooks([Exploder(ValueError("boom")), survivor])
        with pytest.raises(ValueError):
            composite.on_subframe_end("ctx")
        assert survivor.calls == [("subframe", "ctx")]

    def test_single_error_re_raised_as_is(self):
        error = ValueError("boom")
        composite = CompositeHooks([Exploder(error), Recorder()])
        with pytest.raises(ValueError) as caught:
            composite.on_stage_start("s", "ctx")
        assert caught.value is error

    def test_multiple_errors_raise_group(self):
        first, second = ValueError("a"), KeyError("b")
        composite = CompositeHooks([Exploder(first), Exploder(second)])
        with pytest.raises(ExceptionGroup) as caught:
            composite.on_stage_end("s", "ctx")
        assert set(caught.value.exceptions) == {first, second}


class StageCounter(SimHooks):
    """Counts every callback; records each subframe's kind."""

    def __init__(self):
        self.starts = 0
        self.ends = 0
        self.kinds = []

    def on_stage_start(self, stage, ctx):
        self.starts += 1

    def on_stage_end(self, stage, ctx):
        self.ends += 1

    def on_subframe_end(self, ctx):
        self.kinds.append(ctx.kind)


class SubframeCounter(SimHooks):
    """Overrides only ``on_subframe_end``: not a stage observer."""

    def __init__(self):
        self.kinds = []

    def on_subframe_end(self, ctx):
        self.kinds.append(ctx.kind)


class TestStageDispatch:
    """Stage callbacks reach only the hooks that observe stages; every
    hook still gets ``on_subframe_end``."""

    SUBFRAMES = 300

    @classmethod
    def plan(cls):
        return build_experiment(
            ExperimentSpec(
                name="dispatch",
                scenario=ScenarioSpec(
                    kind="testbed",
                    params={"num_ues": 4, "hts_per_ue": 2, "activity": 0.4,
                            "seed": 1},
                    snr={"kind": "uniform", "seed": 2},
                ),
                sim=SimulationConfig(num_subframes=cls.SUBFRAMES),
                schedulers={"pf": SchedulerSpec("pf")},
                seed=0,
            )
        )

    @staticmethod
    def spy_on_stage_calls(hooks):
        """Instance-level stage callbacks on the non-observing hooks: the
        dispatch decision reads the class, so these record any stage call
        the pipeline or a composite still makes to them."""
        calls = []
        for hook in hooks:
            assert not hook.observes_stages
            hook.on_stage_start = lambda stage, ctx: calls.append(stage)
            hook.on_stage_end = lambda stage, ctx: calls.append(stage)
        return calls

    @staticmethod
    def stage_runs(simulation, kinds):
        by_kind = simulation.pipeline._by_kind
        return sum(len(by_kind[kind]) for kind in kinds)

    def test_which_hooks_observe_stages(self):
        session = ObsSession(ObsConfig(enabled=True, stream=True))
        assert [type(child) for child in session.hooks.hooks] == [
            MetricsHooks, TimeSeriesRecorder,
        ]
        assert not any(child.observes_stages for child in session.hooks.hooks)
        assert not session.hooks.observes_stages
        assert not SimHooks().observes_stages
        assert not SubframeCounter().observes_stages
        assert PhaseTimerHooks(PhaseTimer()).observes_stages
        assert CompositeHooks([session.hooks, StageCounter()]).observes_stages

    def test_obs_stream_session_gets_no_stage_callbacks(self):
        session = ObsSession(ObsConfig(enabled=True, stream=True))
        counter = SubframeCounter()
        calls = self.spy_on_stage_calls([*session.hooks.hooks, counter])
        simulation = self.plan().simulation(
            "pf", hooks=CompositeHooks([session.hooks, counter])
        )
        with session.activate():
            simulation.run()
        assert calls == []
        assert len(counter.kinds) == self.SUBFRAMES

    def test_pipeline_skips_stage_calls_for_a_lone_subframe_hook(self):
        counter = SubframeCounter()
        calls = self.spy_on_stage_calls([counter])
        simulation = self.plan().simulation("pf", hooks=counter)
        baseline = self.plan().simulation("pf").run()
        assert simulation.run() == baseline
        assert calls == []
        assert len(counter.kinds) == self.SUBFRAMES

    @pytest.mark.parametrize("observer", ["phase-timer", "tracing"])
    def test_stage_observers_beside_the_session_get_every_stage(
        self, observer
    ):
        session = ObsSession(
            ObsConfig(enabled=True, stream=True, tracing=observer == "tracing")
        )
        silent = [
            child for child in session.hooks.hooks
            if not isinstance(child, TracingHooks)
        ]
        calls = self.spy_on_stage_calls(silent)
        counter = StageCounter()
        timer = PhaseTimer()
        children = [session.hooks, counter]
        if observer == "phase-timer":
            children.append(PhaseTimerHooks(timer))
        simulation = self.plan().simulation(
            "pf", hooks=CompositeHooks(children)
        )
        with session.activate():
            simulation.run()
        expected = self.stage_runs(simulation, counter.kinds)
        assert len(counter.kinds) == self.SUBFRAMES
        assert counter.starts == counter.ends == expected
        assert calls == []
        if observer == "phase-timer":
            assert sum(count for _, _, count in timer.phases()) == expected
        else:
            stage_spans = [
                event for event in session.tracer.events()
                if event.get("cat") == "stage"
            ]
            assert len(stage_spans) == expected

    def test_raising_stage_hook_beside_metrics_still_raises(self):
        session = ObsSession(ObsConfig(enabled=True))
        error = ValueError("stage boom")
        survivor = StageCounter()
        composite = CompositeHooks([session.hooks, Exploder(error), survivor])
        assert composite.observes_stages
        with pytest.raises(ValueError) as caught:
            composite.on_stage_end("s", "ctx")
        assert caught.value is error
        assert survivor.ends == 1
        simulation = self.plan().simulation("pf", hooks=composite)
        with session.activate(), pytest.raises(ValueError) as caught:
            simulation.run()
        assert caught.value is error
        # The run stops at its first stage's start, after the fan-out
        # reached the sibling behind the raising hook.
        assert (survivor.starts, survivor.ends) == (1, 1)


class TestTimingHome:
    """The timing tools live in repro.obs.timing; the old shim is gone."""

    def test_perf_shim_removed(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.perf")

    def test_obs_timing_is_the_home(self):
        from repro.obs import PhaseTimer, Stopwatch
        from repro.obs import timing

        assert timing.PhaseTimer is PhaseTimer
        assert timing.Stopwatch is Stopwatch
