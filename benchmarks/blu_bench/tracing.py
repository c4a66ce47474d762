"""In-memory spans around the public calls into each ``repro`` layer.

The benchmark's traced run wraps public functions and methods of the
package (never its internals), records one span per call — name, start,
end, and the enclosing span — and turns them into per-layer metrics at
exit.  A layer's *self* time is its spans' duration minus the part their
child spans cover.  The engine's stage phases come from the public
``phase_timer`` argument of :class:`~repro.sim.engine.CellSimulation`
instead of spans; they nest inside the ``sim.subframe`` spans around
``SubframePipeline.run_subframe``.

Spans are kept only inside a timed section (a root span; the
benchmark's own checks around it are not traced) and only for the thread
that installed the recorder: the supervisor's heartbeat threads call
``TelemetryLog.emit`` concurrently, and a shared span stack cannot
describe two threads at once.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: Engine phases, in pipeline order, as ``PhaseTimer`` labels them.
PHASES = ("timeline", "activity", "channels", "arrivals", "schedule",
          "receive", "feedback")

#: Layer metrics whose self times partition a traced wall time; what they
#: leave uncovered is ``trace.unattributed_share``.
ATTRIBUTED = (
    *(f"sim.{phase}_s" for phase in PHASES), "sim.init_s", "sim.dispatch_s",
    "sim.release_s", "lte.txop_s", "controller.observe_s", "blueprint.infer_s", "obs.hooks_s",
    "obs.session_s", "telemetry.emit_s", "deploy.build_s", "deploy.partition_s",
    "checkpoint.write_s", "checkpoint.read_s", "obs.merge_s",
)


class SpanRecorder:
    """Wrap callables so each call inside a timed section leaves a span."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span; parent -1 = root.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._undo: List[tuple] = []

    @property
    def recording(self) -> bool:
        return bool(self._stack) and threading.get_ident() == self._thread

    def wrap(self, fn: Callable, name: str, keep: Optional[list] = None,
             section: bool = False) -> Callable:
        """``fn`` recording a ``name`` span per call; ``keep`` collects
        the return values of recorded calls.  A ``section`` call records
        a root span; any other call records only inside one."""
        spans, stack, thread = self.spans, self._stack, self._thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Read the clock first so the span, not its parent, carries
            # the wrapper's own cost.
            start = perf_counter()
            if not (stack or section) or threading.get_ident() != thread:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, start, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one ``name`` timed section."""
        return self.wrap(fn, name, section=True)(*args, **kwargs)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch(self, cls: type, attr: str, name: str,
              keep: Optional[list] = None) -> None:
        """Trace calls of the method ``cls.attr``."""
        self.replace(cls, attr, self.wrap(vars(cls)[attr], name, keep))

    def patch_function(self, function: Callable, name: str) -> None:
        """Rebind every ``repro`` module's reference to ``function``.

        Modules import functions by name (``from x import f``), so the
        caller's module, not only the defining one, must see the wrapper.
        """
        traced = self.wrap(function, name)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.replace(module, attr, traced)

    def capture(self, cls: type, sink: list) -> None:
        """Append every instance of ``cls`` built while recording to
        ``sink``."""
        original = vars(cls)["__init__"]

        @functools.wraps(original)
        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            if self.recording:
                sink.append(instance)

        self.replace(cls, "__init__", init)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"total_s", "self_s", "count"}}`` over all spans."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "count": 0})
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[index]
            entry["count"] += 1
        return out

    def durations_ms(self, name: str) -> List[float]:
        return [1e3 * (end - start) for n, start, end, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        """Dump the raw spans (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": name, "start_s": start - origin, "end_s": end - origin,
             "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class LayerTrace:
    """The benchmark's spans over ``repro``'s public layer boundaries."""

    def __init__(self) -> None:
        from repro.core.blueprint import inference
        from repro.core.blueprint.inference import BlueprintInference
        from repro.core.joint.provider import TopologyJointProvider
        from repro.core.scheduling.pf import ProportionalFairScheduler
        from repro.core.scheduling.speculative import SpeculativeScheduler
        from repro.deploy import CampaignResult, build_deployment, verify_partition
        from repro.lte.enb import ENodeB
        from repro.obs import PhaseTimer
        from repro.obs.hooks import MetricsHooks
        from repro.obs.session import ObsSession
        from repro.obs.stream import TimeSeriesRecorder
        from repro.obs.telemetry import TelemetryLog
        from repro.resilience import CheckpointStore
        from repro.sim.engine import CellSimulation
        from repro.sim.stages import SubframePipeline

        self.recorder = recorder = SpanRecorder()
        self.timer = PhaseTimer()
        self.inferences: list = []
        self.providers: list = []
        self.fast_schedulers: list = []
        self.schedulers: list = []

        recorder.patch(BlueprintInference, "infer", "blueprint.infer",
                       keep=self.inferences)
        recorder.patch_function(inference.repair, "blueprint.repair")
        recorder.capture(TopologyJointProvider, self.providers)
        recorder.capture(ProportionalFairScheduler, self.fast_schedulers)
        recorder.capture(SpeculativeScheduler, self.fast_schedulers)
        recorder.patch_function(build_deployment, "deploy.build")
        recorder.patch_function(verify_partition, "deploy.partition")
        for method, name in (("initialize", "checkpoint.write"),
                             ("save_payload", "checkpoint.write"),
                             ("load_manifest", "checkpoint.read"),
                             ("load_payload", "checkpoint.read")):
            recorder.patch(CheckpointStore, method, name)
        recorder.patch(TelemetryLog, "emit", "telemetry.emit")
        recorder.patch(MetricsHooks, "on_subframe_end", "obs.hooks")
        recorder.patch(TimeSeriesRecorder, "on_subframe_end", "obs.hooks")
        for method in ("__init__", "finish", "attach"):
            recorder.patch(ObsSession, method, "obs.session")
        recorder.patch(CampaignResult, "obs_snapshot", "obs.merge")
        recorder.patch(CampaignResult, "obs_series", "obs.merge")
        recorder.patch(CellSimulation, "run", "sim.cell_run")
        recorder.patch(ENodeB, "try_acquire_txop", "lte.txop")
        self._instrument_pipeline(SubframePipeline)
        self._instrument_engines(CellSimulation)

    def _instrument_pipeline(self, pipeline_cls: type) -> None:
        """Trace ``run_subframe`` and the release of each subframe's
        context.

        The engine drops a subframe's context (its schedule, reception
        and delivery maps) when ``run_subframe`` returns, and freeing
        that object graph costs more than the rest of the TxOP loop.
        Holding the context until the next subframe frees it inside a
        ``sim.release`` span instead; nothing reads it meanwhile.
        """
        recorder = self.recorder
        traced_run = recorder.wrap(vars(pipeline_cls)["run_subframe"], "sim.subframe")
        held: List[Any] = [None]

        def release() -> None:
            held[0] = None

        traced_release = recorder.wrap(release, "sim.release")

        @functools.wraps(traced_run)
        def run_subframe(pipeline, sim, ctx):
            if held[0] is not None:
                traced_release()
            traced_run(pipeline, sim, ctx)
            if recorder.recording:
                held[0] = ctx

        recorder.replace(pipeline_cls, "run_subframe", run_subframe)

    def _instrument_engines(self, engine_cls: type) -> None:
        """Give every engine the shared phase timer and wrap its
        scheduler instance's ``schedule``/``observe``."""
        recorder, timer = self.recorder, self.timer
        original = vars(engine_cls)["__init__"]
        traced_init = recorder.wrap(original, "sim.init")

        @functools.wraps(original)
        def init(engine, *args, **kwargs):
            if not recorder.recording:
                return original(engine, *args, **kwargs)
            if kwargs.get("phase_timer") is None:
                kwargs["phase_timer"] = timer
            traced_init(engine, *args, **kwargs)
            scheduler = engine.scheduler
            self.schedulers.append(scheduler)
            scheduler.schedule = recorder.wrap(scheduler.schedule, "sched.call")
            observe = getattr(scheduler, "observe", None)
            if observe is not None:
                scheduler.observe = recorder.wrap(observe, "controller.observe")

        recorder.replace(engine_cls, "__init__", init)

    def __enter__(self) -> "LayerTrace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder.restore()

    def wall(self, fn: Callable, *args, **kwargs):
        """Run one timed section of the traced rep as a root span."""
        return self.recorder.span("wall", fn, *args, **kwargs)

    def metrics(self, results, untraced_wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of the traced rep; ``results`` are its
        :class:`~repro.sim.results.SimulationResult` objects."""
        from repro.core.scheduling._kernel import kernel_available

        spans = self.recorder.summary()

        def total(name):
            return spans.get(name, {}).get("total_s", 0.0)

        def own(name):
            return spans.get(name, {}).get("self_s", 0.0)

        def count(name):
            return int(spans.get(name, {}).get("count", 0))

        phases = {phase: self.timer.total_s(phase) for phase in PHASES}
        observe = total("controller.observe")
        sched_calls = self.recorder.durations_ms("sched.call")
        outcomes = [o for result in self.inferences for o in result.outcomes]
        hits = sum(p.cache_hits for p in self.providers)
        misses = sum(p.cache_misses for p in self.providers)
        issued = sum(r.grants_issued for r in results)
        decoded = sum(r.grants_decoded for r in results)
        wall = total("wall")
        metrics = {f"sim.{phase}_s": phases[phase] for phase in PHASES[:-1]}
        metrics.update({
            # The feedback phase hosts the controller's observe call.
            "sim.feedback_s": phases["feedback"] - observe,
            "sim.init_s": total("sim.init"),
            "sim.cell_run_s": total("sim.cell_run"),
            # run_subframe outside its stages (whose only child spans are
            # the scheduler's schedule and observe) and outside the obs
            # hooks: the stage loop and hook dispatch.
            "sim.dispatch_s": own("sim.subframe") - (
                sum(phases.values()) - total("sched.call") - observe
            ),
            "sim.release_s": total("sim.release"),
            "lte.txop_s": total("lte.txop"),
            "blueprint.infer_s": total("blueprint.infer"),
            "blueprint.repair_s": total("blueprint.repair"),
            "blueprint.inferences": len(self.inferences),
            "blueprint.repair_starts": len(outcomes),
            "blueprint.repair_iterations": sum(o.iterations for o in outcomes),
            "blueprint.satisfied_start_ratio": (
                sum(o.satisfied for o in outcomes) / len(outcomes)
                if outcomes else 0.0
            ),
            "controller.observe_s": own("controller.observe"),
            "measurement.subframes": sum(
                getattr(s, "measurement_subframes_used", 0)
                for s in self.schedulers
            ),
            "sched.calls": len(sched_calls),
            "sched.call_ms_p50": percentile(sched_calls, 50),
            "sched.call_ms_p99": percentile(sched_calls, 99),
            "sched.fast_path_schedules": sum(
                s.fast_path_schedules for s in self.fast_schedulers
            ),
            "sched.kernel": int(kernel_available()),
            "sched.grant_decode_ratio": decoded / issued if issued else 0.0,
            "joint.cache_hits": hits,
            "joint.cache_misses": misses,
            "joint.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "joint.cache_size": sum(p.cache_size() for p in self.providers),
            "deploy.build_s": total("deploy.build"),
            "deploy.builds": count("deploy.build"),
            "deploy.partition_s": total("deploy.partition"),
            # Self times: a resumed store's initialize reads the manifest.
            "checkpoint.write_s": own("checkpoint.write"),
            "checkpoint.writes": count("checkpoint.write"),
            "checkpoint.read_s": own("checkpoint.read"),
            "checkpoint.reads": count("checkpoint.read"),
            "telemetry.emit_s": total("telemetry.emit"),
            # Self times: the stream recorder's window events and the
            # session's run-started event are emits.
            "obs.hooks_s": own("obs.hooks"),
            "obs.session_s": own("obs.session"),
            "obs.merge_s": total("obs.merge"),
            "trace.overhead_ratio": wall / untraced_wall_s if untraced_wall_s else 0.0,
        })
        attributed = sum(metrics[name] for name in ATTRIBUTED)
        metrics["trace.unattributed_share"] = 1 - attributed / wall if wall else 0.0
        return metrics
