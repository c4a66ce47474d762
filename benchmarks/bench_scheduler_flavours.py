"""Scheduler flavours: ms per ``schedule()`` call, scalar oracle vs the
production schedulers.

Three flavours must emit identical schedules (pinned by
``tests/property/test_property_fastpath.py``):

* scalar — the scalar scheduler oracle in ``tests/reference/scheduling.py``
  (per-candidate utility callables, per-grant rate lookups);
* pure-Python — the production scheduler with ``REPRO_DISABLE_KERNEL=1``;
* kernel — the production scheduler with the compiled kernels: the
  greedy fill for PF; for speculative BLU the whole greedy walk, over the
  compiled service table.

This script runs one seeded cell per shape, records the context of every
``schedule()`` call, then replays those contexts through a fresh
scheduler once per flavour and reports milliseconds per call.  Shapes
follow the BLU benchmark's ``cell-pf`` (PF, 20 UEs, 20 RBs, M=4) and
``cell-blu`` (speculative BLU on the inferred blueprint, 28 UEs, 10 RBs,
M=4) workloads.  Each speculative flavour prices on a fresh provider of
the inferred blueprint (the oracle on one of its own), so it pays its own
service-table misses.
Finally it times the whole ``cell-pf``-sized cell with and without the
kernel (min of three interleaved runs each).

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler_flavours.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

# The repository root, for the scheduling oracle in tests/reference/.
sys.path.insert(0, str(Path(__file__).parent.parent))

from repro.core.controller import BLUPhase
from repro.core.joint.provider import TopologyJointProvider
from repro.core.scheduling import ProportionalFairScheduler
from repro.core.scheduling._kernel import kernel_available
from repro.core.scheduling.types import SchedulingContext
from repro.experiments import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    build_experiment,
)
from repro.sim.config import SimulationConfig
from tests.reference.scheduling import ScheduleOracle

#: name -> (scheduler kind, UEs, hidden terminals, RBs, antennas, subframes)
SHAPES = {
    "cell-pf": ("pf", 20, 6, 20, 4, 2500),
    "cell-blu": ("blu", 28, 7, 10, 4, 1200),
}
# Recorded schedule() calls replayed per flavour.
CALLS = 300


def shape_plan(name: str):
    kind, ues, terminals, rbs, antennas, subframes = SHAPES[name]
    return build_experiment(
        ExperimentSpec(
            name=name,
            scenario=ScenarioSpec(
                kind="skewed",
                params={"num_ues": ues, "num_terminals": terminals, "seed": 3},
                snr={"kind": "uniform", "seed": 11},
            ),
            sim=SimulationConfig(
                num_subframes=subframes, num_rbs=rbs, num_antennas=antennas
            ),
            schedulers={kind: SchedulerSpec(kind)},
            seed=7,
        )
    )


def snapshot(context: SchedulingContext) -> dict:
    """The constructor fields of a context, copied out of engine buffers."""
    return {
        "subframe": context.subframe,
        "num_rbs": context.num_rbs,
        "num_antennas": context.num_antennas,
        "ue_ids": tuple(context.ue_ids),
        "sinr_db": {ue: context.sinr_db[ue].copy() for ue in context.ue_ids},
        "avg_throughput_bps": {
            ue: context.avg_throughput_bps[ue] for ue in context.ue_ids
        },
        "max_distinct_ues": context.max_distinct_ues,
        "clear_ues": context.clear_ues,
        "rate_scale": context.rate_scale,
        "link_margin_db": context.link_margin_db,
    }


def capture(name: str, calls: int):
    """Run the shape's cell; return (scheduler factory, recorded contexts).

    For ``cell-blu`` only calls made in the SPECULATIVE phase are kept and
    the factory rebuilds the speculative scheduler on the inferred
    blueprint, so every flavour prices the same post-inference subframes.
    """
    plan = shape_plan(name)
    kind = SHAPES[name][0]
    scheduler = plan.build_scheduler(kind)
    recorded = []
    inner = scheduler.schedule

    def recording(context):
        speculative = getattr(scheduler, "phase", None) in (
            None, BLUPhase.SPECULATIVE,
        )
        if context.ue_ids and speculative and len(recorded) < calls:
            recorded.append(snapshot(context))
        return inner(context)

    scheduler.schedule = recording
    plan.simulation(kind, scheduler=scheduler).run()
    if kind == "pf":
        return ProportionalFairScheduler, recorded
    blueprint = scheduler._speculative
    return (
        lambda: type(blueprint)(
            TopologyJointProvider(blueprint.provider.topology),
            overschedule_factor=blueprint.overschedule_factor,
        )
    ), recorded


def time_flavour(factory, recorded, flavour: str) -> float:
    """Milliseconds per call over the recorded contexts (fresh scheduler).

    ``flavour`` is ``"scalar"`` (the oracle), ``"pure"`` or ``"kernel"``.
    """
    contexts = [SchedulingContext(**fields) for fields in recorded]
    scheduler = factory()
    schedule = scheduler.schedule
    if flavour == "scalar":
        oracle = ScheduleOracle()

        def schedule(context):
            return oracle.schedule(scheduler, context)

    if flavour != "kernel":
        os.environ["REPRO_DISABLE_KERNEL"] = "1"
    try:
        start = time.perf_counter()
        for context in contexts:
            schedule(context)
        elapsed = time.perf_counter() - start
    finally:
        os.environ.pop("REPRO_DISABLE_KERNEL", None)
    return 1e3 * elapsed / len(contexts)


def time_cell(kernel: bool) -> float:
    plan = shape_plan("cell-pf")
    if not kernel:
        os.environ["REPRO_DISABLE_KERNEL"] = "1"
    try:
        start = time.perf_counter()
        plan.simulation("pf").run()
        return time.perf_counter() - start
    finally:
        os.environ.pop("REPRO_DISABLE_KERNEL", None)


def main() -> None:
    print(f"kernel available: {kernel_available()}")
    for name in SHAPES:
        factory, recorded = capture(name, CALLS)
        scalar = time_flavour(factory, recorded, "scalar")
        pure = time_flavour(factory, recorded, "pure")
        line = (
            f"{name}: {len(recorded)} calls, ms/call scalar {scalar:.3f}  "
            f"pure-python {pure:.3f}"
        )
        if kernel_available():
            kernel = time_flavour(factory, recorded, "kernel")
            line += f"  kernel {kernel:.3f}"
        print(line)
    time_cell(kernel=True)  # warm-up: kernel build, first-call costs
    runs = [(time_cell(kernel=True), time_cell(kernel=False)) for _ in range(3)]
    with_kernel, without = (min(times) for times in zip(*runs))
    print(
        f"cell-pf whole cell: {with_kernel:.2f} s with the kernel, "
        f"{without:.2f} s with REPRO_DISABLE_KERNEL=1"
    )


if __name__ == "__main__":
    main()
