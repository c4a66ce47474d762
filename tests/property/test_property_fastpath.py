"""Property: the vectorized schedule flavour is bit-identical to the scalar
reference — with and without the compiled greedy kernel.

The fast path's whole contract is that batching (per-burst weight tensors,
RB windows, candidate compaction, the C greedy kernel) changes *how fast*
schedules are produced, never *which* schedules.  These properties drive
every scheduler over randomized topologies, channels, antenna counts,
distinct-client budgets, and overschedule factors, and require the scalar
flavour, the pure-Python fast flavour, and the kernel-backed fast flavour
to emit equal :class:`SubframeSchedule` objects (grant-for-grant, rate
bits included)."""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joint.provider import TopologyJointProvider
from repro.core.scheduling._kernel import kernel_available
from repro.core.scheduling.access_aware import AccessAwareScheduler
from repro.core.scheduling.downlink import AccessAwareDownlinkScheduler
from repro.core.scheduling.oracle import OracleScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.core.scheduling.speculative import SpeculativeScheduler
from repro.core.scheduling.types import SchedulingContext
from repro.topology.graph import InterferenceTopology


@st.composite
def scenario_params(draw):
    """One randomized cell: channels, budgets, and a matching topology."""
    num_ues = draw(st.integers(min_value=1, max_value=8))
    num_terminals = draw(st.integers(min_value=0, max_value=5))
    terminals = []
    for _ in range(num_terminals):
        q = draw(st.floats(min_value=0.0, max_value=0.95))
        footprint = draw(
            st.sets(
                st.integers(min_value=0, max_value=num_ues - 1),
                max_size=num_ues,
            )
        )
        terminals.append((q, footprint))
    num_rbs = draw(st.integers(min_value=1, max_value=6))
    sinr = {
        u: np.array(
            draw(
                st.lists(
                    st.floats(min_value=-10.0, max_value=35.0),
                    min_size=num_rbs,
                    max_size=num_rbs,
                )
            )
        )
        for u in range(num_ues)
    }
    return {
        "topology": InterferenceTopology.build(num_ues, terminals),
        "num_ues": num_ues,
        "num_rbs": num_rbs,
        "num_antennas": draw(st.sampled_from([1, 2, 4, 8])),
        "max_distinct_ues": draw(st.integers(min_value=1, max_value=10)),
        "rate_scale": draw(st.sampled_from([1.0, 2.0, 4.0])),
        "sinr": sinr,
        "avgs": {
            u: draw(st.floats(min_value=1e3, max_value=1e7))
            for u in range(num_ues)
        },
        "clear": frozenset(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=num_ues - 1),
                    max_size=num_ues,
                )
            )
        ),
        "overschedule_factor": draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
    }


def make_context(params, vectorized):
    return SchedulingContext(
        subframe=0,
        num_rbs=params["num_rbs"],
        num_antennas=params["num_antennas"],
        ue_ids=tuple(range(params["num_ues"])),
        sinr_db=params["sinr"],
        avg_throughput_bps=params["avgs"],
        max_distinct_ues=params["max_distinct_ues"],
        clear_ues=params["clear"],
        rate_scale=params["rate_scale"],
        vectorized=vectorized,
    )


def schedulers_for(params):
    provider = TopologyJointProvider(params["topology"])
    return {
        "pf": lambda: ProportionalFairScheduler(),
        "oracle": lambda: OracleScheduler(),
        "access-aware": lambda: AccessAwareScheduler(provider),
        "dl-access-aware": lambda: AccessAwareDownlinkScheduler(provider),
        "speculative": lambda: SpeculativeScheduler(
            TopologyJointProvider(params["topology"]),
            overschedule_factor=params["overschedule_factor"],
        ),
    }


def run_flavours(make_scheduler, params):
    """(scalar, fast-pure-python, fast-kernel-if-available) schedules.

    Fresh scheduler and context instances per flavour keep memoized state
    from leaking between them — each run prices the subframe from scratch.
    """
    scalar = make_scheduler().schedule(make_context(params, vectorized=False))
    os.environ["REPRO_DISABLE_KERNEL"] = "1"
    try:
        pure = make_scheduler().schedule(make_context(params, vectorized=True))
    finally:
        os.environ.pop("REPRO_DISABLE_KERNEL", None)
    kernel = None
    if kernel_available():
        kernel = make_scheduler().schedule(
            make_context(params, vectorized=True)
        )
    return scalar, pure, kernel


@given(scenario_params())
@settings(max_examples=50, deadline=None)
def test_fast_flavours_match_scalar(params):
    for name, make_scheduler in schedulers_for(params).items():
        scalar, pure, kernel = run_flavours(make_scheduler, params)
        assert pure == scalar, f"{name}: pure-python fast flavour diverged"
        if kernel is not None:
            assert kernel == scalar, f"{name}: kernel flavour diverged"


def test_exact_tie_breaks_toward_lowest_id():
    """Identical channels and averages make every weight an exact tie; the
    ``1e-15`` chain scan must then keep the lowest id in all flavours."""
    num_ues, num_rbs = 4, 3
    params = {
        "topology": InterferenceTopology.build(num_ues, []),
        "num_ues": num_ues,
        "num_rbs": num_rbs,
        "num_antennas": 1,
        "max_distinct_ues": 10,
        "rate_scale": 1.0,
        "sinr": {u: np.full(num_rbs, 12.0) for u in range(num_ues)},
        "avgs": {u: 1e4 for u in range(num_ues)},
        "clear": frozenset(range(num_ues)),
        "overschedule_factor": 2.0,
    }
    for name, make_scheduler in schedulers_for(params).items():
        scalar, pure, kernel = run_flavours(make_scheduler, params)
        assert pure == scalar, f"{name}: pure-python fast flavour diverged"
        if kernel is not None:
            assert kernel == scalar, f"{name}: kernel flavour diverged"
        for rb in range(num_rbs):
            granted = [g.ue_id for g in scalar.rb(rb)]
            if granted:
                # One antenna: each greedy step's weights all tie, so the
                # scan keeps the first (lowest-id) candidate it accepted.
                assert min(granted) == granted[0] == 0, (
                    f"{name}: tie did not break toward the lowest id on "
                    f"RB {rb}: {granted}"
                )


def test_kernel_is_available_on_this_platform():
    """The CI image ships a C compiler, so the kernel path must actually be
    exercised by the properties above (the pure fallback keeps this from
    being a hard runtime requirement elsewhere)."""
    if os.environ.get("REPRO_DISABLE_KERNEL"):
        return
    assert kernel_available()
