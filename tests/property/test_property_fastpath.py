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
from contextlib import nullcontext
from unittest import mock

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
from repro.obs.metrics import MetricsRegistry, use_registry
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


@st.composite
def burst_sequences(draw):
    """Several bursts of one cell on one provider, with a small distinct-
    client budget (so the K-budget trims groups and saturates), an
    optional topology swap half-way (dynamics churn), and with or without
    an active obs registry (a trimmed group's utility, and its service
    lookup, happen only with one)."""
    num_ues = draw(st.integers(min_value=2, max_value=12))
    ues = st.integers(min_value=0, max_value=num_ues - 1)
    terminals = [
        (
            draw(st.floats(min_value=0.05, max_value=0.9)),
            draw(st.sets(ues, min_size=1, max_size=4)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    ]
    num_rbs = draw(st.integers(min_value=1, max_value=8))
    num_antennas = draw(st.sampled_from([1, 2, 4]))
    # Channels from a drawn seed: generic floats, so that reassociating a
    # three-member utility sum would change its last bits.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bursts = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        scheduled = sorted(draw(st.sets(ues, min_size=1)))
        bursts.append(
            {
                "ue_ids": tuple(scheduled),
                "sinr": {
                    ue: rng.uniform(-5.0, 35.0, size=num_rbs)
                    for ue in scheduled
                },
                "avgs": {
                    ue: float(10.0 ** rng.uniform(3.0, 7.0))
                    for ue in scheduled
                },
                "max_distinct_ues": draw(st.integers(min_value=1, max_value=6)),
            }
        )
    swap = None
    if draw(st.booleans()):
        swap = (
            draw(st.floats(min_value=0.1, max_value=0.9)),
            draw(st.sets(ues, min_size=1, max_size=3)),
        )
    return {
        "topology": InterferenceTopology.build(num_ues, terminals),
        "num_rbs": num_rbs,
        "num_antennas": num_antennas,
        "factor": draw(st.sampled_from([1.5, 2.0, 3.0])),
        "bursts": bursts,
        "swap": swap,
        "observed": draw(st.booleans()),
    }


def run_bursts(case, disable_kernel):
    """Per burst: (schedule, captured ``rb_utilities``, provider cache
    hits, misses and size), plus the obs registry's final snapshot (both
    empty when the case runs unobserved)."""
    env = {"REPRO_DISABLE_KERNEL": "1"} if disable_kernel else {}
    with mock.patch.dict(os.environ, env):
        if not disable_kernel:
            os.environ.pop("REPRO_DISABLE_KERNEL", None)
        provider = TopologyJointProvider(case["topology"])
        scheduler = SpeculativeScheduler(
            provider, overschedule_factor=case["factor"]
        )
        captured = []
        record = scheduler._record_metrics

        def spy(registry, context, schedule, rb_utilities=None):
            captured.append(dict(rb_utilities))
            record(registry, context, schedule, rb_utilities)

        scheduler._record_metrics = spy
        trace = []
        registry = MetricsRegistry()
        with use_registry(registry) if case["observed"] else nullcontext():
            for index, burst in enumerate(case["bursts"]):
                if case["swap"] and index == len(case["bursts"]) // 2:
                    provider.topology = provider.topology.with_terminal(
                        *case["swap"]
                    )
                context = SchedulingContext(
                    subframe=index,
                    num_rbs=case["num_rbs"],
                    num_antennas=case["num_antennas"],
                    ue_ids=burst["ue_ids"],
                    sinr_db=burst["sinr"],
                    avg_throughput_bps=burst["avgs"],
                    max_distinct_ues=burst["max_distinct_ues"],
                    vectorized=True,
                )
                schedule = scheduler.schedule(context)
                trace.append(
                    (
                        schedule,
                        captured.pop() if captured else None,
                        provider.cache_hits,
                        provider.cache_misses,
                        provider.cache_size(),
                    )
                )
        compiled = provider.fast_tables().table_ptr is not None
        return trace, registry.snapshot().to_dict(), compiled


@given(burst_sequences())
@settings(max_examples=60, deadline=None)
def test_kernel_walk_matches_scorer_counters_and_utilities(case):
    """The compiled speculative walk and the pure-Python step scorer agree
    burst by burst on schedules, per-RB utilities (``==`` floats, trimmed
    groups included) and the provider's service-cache counters — so the
    obs snapshot's ``scheduler.pattern_cache_*`` counts hold too."""
    pure, pure_metrics, pure_compiled = run_bursts(case, disable_kernel=True)
    assert not pure_compiled
    walk, walk_metrics, compiled = run_bursts(case, disable_kernel=False)
    assert compiled == kernel_available()
    for index, (got, want) in enumerate(zip(walk, pure)):
        assert got[0] == want[0], f"burst {index}: schedules diverged"
        assert got[1] == want[1], f"burst {index}: rb_utilities diverged"
        assert got[2:] == want[2:], f"burst {index}: cache counters diverged"
    assert walk_metrics == pure_metrics


def test_kernel_is_available_on_this_platform():
    """The CI image ships a C compiler, so the kernel path must actually be
    exercised by the properties above (the pure fallback keeps this from
    being a hard runtime requirement elsewhere)."""
    if os.environ.get("REPRO_DISABLE_KERNEL"):
        return
    assert kernel_available()
