"""Property: one access-feedback pass is the dict estimator and the
per-stream detectors, bit for bit, and the classifier that feeds it is
the grant-by-grant one.

Every UL subframe's access sample feeds :class:`AccessEstimator` and the
adaptive controller's :class:`DriftMonitor` through one pass over dense
arrays (``access_feedback`` in the compiled kernel library, or the same
loop in Python without it).  Its contract: the counts, every reader's
floats, every detector's state and every flagged set equal the scalar
oracles' — :class:`tests.reference.measurement.ReferenceAccessEstimator`
and :class:`tests.reference.dynamics.PerStreamMonitor` — hex for hex,
with the kernel and without.

The strategies interleave subframes with partial resets, use every decay
the controllers configure, turn triplet tracking on and off, and make
detectors fire often (small thresholds and sample minimums) so the
co-flag pass and reset paths run.  The classifier's cases put up to 8
grants of mixed outcomes on an RB and several RBs on a client, and
classify each schedule's grants more than once, as a held schedule's
TxOP does.
"""

import os
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measurement.classifier import classify_subframe
from repro.core.measurement.estimator import AccessEstimator
from repro.core.scheduling._kernel import kernel_available
from repro.dynamics.detect import DriftMonitor
from repro.errors import MeasurementError
from repro.lte.enb import GrantArrays
from repro.lte.resources import SubframeSchedule, UplinkGrant
from tests.reference.dynamics import PerStreamMonitor
from tests.reference.measurement import (
    ReferenceAccessEstimator,
    reference_classify_subframe,
)


def kernel_env(disable_kernel):
    """The environment of one flavour: ``REPRO_DISABLE_KERNEL`` set or
    removed."""
    patch = mock.patch.dict(os.environ)
    patch.start()
    if disable_kernel:
        os.environ["REPRO_DISABLE_KERNEL"] = "1"
    else:
        os.environ.pop("REPRO_DISABLE_KERNEL", None)
    return patch


@st.composite
def subframes(draw, num_ues, max_ops):
    """``("record", scheduled, accessed)`` and ``("reset", ues)`` steps."""
    ues = st.lists(
        st.integers(0, num_ues - 1), unique=True, max_size=num_ues
    )
    steps = []
    for _ in range(draw(st.integers(1, max_ops))):
        if draw(st.integers(0, 9)) == 0:
            steps.append(("reset", draw(ues)))
            continue
        scheduled = draw(ues)
        accessed = [ue for ue in scheduled if draw(st.booleans())]
        steps.append(("record", scheduled, accessed))
    return steps


@st.composite
def estimator_cases(draw):
    num_ues = draw(st.integers(1, 20))
    return {
        "num_ues": num_ues,
        "decay": draw(st.sampled_from([1.0, 0.9, 0.5])),
        "track_triplets": draw(st.booleans()),
        "steps": draw(subframes(num_ues, 40)),
        # Closing full-cell subframes, so every reader has samples.
        "fill": [
            [ue for ue in range(num_ues) if draw(st.booleans())]
            for _ in range(draw(st.integers(1, 3)))
        ],
    }


def hexes(values):
    return [float(value).hex() for value in values]


def outcome(read):
    """A reader's answer, or the fact that it raised MeasurementError."""
    try:
        return read()
    except MeasurementError as error:
        return ("raised", str(error))


def transformed_hexes(measurements):
    fields = (
        measurements.individual,
        measurements.pairwise,
        measurements.individual_tolerance,
        measurements.pairwise_tolerance,
        measurements.triplet,
        measurements.triplet_tolerance,
    )
    return [
        [(key, float(value).hex()) for key, value in field.items()]
        for field in fields
    ]


def assert_same_estimates(estimator, oracle):
    num_ues = estimator.num_ues
    pairs = list(combinations(range(num_ues), 2))
    assert estimator.subframes_observed == oracle.subframes_observed
    assert hexes(estimator.n) == hexes(
        oracle.individual_samples(ue) for ue in range(num_ues)
    )
    assert hexes(estimator.clear) == hexes(
        oracle.clear_samples(ue) for ue in range(num_ues)
    )
    assert hexes(estimator.n_pair[pair] for pair in pairs) == hexes(
        oracle.pair_samples(*pair) for pair in pairs
    )
    assert hexes(estimator.clear_pair[pair] for pair in pairs) == hexes(
        oracle.pair_clear_samples(*pair) for pair in pairs
    )
    assert hexes(estimator.pair_samples(*pair) for pair in pairs) == hexes(
        oracle.pair_samples(*pair) for pair in pairs
    )
    for ue in range(num_ues):
        got = outcome(lambda: estimator.p_individual(ue).hex())
        assert got == outcome(lambda: oracle.p_individual(ue).hex())
    for pair in pairs:
        got = outcome(lambda: estimator.p_pairwise(*pair).hex())
        assert got == outcome(lambda: oracle.p_pairwise(*pair).hex())
    for triple in combinations(range(num_ues), 3):
        assert (
            float(estimator.triple_samples(*triple)).hex()
            == float(oracle.triple_samples(*triple)).hex()
        )
        got = outcome(lambda: estimator.p_triplet(*triple).hex())
        assert got == outcome(lambda: oracle.p_triplet(*triple).hex())
    assert (
        float(estimator.min_pair_samples()).hex()
        == float(oracle.min_pair_samples()).hex()
    )
    for samples in (0, 1, 2, 5):
        assert estimator.complete(samples) is oracle.complete(samples)
    for triplets in (False, True):
        got = outcome(lambda: transformed_hexes(
            estimator.to_transformed(
                z=2.5, include_triplets=triplets, min_triple_samples=1
            )
        ))
        want = outcome(lambda: transformed_hexes(
            oracle.to_transformed(
                z=2.5, include_triplets=triplets, min_triple_samples=1
            )
        ))
        assert got == want


def check_estimator(case, disable_kernel):
    patch = kernel_env(disable_kernel)
    try:
        settings_ = dict(
            track_triplets=case["track_triplets"], decay=case["decay"]
        )
        estimator = AccessEstimator(case["num_ues"], **settings_)
        oracle = ReferenceAccessEstimator(case["num_ues"], **settings_)
        everyone = list(range(case["num_ues"]))
        steps = case["steps"] + [
            ("record", everyone, accessed) for accessed in case["fill"]
        ]
        for step in steps:
            if step[0] == "reset":
                estimator.reset_ues(step[1])
                oracle.reset_ues(step[1])
            else:
                estimator.record_subframe(step[1], step[2])
                oracle.record_subframe(step[1], step[2])
        assert_same_estimates(estimator, oracle)
    finally:
        patch.stop()


@given(estimator_cases())
@settings(max_examples=60, deadline=None)
def test_estimator_matches_dict_oracle(case):
    check_estimator(case, disable_kernel=True)
    if kernel_available():
        check_estimator(case, disable_kernel=False)


@st.composite
def monitor_cases(draw):
    num_ues = draw(st.integers(1, 16))
    return {
        "num_ues": num_ues,
        "detector": draw(st.sampled_from(["page-hinkley", "cusum"])),
        "track_pairs": draw(st.booleans()),
        "delta": draw(st.sampled_from([0.0, 0.02, 0.05, 0.1])),
        "threshold": draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
        "min_samples": draw(st.integers(1, 8)),
        "co_flag_fraction": draw(st.sampled_from([0.25, 0.5, 1.0])),
        "steps": draw(subframes(num_ues, 80)),
    }


def state_hexes(state):
    return (state[0], *hexes(state[1:]))


def assert_same_stream_bits(monitor, oracle):
    for ue in range(monitor.num_ues):
        assert state_hexes(monitor.state(ue)) == state_hexes(
            oracle.ue[ue].state()
        )
    if not monitor.track_pairs:
        return
    assert monitor.live_pairs() == set(oracle.pair)
    for pair, detector in oracle.pair.items():
        assert state_hexes(monitor.state(pair)) == state_hexes(
            detector.state()
        )


def check_monitor(case, disable_kernel):
    patch = kernel_env(disable_kernel)
    try:
        settings_ = {
            key: case[key]
            for key in (
                "delta", "threshold", "min_samples", "track_pairs",
                "co_flag_fraction",
            )
        }
        monitor = DriftMonitor(
            case["num_ues"], detector=case["detector"], **settings_
        )
        oracle = PerStreamMonitor(
            case["num_ues"], case["detector"], **settings_
        )
        for step in case["steps"]:
            if step[0] == "reset":
                ues = step[1] or None  # an empty draw resets everything
                monitor.reset(ues)
                oracle.reset(ues)
            else:
                flagged = monitor.update(step[1], step[2])
                assert flagged == oracle.update(step[1], step[2])
                if flagged:
                    monitor.reset(flagged)
                    oracle.reset(flagged)
            assert_same_stream_bits(monitor, oracle)
    finally:
        patch.stop()


@given(monitor_cases())
@settings(max_examples=60, deadline=None)
def test_monitor_matches_per_stream_oracle(case):
    check_monitor(case, disable_kernel=True)
    if kernel_available():
        check_monitor(case, disable_kernel=False)


@st.composite
def receptions(draw):
    """A schedule's grants (1-20 RBs, up to 8 UEs each out of 1-24) and
    2-3 draws of per-grant outcome codes."""
    num_ues = draw(st.integers(1, 24))
    num_rbs = draw(st.integers(1, 20))
    schedule = SubframeSchedule(num_rbs=num_rbs)
    for rb in range(num_rbs):
        ues = draw(st.lists(
            st.integers(0, num_ues - 1), unique=True,
            max_size=min(8, num_ues),
        ))
        for pilot, ue in enumerate(ues):
            schedule.add_grant(
                UplinkGrant(ue_id=ue, rb=rb, rate_bps=1e5, pilot_index=pilot)
            )
    grants = GrantArrays(schedule, num_antennas=draw(st.integers(1, 4)))
    codes = st.lists(
        st.integers(0, 3), min_size=len(grants), max_size=len(grants)
    )
    return [
        SimpleNamespace(
            subframe=subframe, grants=grants,
            codes=np.array(draw(codes), dtype=np.intp),
        )
        for subframe in range(draw(st.integers(2, 3)))
    ]


@given(receptions())
@settings(max_examples=150, deadline=None)
def test_classifier_matches_grant_loop(burst):
    for reception in burst:
        observation = classify_subframe(reception.grants.schedule, reception)
        assert observation == reference_classify_subframe(reception)
        assert observation.scheduled is reception.grants.scheduled_set
