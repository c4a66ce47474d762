"""Properties: the array-native BLU control plane makes the decisions of its
scalar reference (``tests/reference``).

Algorithm 1 runs from a pair-count matrix, constraint violations are
ranked by one stable argsort, and gradient repair prices candidate moves
as deltas instead of evaluating a copy per move.  None of that may change
a decision: the same measurement schedules, the same violation order and
amounts, and the same repair result — equal iteration counts and
bit-equal ``Z`` and ``Q``.  Repair moves are not compared one by one;
the acceptance rule that picks them (``_choose``) has its own property
against the sequential rule.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScenarioConfig, generate_scenario
from repro.core.blueprint.constraints import WorkingTopology
from repro.core.blueprint.initializers import (
    diagonal_start,
    pairwise_start,
    peeling_start,
    random_start,
)
from repro.core.blueprint.repair import (
    _apply,
    _choose,
    _moves_for,
    _Scorer,
    _target_mass,
    repair,
)
from repro.core.blueprint.transform import TransformedMeasurements
from repro.core.measurement.estimator import AccessEstimator
from repro.core.measurement.pair_scheduler import MeasurementScheduler
from repro.topology.scenarios import testbed_topology as make_testbed_topology
from tests.reference.blueprint import reference_repair, reference_violations
from tests.reference.measurement import ReferenceMeasurementScheduler

# -- Algorithm 1 ---------------------------------------------------------------


@st.composite
def measurement_campaigns(draw):
    """A scheduler configuration, an optional restricted pair set and a
    history of recorded subframes that sets the starting count state."""
    num_ues = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=2, max_value=9))
    samples = draw(st.integers(min_value=1, max_value=6))
    ue = st.integers(min_value=0, max_value=num_ues - 1)
    pairs = None
    if draw(st.booleans()):
        pairs = draw(
            st.lists(
                st.tuples(ue, ue).filter(lambda p: p[0] != p[1]),
                min_size=1,
                max_size=3 * num_ues,
            )
        )
    history = draw(
        st.lists(st.sets(ue, max_size=num_ues), max_size=4 * samples)
    )
    return num_ues, k, samples, pairs, history


@given(measurement_campaigns(), st.integers(min_value=1, max_value=40))
@settings(max_examples=150, deadline=None)
def test_algorithm1_schedules_match_reference(campaign, steps):
    """From any count state — full or restricted pair sets, ties
    everywhere at the start and at target — the array scheduler picks the
    reference's clients, step after step."""
    num_ues, k, samples, pairs, history = campaign
    fast = MeasurementScheduler(num_ues, k, samples, pairs=pairs)
    slow = ReferenceMeasurementScheduler(num_ues, k, samples, pairs=pairs)
    for scheduled in history:
        fast.record(sorted(scheduled))
        slow.record(sorted(scheduled))
    assert fast.counts == slow.counts
    for _ in range(steps):
        assert fast.finished == slow.finished
        schedule = fast.next_schedule()
        assert schedule == slow.next_schedule()
        fast.record(schedule)
        slow.record(schedule)
    assert fast.counts == slow.counts
    assert fast.subframes_used == slow.subframes_used


@pytest.mark.parametrize("num_ues,k,samples", [(10, 4, 5), (20, 8, 10), (28, 8, 50)])
def test_algorithm1_full_plan_matches_reference(num_ues, k, samples):
    fast = MeasurementScheduler(num_ues, k, samples)
    slow = ReferenceMeasurementScheduler(num_ues, k, samples)
    while not slow.finished:
        assert not fast.finished
        schedule = slow.next_schedule()
        assert fast.next_schedule() == schedule
        fast.record(schedule)
        slow.record(schedule)
    assert fast.finished
    assert fast.counts == slow.counts


# -- targets and topologies ------------------------------------------------------

#: Few distinct magnitudes, so violations and move scores tie exactly.
_COARSE = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
_FINE = st.floats(min_value=0.0, max_value=1.5)


@st.composite
def targets(draw, max_ues=7):
    num_ues = draw(st.integers(min_value=1, max_value=max_ues))
    value = _COARSE if draw(st.booleans()) else _FINE
    tolerance = st.sampled_from([0.0, 1e-9, 0.01, 0.1])
    pairs = list(itertools.combinations(range(num_ues), 2))
    triples = list(itertools.combinations(range(num_ues), 3))
    chosen = []
    if triples and draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(triples), max_size=5, unique=True))
    return TransformedMeasurements(
        num_ues,
        {i: draw(value) for i in range(num_ues)},
        {pair: draw(value) for pair in pairs},
        individual_tolerance={i: draw(tolerance) for i in range(num_ues)},
        pairwise_tolerance={pair: draw(tolerance) for pair in pairs},
        triplet={t: draw(value) for t in chosen},
        triplet_tolerance={t: draw(tolerance) for t in chosen},
    )


@st.composite
def working_topologies(draw, num_ues):
    """Topologies with duplicate rows, empty rows and zero weights."""
    ue = st.integers(min_value=0, max_value=num_ues - 1)
    weight = st.one_of(_COARSE, _FINE)
    terminals = draw(
        st.lists(st.tuples(weight, st.sets(ue, max_size=num_ues)), max_size=8)
    )
    return WorkingTopology.from_terminals(num_ues, terminals)


def _listed(violations):
    return [(v.kind, v.key, v.amount) for v in violations]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_violation_ranking_matches_reference(data):
    target = data.draw(targets())
    topology = data.draw(working_topologies(target.num_ues))
    for respect in (True, False):
        expected = _listed(reference_violations(topology, target, respect))
        assert _listed(topology.violations(target, respect)) == expected
        assert _listed(topology.violations(target, respect, limit=4)) == expected[:4]
    assert topology.is_satisfied(target) == (not reference_violations(topology, target))


# -- gradient repair ------------------------------------------------------------------


def assert_same_repair(start, target, max_iterations=400):
    fast = repair(start, target, max_iterations=max_iterations)
    slow = reference_repair(start, target, max_iterations=max_iterations)
    assert fast.iterations == slow.iterations
    assert fast.topology.edge_matrix().tobytes() == slow.topology.edge_matrix().tobytes()
    assert fast.topology.edge_matrix().shape == slow.topology.edge_matrix().shape
    assert fast.topology.weights.tobytes() == slow.topology.weights.tobytes()
    assert fast.aggregate_violation == slow.aggregate_violation
    assert fast.satisfied == slow.satisfied


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_repair_matches_reference_on_random_targets(data):
    target = data.draw(targets())
    start = data.draw(working_topologies(target.num_ues))
    assert_same_repair(start, target, max_iterations=60)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_move_prices_bound_their_exact_aggregates(data):
    """Every candidate move's delta price lies within its margin of the
    aggregate its state evaluates to from scratch; an inert move's state
    evaluates to the current aggregate exactly."""
    target = data.draw(targets())
    state = data.draw(working_topologies(target.num_ues))
    aggregate = state.aggregate_violation(target)
    scorer = _Scorer(state, target, aggregate, _target_mass(target))
    for violation in state.violations(target, respect_tolerance=False):
        moves, (prices, margins) = _moves_for(scorer, violation)
        assert len(moves) == len(prices) == len(margins)
        for move, price, margin in zip(moves, prices.tolist(), margins.tolist()):
            candidate = state.copy()
            _apply(candidate, move)
            exact = candidate.aggregate_violation(target)
            if margin == 0.0:
                assert exact == price == aggregate
            else:
                assert abs(exact - price) <= margin


def test_zero_weight_edge_is_inert_only_without_triplets():
    """Covering a client with a zero-weight terminal leaves the pairwise
    sums bit-identical, but a triplet sum over the terminals gains a zero
    term, and numpy may regroup that sum: here the aggregate moves by one
    ulp, so with triplets such a move must be evaluated, not skipped."""
    weights = [0.712, 0.872, 0.272, 0.665, 0.926, 0.045, 0.821]
    terminals = [(w, [0, 1, 2]) for w in weights]
    terminals.insert(1, (0.0, [0, 1]))
    state = WorkingTopology.from_terminals(3, terminals)
    zeros = {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0}
    for triplet, inert in (({}, True), ({(0, 1, 2): 0.0}, False)):
        target = TransformedMeasurements(3, {0: 0.0, 1: 0.0, 2: 0.0}, zeros, triplet=triplet)
        aggregate = state.aggregate_violation(target)
        scorer = _Scorer(state, target, aggregate, _target_mass(target))
        move = (("e", 1, 2, True),)
        _, margins = scorer.moves([move])
        candidate = state.copy()
        _apply(candidate, move)
        assert bool(margins[0] == 0.0) is inert
        assert scorer.price(move)[1] is inert
        assert (candidate.aggregate_violation(target) == aggregate) is inert


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-8, max_value=4),
            st.floats(min_value=-0.99, max_value=0.99),
            st.booleans(),
        ),
        max_size=14,
    )
)
@settings(max_examples=300, deadline=None)
def test_choose_takes_the_move_of_the_sequential_rule(moves):
    """Given prices within their margins of the exact aggregates, the
    walk picks the move the copy-and-evaluate rule picks, on values that
    straddle its ``1e-12`` threshold."""
    aggregate, margin = 3.0, 4e-12
    exact, prices, margins = [], [], []
    for steps, noise, inert in moves:
        if inert:
            exact.append(aggregate)
            prices.append(aggregate)
            margins.append(0.0)
        else:
            exact.append(aggregate + steps * 0.5e-12)
            prices.append(exact[-1] + noise * margin)
            margins.append(margin)
    expected, best = None, aggregate
    for index, value in enumerate(exact):
        if value < best - 1e-12:
            expected, best = index, value
    chosen = _choose(
        list(range(len(exact))),
        (np.array(prices), np.array(margins)),
        aggregate,
        lambda index: (index, exact[index]),
    )
    assert chosen == (None if expected is None else (expected, exact[expected]))


def _trace_target(topology, seed, subframes=4000, z=3.0):
    """Access estimated from a simulated activity trace with every client
    observed each subframe: how the Fig. 14 benchmark builds its targets."""
    rng = np.random.default_rng(seed)
    estimator = AccessEstimator(topology.num_ues)
    scheduled = set(range(topology.num_ues))
    for _ in range(subframes):
        busy = {
            ue
            for q, ues in zip(topology.q, topology.edges)
            if rng.random() < q
            for ue in ues
        }
        estimator.record_subframe(scheduled, scheduled - busy)
    return estimator.to_transformed(z=z)


def _starts(target, seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, max(2, 2 * target.num_ues)))
    return [
        peeling_start(target),
        diagonal_start(target),
        pairwise_start(target),
        random_start(target, h, rng),
    ]


@pytest.mark.parametrize("seed", range(40))
def test_repair_matches_reference_on_fig14_testbed_corpus(seed):
    """The testbed-style traces of the Fig. 14 inference benchmark."""
    rng = np.random.default_rng(10_000 + seed)
    topology = make_testbed_topology(
        num_ues=int(rng.integers(4, 9)),
        hts_per_ue=int(rng.integers(1, 3)),
        activity=float(rng.uniform(0.2, 0.5)),
        seed=seed,
    )
    target = _trace_target(topology, seed)
    for start in _starts(target, seed):
        assert_same_repair(start, target)


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_repair_matches_reference_on_fig14_ns3_corpus(seed):
    """The NS3-style scenario traces of the Fig. 14 inference benchmark
    (every fourth: the reference solver takes seconds per 25-UE trace)."""
    rng = np.random.default_rng(20_000 + seed)
    scenario = generate_scenario(
        ScenarioConfig(
            num_ues=int(rng.choice([5, 10, 15, 20, 25])),
            num_wifi=int(rng.choice([5, 10, 15, 20, 25])),
        ),
        seed=seed,
    )
    target = _trace_target(scenario.topology, seed)
    for start in _starts(target, seed):
        assert_same_repair(start, target)
