"""Property: the compiled service table grows without losing or
corrupting an entry.

``_FastJointTables`` keeps the speculative scheduler's decodable-service
probabilities in an open-addressing table whose buffers Python owns
(``joint_lookup`` / ``joint_rehash`` in ``core/scheduling/_kernel.py``).
An insert that would push the load past one half answers ``TABLE_FULL``
and counts nothing; the caller then doubles the buffers and rehashes.
These cases start the table tiny, so a few dozen keys drive it through
``TABLE_FULL`` and many rehashes at load ½, with groups of up to the
8-member entry width (and 9-member groups, which the table refuses), and
hold every answer to the pure-Python walk.  Run under ASan/UBSan (the
``kernel-sanitizers`` CI job), they also check that no probe, insert or
rehash touches memory outside the buffers.
"""

import os
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.joint import provider as provider_module
from repro.core.joint.provider import _FastJointTables
from repro.core.scheduling._kernel import (
    KERNEL_MAX_MEMBERS,
    TABLE_FULL,
    kernel,
    kernel_available,
)
from repro.topology.graph import InterferenceTopology

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="needs the compiled kernel library"
)


@st.composite
def table_cases(draw):
    """A topology of 8-64 UEs, a tiny initial capacity, and a sequence of
    ``("query", mask, M)`` and ``("reserve", inserts)`` steps that repeats
    keys and reaches the entry width."""
    num_ues = draw(st.sampled_from([8, 9, 12, 20, 64]))
    ues = st.integers(0, num_ues - 1)
    terminals = [
        (draw(st.floats(0.0, 0.95)), draw(st.sets(ues, max_size=4)))
        for _ in range(draw(st.integers(0, 10)))
    ]
    topology = InterferenceTopology.build(num_ues, terminals)
    sizes = st.one_of(
        st.just(KERNEL_MAX_MEMBERS), st.integers(1, KERNEL_MAX_MEMBERS + 1)
    )
    keys = []
    steps = []
    for _ in range(draw(st.integers(1, 60))):
        choice = draw(st.integers(0, 9))
        if choice == 0:
            steps.append(("reserve", draw(st.integers(0, 40))))
            continue
        if choice <= 2 and keys:
            steps.append(("query", *draw(st.sampled_from(keys))))
            continue
        size = min(draw(sizes), num_ues)
        group = draw(st.lists(ues, min_size=size, max_size=size, unique=True))
        key = (sum(1 << ue for ue in group), draw(st.integers(0, 8)))
        keys.append(key)
        steps.append(("query", *key))
    capacity = draw(st.sampled_from([1, 2, 4, 8]))
    return topology, capacity, steps


def table_keys(tables):
    """The compiled table's live keys."""
    live = tables._keys_m >= 0
    return set(
        zip(tables._keys_mask[live].tolist(), tables._keys_m[live].tolist())
    )


def check_invariants(tables, held):
    capacity, hits, misses, size = tables._meta.tolist()
    assert capacity & (capacity - 1) == 0 and capacity >= 1
    assert 2 * size <= capacity
    assert tables._keys_m.shape == (capacity,)
    assert tables._values.shape == (capacity, KERNEL_MAX_MEMBERS)
    assert table_keys(tables) == held
    assert size == len(held)


@given(table_cases())
@settings(max_examples=80, deadline=None)
def test_table_survives_full_and_rehash(case):
    topology, capacity, steps = case
    lookup = kernel().joint_lookup
    with mock.patch.object(provider_module, "_TABLE_INITIAL_CAPACITY", capacity):
        tables = _FastJointTables(topology)
    with mock.patch.dict(os.environ, {"REPRO_DISABLE_KERNEL": "1"}):
        pure = _FastJointTables(topology)
    assert tables._kernel is not None and pure._kernel is None

    held = set()  # keys the compiled table holds
    refused = set()  # keys wider than an entry: the dict path's
    full_answers = 0
    for step in steps:
        if step[0] == "reserve":
            before = table_keys(tables)
            tables.reserve(step[1])
            assert table_keys(tables) == before
            assert 2 * (len(held) + step[1]) <= int(tables._meta[0])
            check_invariants(tables, held)
            continue
        _, mask, max_streams = step
        key = (mask, max_streams)
        fits = mask.bit_count() <= KERNEL_MAX_MEMBERS
        meta = tables._meta.tolist()
        if fits and key not in held and 2 * (meta[3] + 1) > meta[0]:
            # At load one half: a new key answers TABLE_FULL, counted
            # nowhere, and the caller's retry after growing succeeds.
            assert lookup(tables.table_ptr, mask, max_streams) == TABLE_FULL
            assert tables._meta.tolist() == meta
            full_answers += 1
        answer = list(tables.service(mask, max_streams).items())
        assert answer == list(pure.service(mask, max_streams).items())
        (held if fits else refused).add(key)
        check_invariants(tables, held)
        assert tables.hits + tables.misses == pure.hits + pure.misses
        assert tables.misses == pure.misses == len(held) + len(refused)
        assert tables.cache_size() == pure.cache_size()

    # Every entry survived every rehash: all hits, the same floats.
    hits = tables.hits
    for mask, max_streams in sorted(held | refused):
        assert list(tables.service(mask, max_streams).items()) == list(
            pure.service(mask, max_streams).items()
        )
    assert tables.hits == hits + len(held) + len(refused)
    event(f"TABLE_FULL answers: {min(full_answers, 3)}+")


def test_full_table_refuses_then_grows():
    """A deterministic walk to load ½ at capacity 4: the third distinct
    key answers TABLE_FULL and leaves the counters alone; hits still
    answer; growing rehashes every entry into place."""
    topology = InterferenceTopology.build(
        9, [(0.4, [0, 1, 2]), (0.3, [3, 4]), (0.2, [5, 6, 7, 8])]
    )
    with mock.patch.object(provider_module, "_TABLE_INITIAL_CAPACITY", 4):
        tables = _FastJointTables(topology)
    lookup = kernel().joint_lookup
    eight = sum(1 << ue for ue in range(1, 9))
    first = lookup(tables.table_ptr, eight, 8)
    second = lookup(tables.table_ptr, 0b111, 2)
    assert first >= 0 and second >= 0 and first != second
    assert tables._meta.tolist() == [4, 0, 2, 2]
    assert lookup(tables.table_ptr, 0b1000, 1) == TABLE_FULL
    assert tables._meta.tolist() == [4, 0, 2, 2]
    assert lookup(tables.table_ptr, eight, 8) == first
    assert tables._meta.tolist() == [4, 1, 2, 2]
    values = {key: tables.service(*key) for key in ((eight, 8), (0b111, 2))}
    tables.reserve(1)
    assert tables._meta.tolist() == [8, 3, 2, 2]
    assert lookup(tables.table_ptr, 0b1000, 1) >= 0
    assert tables._meta.tolist() == [8, 3, 3, 3]
    for key, value in values.items():
        assert tables.service(*key) == value
    assert table_keys(tables) == {(eight, 8), (0b111, 2), (0b1000, 1)}
