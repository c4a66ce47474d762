"""Tests for the joint-access providers (topology-exact and empirical)."""

import itertools

import numpy as np
import pytest

from repro.core.joint import provider as provider_module
from repro.core.joint.provider import (
    EmpiricalJointProvider,
    JointAccessProvider,
    TopologyJointProvider,
)
from repro.core.scheduling import speculative
from repro.core.scheduling._kernel import KERNEL_MAX_MEMBERS, kernel_available
from repro.core.scheduling.speculative import SpeculativeScheduler
from repro.core.scheduling.types import SchedulingContext
from repro.errors import TopologyError
from repro.lte.pilots import MAX_ORTHOGONAL_PILOTS
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.topology.graph import InterferenceTopology
from repro.topology.scenarios import testbed_topology as make_testbed_topology
from tests.reference.scheduling import ScheduleOracle


def simulate_clear_matrix(topology, n, rng):
    clear = np.ones((n, topology.num_ues), dtype=bool)
    for q, ues in zip(topology.q, topology.edges):
        busy = rng.random(n) < q
        for ue in ues:
            clear[busy, ue] = False
    return clear


class TestTopologyJointProvider:
    def test_access_probability_passthrough(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        for ue in range(8):
            assert provider.access_probability(ue) == pytest.approx(
                testbed8.access_probability(ue)
            )

    def test_pattern_distribution_sums_to_one(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        for group in [frozenset({0, 1}), frozenset({0, 2, 5, 7})]:
            distribution = provider.pattern_distribution(group)
            assert sum(distribution.values()) == pytest.approx(1.0)
            for pattern in distribution:
                assert pattern <= group

    def test_pattern_matches_joint_probability(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        group = [0, 1, 4]
        distribution = provider.pattern_distribution(frozenset(group))
        for r in range(4):
            for clear in itertools.combinations(group, r):
                blocked = [u for u in group if u not in clear]
                expected = testbed8.joint_access_probability(list(clear), blocked)
                assert distribution.get(frozenset(clear), 0.0) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_pattern_table_consistency(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        group = frozenset({0, 1, 4})
        table = provider.pattern_table(group)
        # Summing pi[(i, s)] over s gives p(i clear, others anything) = p(i).
        for ue in group:
            total = sum(p for (member, _), p in table.items() if member == ue)
            assert total == pytest.approx(testbed8.access_probability(ue))

    def test_joint_probability_api(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        value = provider.joint_probability([0, 1], [2])
        expected = testbed8.joint_access_probability([0, 1], [2])
        assert value == pytest.approx(expected, abs=1e-12)

    def test_joint_probability_overlap_rejected(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        with pytest.raises(TopologyError):
            provider.joint_probability([0], [0])

    def test_caching_returns_same_object(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        group = frozenset({0, 1})
        assert provider.pattern_distribution(group) is provider.pattern_distribution(
            group
        )

    def test_empty_group(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        assert provider.pattern_distribution(frozenset()) == {frozenset(): 1.0}


class TestProviderCachesAndChurn:
    """The memoization layers: counters, the size gauge, and the
    identity-keyed invalidation that topology churn relies on."""

    def test_counters_track_hits_and_misses(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        group = frozenset({0, 1, 2})
        assert (provider.cache_hits, provider.cache_misses) == (0, 0)
        provider.pattern_distribution(group)
        assert (provider.cache_hits, provider.cache_misses) == (0, 1)
        provider.pattern_distribution(group)
        assert (provider.cache_hits, provider.cache_misses) == (1, 1)
        before = provider.cache_misses
        provider.decodable_service(group, max_streams=2)
        assert provider.cache_misses == before + 1
        hits = provider.cache_hits
        provider.decodable_service(group, max_streams=2)
        assert provider.cache_hits == hits + 1

    def test_cache_size_counts_all_layers(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        assert provider.cache_size() == 0
        provider.pattern_distribution(frozenset({0, 1}))
        pattern_only = provider.cache_size()
        assert pattern_only >= 1
        provider.pattern_table(frozenset({0, 1}))
        with_table = provider.cache_size()
        assert with_table > pattern_only
        provider.decodable_service(frozenset({0, 1, 2}), max_streams=2)
        assert provider.cache_size() > with_table

    def test_churn_swap_drops_caches_and_matches_fresh(self, testbed8):
        """Reassigning ``topology`` (what dynamics churn does) must
        invalidate every layer: post-swap answers equal a provider built
        fresh on the mutated topology, not the stale cached pmfs."""
        provider = TopologyJointProvider(testbed8)
        groups = [frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({0, 3})]
        for group in groups:
            provider.pattern_distribution(group)
            provider.pattern_table(group)
            provider.decodable_service(group, max_streams=2)
        assert provider.cache_size() > 0

        mutated = testbed8.with_terminal(0.6, [0, 1, 2])
        provider.topology = mutated
        fresh = TopologyJointProvider(mutated)
        for group in groups:
            assert provider.pattern_distribution(
                group
            ) == fresh.pattern_distribution(group)
            assert provider.pattern_table(group) == fresh.pattern_table(group)
            assert provider.decodable_service(
                group, max_streams=2
            ) == fresh.decodable_service(group, max_streams=2)
        # The stale entries are gone: the first post-swap query of each
        # group was a miss, not a hit against the old topology's caches.
        assert provider.pattern_distribution(groups[0]) is not None
        assert (
            provider._built_for is mutated  # noqa: SLF001 - invariant probe
        )

    def test_fast_service_matches_base_table_scan(self, testbed8):
        """The bitmask service tables answer exactly what the base-class
        pattern-table scan answers."""
        provider = TopologyJointProvider(testbed8)
        for group in [frozenset({0, 1}), frozenset({2, 4, 5}), frozenset({7})]:
            for max_streams in (1, 2, 4):
                fast = provider.decodable_service(group, max_streams)
                slow = JointAccessProvider.decodable_service(
                    provider, group, max_streams
                )
                assert set(fast) == set(slow)
                for ue in slow:
                    assert fast[ue] == slow[ue]

    @pytest.mark.parametrize(
        "num_ues, group",
        [
            (70, frozenset({1, 64, 69})),  # a UE id beyond a 64-bit mask
            (12, frozenset(range(9))),  # more members than the kernel holds
        ],
    )
    def test_groups_beyond_the_kernel_take_the_python_walk(
        self, num_ues, group
    ):
        footprints = [{1, 64, 5}, {0, 2, 69}, {0, 3, 6, 9}, {1, 64, 5}, {10, 11}]
        topology = InterferenceTopology.build(
            num_ues,
            [
                (q, {ue for ue in footprint if ue < num_ues})
                for q, footprint in zip((0.3, 0.5, 0.2, 0.4, 0.6), footprints)
            ],
        )
        provider = TopologyJointProvider(topology)
        tables = provider.fast_tables()
        walks = []
        walk = tables._walk

        def spy(mask, max_streams):
            walks.append(mask)
            return walk(mask, max_streams)

        tables._walk = spy
        for max_streams in (1, 2, 8):
            service = provider.decodable_service(group, max_streams)
            reference = JointAccessProvider.decodable_service(
                provider, group, max_streams
            )
            assert list(service.items()) == sorted(reference.items())
        assert len(walks) == 3

    def test_kernel_holds_a_full_scheduler_group(self):
        assert KERNEL_MAX_MEMBERS == MAX_ORTHOGONAL_PILOTS

    def test_service_vector_matches_decodable_service(self, testbed8):
        provider = TopologyJointProvider(testbed8)
        group = [5, 0, 3]
        vector = provider.service_vector(group, max_streams=2)
        service = provider.decodable_service(frozenset(group), max_streams=2)
        assert vector.shape == (len(group),)
        for j, ue in enumerate(group):
            assert vector[j] == service[ue]


class TestServiceTables:
    """The two service caches behind ``decodable_service``: the compiled
    open-addressing table (kernel-eligible keys) and the dict (the rest)."""

    @staticmethod
    def topology(num_ues=10):
        footprints = [{0, 1}, {1, 2, 3}, {4}, {0, 5, 6}, {7, 8}, {2, 9}, {3, 6}]
        return InterferenceTopology.build(
            num_ues,
            [
                (0.15 + 0.1 * index, {ue for ue in footprint if ue < num_ues})
                for index, footprint in enumerate(footprints)
            ],
        )

    def test_growth_keeps_every_entry_bit_identical(self, monkeypatch):
        if not kernel_available():
            pytest.skip("needs the compiled service table")
        monkeypatch.setattr(provider_module, "_TABLE_INITIAL_CAPACITY", 4)
        provider = TopologyJointProvider(self.topology())
        tables = provider.fast_tables()
        groups = [
            frozenset(group)
            for size in (1, 2, 3)
            for group in itertools.combinations(range(10), size)
        ][::3]
        keys = [(group, m) for group in groups for m in (1, 2)][:80]
        references = {}
        capacities = []
        for index, (group, m) in enumerate(keys):
            references[group, m] = sorted(
                JointAccessProvider.decodable_service(provider, group, m).items()
            )
            provider.decodable_service(group, m)
            capacities.append(tables._keys_m.shape[0])
            # Every entry so far, across every growth, reads back exactly.
            for earlier, earlier_m in keys[: index + 1]:
                mask = sum(1 << ue for ue in earlier)
                service = list(tables.service(mask, earlier_m).items())
                assert service == references[earlier, earlier_m]
                assert service == list(tables._walk(mask, earlier_m).items())
        assert capacities[0] == 4 and capacities[-1] >= 4 * 2**3
        assert sorted(set(capacities)) == [4 * 2**k for k in range(len(set(capacities)))]
        assert tables.cache_size() == len(keys)
        assert tables.misses == len(keys)
        assert not tables._service  # no eligible key fell into the dict

    @pytest.mark.parametrize(
        "num_ues, group",
        [
            (71, frozenset({1, 64, 70})),  # a UE id beyond a 64-bit mask
            (12, frozenset(range(9))),  # more members than an entry holds
        ],
    )
    def test_ineligible_keys_use_the_dict_and_count_once(self, num_ues, group):
        provider = TopologyJointProvider(self.topology(num_ues))
        tables = provider.fast_tables()
        provider.decodable_service(frozenset({0, 1}), 2)  # an eligible key
        before = (tables.hits, tables.misses, tables.cache_size())
        first = provider.decodable_service(group, 2)
        assert (tables.hits, tables.misses, tables.cache_size()) == (
            before[0],
            before[1] + 1,
            before[2] + 1,
        )
        key = (sum(1 << ue for ue in group), 2)
        # The compiled table holds the eligible key only for topologies of
        # at most 64 UEs; otherwise every key lives in the dict.
        if kernel_available() and num_ues <= 64:
            assert list(tables._service) == [key]
        else:
            assert list(tables._service) == [(0b11, 2), key]
        assert provider.decodable_service(group, 2) is first
        assert (tables.hits, tables.misses, tables.cache_size()) == (
            before[0] + 1,
            before[1] + 1,
            before[2] + 1,
        )
        reference = JointAccessProvider.decodable_service(provider, group, 2)
        assert list(first.items()) == sorted(reference.items())

    def test_counters_stay_monotonic_across_a_topology_swap(self):
        topology = self.topology()
        provider = TopologyJointProvider(topology)
        groups = [frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({4, 9})]
        seen = []
        for step in range(3):
            for group in groups + groups:
                provider.decodable_service(group, 2)
                seen.append((provider.cache_hits, provider.cache_misses))
            if step < 2:
                topology = topology.with_terminal(0.5, [step, step + 1])
                provider.topology = topology
        for (hits, misses), (later_hits, later_misses) in zip(seen, seen[1:]):
            assert later_hits >= hits and later_misses >= misses
        # Each topology paid its own misses: 3 per topology, 3 hits each.
        assert seen[-1] == (9, 9)
        assert provider.cache_size() == 3

    def test_ue_ids_from_64_take_the_step_scorer(self, monkeypatch):
        topology = InterferenceTopology.build(
            66, [(0.4, {0, 64}), (0.3, {1, 65}), (0.5, {2, 64, 65}), (0.2, {3})]
        )
        ue_ids = (0, 1, 2, 3, 64, 65)
        rng = np.random.default_rng(5)

        def context():
            return SchedulingContext(
                subframe=0,
                num_rbs=4,
                num_antennas=2,
                ue_ids=ue_ids,
                sinr_db={ue: rng_sinr[ue] for ue in ue_ids},
                avg_throughput_bps={ue: 1e5 * (1 + ue % 5) for ue in ue_ids},
                max_distinct_ues=5,
            )

        rng_sinr = {ue: rng.uniform(0.0, 30.0, size=4) for ue in ue_ids}

        def refuse(*args, **kwargs):
            raise AssertionError("UE ids >= 64 must not reach the kernel walk")

        monkeypatch.setattr(speculative, "_schedule_kernel", refuse)
        scored = []
        step_values = speculative._JointTensorScorer.step_values

        def spy(self, rb, group, candidates):
            scored.append(rb)
            return step_values(self, rb, group, candidates)

        monkeypatch.setattr(
            speculative._JointTensorScorer, "step_values", spy
        )
        fast = SpeculativeScheduler(TopologyJointProvider(topology)).schedule(
            context()
        )
        scalar = ScheduleOracle().schedule(
            SpeculativeScheduler(TopologyJointProvider(topology)), context()
        )
        assert scored
        assert fast == scalar
        granted = {
            grant.ue_id for rb in fast.allocated_rbs() for grant in fast.rb(rb)
        }
        assert granted & {64, 65}



    def test_topologies_beyond_64_ues_keep_every_key_in_the_dict(
        self, monkeypatch
    ):
        """A 70-UE topology gets no compiled table, so its step-scorer hits
        are dict hits; kernel and kernel-free runs agree on services,
        schedules, per-RB utilities and cache counters."""
        topology = InterferenceTopology.build(
            70,
            [(0.4, {0, 64}), (0.3, {1, 65, 69}), (0.5, {2, 64, 65}),
             (0.2, {3}), (0.35, {4, 5, 68})],
        )
        ue_ids = (0, 1, 2, 3, 4, 5, 64, 65, 68, 69)
        rng = np.random.default_rng(11)
        bursts = [
            (
                {ue: rng.uniform(0.0, 30.0, size=6) for ue in ue_ids},
                {ue: 1e5 * (1 + (ue + burst) % 7) for ue in ue_ids},
            )
            for burst in range(4)
        ]
        groups = [frozenset({0, 64}), frozenset({1, 2, 65}), frozenset({3, 69}),
                  frozenset({0, 64})]

        def run(disable_kernel):
            if disable_kernel:
                monkeypatch.setenv("REPRO_DISABLE_KERNEL", "1")
            else:
                monkeypatch.delenv("REPRO_DISABLE_KERNEL", raising=False)
            provider = TopologyJointProvider(topology)
            tables = provider.fast_tables()
            scheduler = SpeculativeScheduler(provider)
            utilities = []
            record = scheduler._record_metrics

            def spy(registry, schedule, rb_utilities):
                utilities.append(dict(rb_utilities))
                record(registry, schedule, rb_utilities)

            scheduler._record_metrics = spy
            trace = []
            with use_registry(MetricsRegistry()):
                for subframe, (sinr, avgs) in enumerate(bursts):
                    schedule = scheduler.schedule(
                        SchedulingContext(
                            subframe=subframe,
                            num_rbs=6,
                            num_antennas=2,
                            ue_ids=ue_ids,
                            sinr_db=sinr,
                            avg_throughput_bps=avgs,
                            max_distinct_ues=6,
                        )
                    )
                    trace.append((schedule, utilities.pop()))
            services = [
                list(provider.decodable_service(group, 2).items())
                for group in groups
            ]
            counters = (tables.hits, tables.misses, tables.cache_size())
            return tables.table_ptr, trace, services, counters

        pure_ptr, pure_trace, pure_services, pure_counters = run(True)
        ptr, trace, services, counters = run(False)
        assert pure_ptr is None and ptr is None
        assert trace == pure_trace
        assert services == pure_services
        assert counters == pure_counters
        assert counters[0] > 0


class TestEmpiricalJointProvider:
    def test_rejects_empty_matrix(self):
        with pytest.raises(TopologyError):
            EmpiricalJointProvider(np.zeros((0, 3), dtype=bool))

    def test_rejects_wrong_dim(self):
        with pytest.raises(TopologyError):
            EmpiricalJointProvider(np.zeros(5, dtype=bool))

    def test_access_probability_counts(self):
        matrix = np.array([[1, 0], [1, 1], [0, 0], [1, 0]], dtype=bool)
        provider = EmpiricalJointProvider(matrix)
        assert provider.access_probability(0) == pytest.approx(0.75)
        assert provider.access_probability(1) == pytest.approx(0.25)

    def test_unknown_ue_rejected(self):
        provider = EmpiricalJointProvider(np.ones((4, 2), dtype=bool))
        with pytest.raises(TopologyError):
            provider.access_probability(5)
        with pytest.raises(TopologyError):
            provider.pattern_distribution(frozenset({0, 9}))

    def test_pattern_distribution_exact_counts(self):
        matrix = np.array([[1, 1], [1, 0], [0, 0], [1, 0]], dtype=bool)
        provider = EmpiricalJointProvider(matrix)
        distribution = provider.pattern_distribution(frozenset({0, 1}))
        assert distribution[frozenset({0, 1})] == pytest.approx(0.25)
        assert distribution[frozenset({0})] == pytest.approx(0.5)
        assert distribution[frozenset()] == pytest.approx(0.25)
        assert frozenset({1}) not in distribution

    def test_converges_to_topology_provider(self, rng):
        topology = make_testbed_topology(num_ues=5, hts_per_ue=1, activity=0.4, seed=2)
        matrix = simulate_clear_matrix(topology, 120_000, rng)
        empirical = EmpiricalJointProvider(matrix)
        exact = TopologyJointProvider(topology)
        group = frozenset({0, 2, 4})
        exact_distribution = exact.pattern_distribution(group)
        empirical_distribution = empirical.pattern_distribution(group)
        for pattern, probability in exact_distribution.items():
            assert empirical_distribution.get(pattern, 0.0) == pytest.approx(
                probability, abs=0.01
            )

    def test_captures_anticorrelation_topology_cannot(self):
        # Alternating clears: P(both clear) = 0 even though marginals are .5.
        matrix = np.array([[1, 0], [0, 1]] * 100, dtype=bool)
        provider = EmpiricalJointProvider(matrix)
        distribution = provider.pattern_distribution(frozenset({0, 1}))
        assert frozenset({0, 1}) not in distribution
        assert distribution[frozenset({0})] == pytest.approx(0.5)
