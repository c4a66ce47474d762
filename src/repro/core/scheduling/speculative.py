"""BLU's speculative scheduler (Eqns. 3–4): over-scheduling on purpose.

Per RB, the group is grown greedily (Eqn. 3) beyond ``M`` clients, valuing
each candidate group by its *expected* utility under the joint access
distribution (Eqn. 4): an outcome where the set ``g`` of clients clears CCA
delivers ``sum_{i in g} r_i / R_i`` when ``|g| <= M`` and nothing (a
collision) when ``|g| > M``.  Interference diversity is what makes this
positive-sum: clients silenced by *different* hidden terminals rarely clear
simultaneously, so they can safely share an RB.

The expected utility uses the provider's pattern table
``π[(i, s)] = P(i clears and exactly s scheduled clients clear)``:

``E(G) = sum_{i in G} (r_i(s_cap)/R_i) * sum_{s <= M} π[(i, s)]``

where ``s_cap = min(|G|, M)`` is the stream count the grant's MCS assumes —
the largest decodable concurrency, so any decodable outcome sustains the
granted rate.  (The paper's Eqn. 4 lets the rate vary with the realized
group; a real grant must fix its MCS up front, so we price every decodable
outcome at the ``s_cap`` rate.  This is the conservative choice: realized
outcomes with fewer streams can only beat the granted rate.)

The group size is capped at ``ceil(f * M)`` with ``f = 2`` by default —
the paper observes diminishing returns past ``[M, 2M]``.

Eqn. 4 factors into a blueprint-dependent part (the service probabilities,
fixed while the blueprint is fixed) and a rate-dependent part (the PF
weights, fresh every burst).  The scheduler exploits exactly that split:
service probabilities are memoized per group on the provider's bitmask
tables, PF-weight columns are batched once per burst, and every
candidate's value replays the operation order of the scalar Eqn. 4 oracle
(``tests/reference/scheduling.py``), so selections are bit-identical to
it.  With the compiled kernel loaded (and UE ids below 64) the whole
burst is one ``speculative_fill`` walk over the weight slab and the
provider's compiled service table, bypassing the
:class:`~repro.core.scheduling.base.StepScorer` entirely; otherwise each
greedy step prices its candidates through ``_JointTensorScorer`` (or
``_ServiceMapScorer`` for providers without bitmask tables).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.joint.provider import (
    JointAccessProvider,
    TopologyJointProvider,
)
from repro.core.scheduling._kernel import KERNEL_MAX_SERVICE_SLOTS, kernel
from repro.core.scheduling.base import (
    StepScorer,
    UplinkScheduler,
    _emit_kernel_grants,
    _scratch,
    build_schedule_fast,
)
from repro.core.scheduling.types import BurstTable, SchedulingContext
from repro.errors import SchedulingError
from repro.lte.pilots import MAX_ORTHOGONAL_PILOTS
from repro.lte.resources import SubframeSchedule
from repro.obs.metrics import active_registry

__all__ = ["SpeculativeScheduler"]

#: Group sizes beyond 16 clients/RB are far past the paper's [M, 2M] band.
_DEPTH_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0)
_UTILITY_BUCKETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class _JointTensorScorer(StepScorer):
    """Eqn. 4 step scorer over the provider's bitmask joint tables.

    Keeps the committed group's bitmask along one RB's greedy path; each
    candidate valuation asks the tables for the extended group's service
    map (one int-keyed dict hit once the group recurs) and accumulates
    ``service · weight`` in committed-group order — the identical float
    sequence the scalar Eqn. 4 utility produces.
    """

    __slots__ = (
        "_tables",
        "_table",
        "_max_streams",
        "_mask",
        "_members",
    )

    def __init__(self, tables, table, max_streams: int) -> None:
        self._tables = tables
        self._table = table
        self._max_streams = max_streams
        self._mask = 0
        self._members: List[int] = []

    def start_rb(self, rb: int) -> None:
        self._mask = 0
        self._members = []

    def step_values(
        self, rb: int, group: Sequence[int], candidates: Sequence[int]
    ) -> Sequence[float]:
        max_streams = self._max_streams
        size = len(group) + 1
        weights = self._table.weight_row(
            size if size < max_streams else max_streams, rb
        )
        service_for = self._tables.service
        mask = self._mask
        members = self._members
        values = []
        for candidate in candidates:
            service = service_for(mask | (1 << candidate), max_streams)
            total = 0.0
            for ue in members:
                probability = service[ue]
                if probability > 0.0:
                    total += probability * weights[ue]
            probability = service[candidate]
            if probability > 0.0:
                total += probability * weights[candidate]
            values.append(total)
        return values

    def commit(self, ue: int) -> None:
        self._mask |= 1 << ue
        self._members.append(ue)

    def value(self, rb: int, group: Sequence[int]) -> float:
        if not group:
            return 0.0
        max_streams = self._max_streams
        size = len(group)
        weights = self._table.weight_row(
            size if size < max_streams else max_streams, rb
        )
        mask = 0
        for ue in group:
            mask |= 1 << ue
        service = self._tables.service(mask, max_streams)
        total = 0.0
        for ue in group:
            probability = service[ue]
            if probability > 0.0:
                total += probability * weights[ue]
        return total


def _schedule_kernel(
    context: SchedulingContext,
    table: BurstTable,
    size_cap: int,
    max_streams: int,
    tables,
    rb_utilities: Optional[Dict[int, float]],
    lib,
) -> SubframeSchedule:
    """One burst through the compiled ``speculative_fill`` walk.

    The kernel runs :func:`build_schedule_fast`'s walk with
    ``_JointTensorScorer``'s valuation over the unboxed weight slab (one
    call per computed RB window) and the provider's compiled service
    table, so groups, admission, grants, utilities and the table's
    hit/miss counts equal the scorer path's.  The table is grown once up
    front for the burst's worst case — every candidate of every greedy
    step a new key, plus one trimmed group per RB — so no call can run
    out of room half-way.
    """
    num_rbs = context.num_rbs
    schedule = SubframeSchedule.empty(num_rbs)
    candidates = sorted(set(context.ue_ids))
    if not candidates:
        return schedule
    n_slots = table.num_slots
    cand = np.asarray(candidates, dtype=np.int64)
    scratch = _scratch(num_rbs, size_cap, n_slots)
    out_sizes, out_members, out_utils = scratch[1:4]
    flags_ptr, sizes_ptr, members_ptr, utils_ptr = scratch[4:]
    tables.reserve(num_rbs * (size_cap * len(candidates) + 1))
    table_ptr = tables.table_ptr
    fill = lib.speculative_fill
    want_utils = rb_utilities is not None
    max_new = context.max_distinct_ues
    rb = 0
    while rb < num_rbs:
        end = table.ensure_window(rb)
        slab = table.weights_tensor
        max_new = fill(
            slab.ctypes.data,
            n_slots,
            slab.shape[2],
            rb,
            end,
            size_cap,
            max_streams,
            cand.ctypes.data,
            cand.shape[0],
            flags_ptr,
            max_new,
            sizes_ptr,
            members_ptr,
            utils_ptr,
            want_utils,
            table_ptr,
        )
        if max_new < 0:
            raise SchedulingError(
                f"speculative kernel rejected its inputs ({max_new})"
            )
        _emit_kernel_grants(
            schedule.rb_schedules,
            context.num_antennas,
            rb,
            end,
            0,
            out_sizes,
            out_members,
            out_utils,
            table.rates_tensor,
            None,
            rb_utilities,
        )
        rb = end
    return schedule


class _ServiceMapScorer(StepScorer):
    """Eqn. 4 step scorer for providers without bitmask tables.

    Falls back to :meth:`JointAccessProvider.decodable_service` (one
    pattern-table pass per candidate group instead of one per candidate
    *member*) — the empirical-trace provider takes this path.
    """

    __slots__ = ("_provider", "_table", "_max_streams", "_members")

    def __init__(self, provider, table, max_streams: int) -> None:
        self._provider = provider
        self._table = table
        self._max_streams = max_streams
        self._members: List[int] = []

    def start_rb(self, rb: int) -> None:
        self._members = []

    def step_values(
        self, rb: int, group: Sequence[int], candidates: Sequence[int]
    ) -> Sequence[float]:
        max_streams = self._max_streams
        size = len(group) + 1
        weights = self._table.weight_row(
            size if size < max_streams else max_streams, rb
        )
        members = self._members
        member_set = frozenset(members)
        values = []
        for candidate in candidates:
            service = self._provider.decodable_service(
                member_set | {candidate}, max_streams
            )
            total = 0.0
            for ue in members:
                probability = service[ue]
                if probability > 0.0:
                    total += probability * weights[ue]
            probability = service[candidate]
            if probability > 0.0:
                total += probability * weights[candidate]
            values.append(total)
        return values

    def commit(self, ue: int) -> None:
        self._members.append(ue)

    def value(self, rb: int, group: Sequence[int]) -> float:
        if not group:
            return 0.0
        max_streams = self._max_streams
        size = len(group)
        weights = self._table.weight_row(
            size if size < max_streams else max_streams, rb
        )
        service = self._provider.decodable_service(
            frozenset(group), max_streams
        )
        total = 0.0
        for ue in group:
            probability = service[ue]
            if probability > 0.0:
                total += probability * weights[ue]
        return total


class SpeculativeScheduler(UplinkScheduler):
    """BLU: PF transformed into a speculative over-scheduler."""

    name = "blu"

    def __init__(
        self,
        provider: JointAccessProvider,
        overschedule_factor: float = 2.0,
    ) -> None:
        if overschedule_factor < 1.0:
            raise SchedulingError(
                f"overschedule factor must be >= 1: {overschedule_factor}"
            )
        self.provider = provider
        self.overschedule_factor = float(overschedule_factor)
        #: Schedule calls served (the engine benchmarks read it).
        self.fast_path_schedules = 0
        #: Provider counter values already published to the obs registry.
        self._published_cache_hits = 0
        self._published_cache_misses = 0

    def schedule(self, context: SchedulingContext) -> SubframeSchedule:
        max_group = max(
            context.num_antennas,
            math.ceil(self.overschedule_factor * context.num_antennas),
        )
        registry = active_registry()
        rb_utilities: Optional[Dict[int, float]] = (
            {} if registry is not None else None
        )
        max_streams = min(context.num_antennas, MAX_ORTHOGONAL_PILOTS)
        table = BurstTable(context, max_streams)
        provider = self.provider
        scorer: Optional[StepScorer] = None
        if isinstance(provider, TopologyJointProvider):
            tables = provider.fast_tables()
            lib = kernel()
            if (
                lib is not None
                and tables.table_ptr is not None
                and table.num_slots <= KERNEL_MAX_SERVICE_SLOTS
            ):
                schedule = _schedule_kernel(
                    context,
                    table,
                    min(max_group, MAX_ORTHOGONAL_PILOTS),
                    max_streams,
                    tables,
                    rb_utilities,
                    lib,
                )
            else:
                scorer = _JointTensorScorer(tables, table, max_streams)
        else:
            scorer = _ServiceMapScorer(provider, table, max_streams)
        if scorer is not None:
            schedule = build_schedule_fast(
                context,
                max_group_size=max_group,
                table=table,
                scorer=scorer,
                rb_utilities=rb_utilities,
            )
        self.fast_path_schedules += 1
        if registry is not None:
            self._record_metrics(registry, schedule, rb_utilities)
        return schedule

    def _record_metrics(
        self,
        registry,
        schedule: SubframeSchedule,
        rb_utilities: Dict[int, float],
    ) -> None:
        """Observe over-schedule depth and expected utility of one burst.

        The per-RB utilities are the ones the greedy walk already computed
        (both builders fill ``rb_utilities`` for every allocated RB), so
        metrics never re-price a burst.
        """
        registry.counter(
            "scheduler.schedule_calls",
            help="speculative schedule() invocations (grant bursts)",
        ).inc()
        depth = registry.histogram(
            "scheduler.overschedule_depth",
            buckets=_DEPTH_BUCKETS,
            help="clients granted per allocated RB",
        )
        expected = registry.histogram(
            "scheduler.expected_utility",
            buckets=_UTILITY_BUCKETS,
            help="Eqn. 4 expected utility of each grant burst",
        )
        total = 0.0
        for rb in schedule.allocated_rbs():
            depth.observe(len(schedule.rb(rb)))
            total += rb_utilities[rb]
        expected.observe(total)
        self._record_cache_metrics(registry)

    def _record_cache_metrics(self, registry) -> None:
        """Publish provider cache behaviour (counter deltas + size gauge)."""
        provider = self.provider
        hits = getattr(provider, "cache_hits", None)
        if hits is None:
            return
        misses = provider.cache_misses
        registry.counter(
            "scheduler.pattern_cache_hits",
            help="joint-access provider cache hits (all cache layers)",
        ).inc(hits - self._published_cache_hits)
        registry.counter(
            "scheduler.pattern_cache_misses",
            help="joint-access provider cache misses (all cache layers)",
        ).inc(misses - self._published_cache_misses)
        self._published_cache_hits = hits
        self._published_cache_misses = misses
        cache_size = getattr(provider, "cache_size", None)
        if cache_size is not None:
            registry.gauge(
                "scheduler.pattern_cache_size",
                help="memoized joint-access entries across cache layers",
            ).set(cache_size())
