"""The scalar scheduler flavour: the test oracle for the four schedulers.

``repro.core.scheduling`` builds every schedule from per-burst weight
tables (:class:`~repro.core.scheduling.types.BurstTable`) through
:func:`~repro.core.scheduling.base.build_schedule_fast`, optionally in the
compiled kernels.  This module keeps the formulation those replaced:

* :func:`rate_bps` — one ``r_{i,b}`` from one SINR through the scalar CQI
  table lookup (:func:`repro.lte.mcs.rb_rate_bps`);
* :func:`greedy_group` — Eqn. 3, growing a group one best-marginal client
  at a time through a per-candidate utility callable;
* :func:`build_schedule` — the RB walk over it, under the ``K``
  distinct-client budget;
* the group utilities — PF (Eqn. 1), access-aware (Eqn. 5), the genie
  oracle's vetoed PF, and the speculative Eqn. 4 utility
  (:func:`expected_group_utility`), which re-filters the full pattern
  table per member.

:class:`ScheduleOracle` prices a production scheduler's call through these
on providers of its own over the same topology, so the production
provider's caches and ``scheduler.pattern_cache_*`` counters never see the
oracle.  :func:`checked_schedules` installs it as a class-level spy on the
four schedulers' ``schedule``: each call is compared with the oracle grant
for grant, rate bits included.  The reference engine in
:mod:`tests.reference` runs its schedule stage under that spy, so a
closed-loop run is checked call by call.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.joint.provider import (
    EmpiricalJointProvider,
    JointAccessProvider,
    TopologyJointProvider,
)
from repro.core.scheduling.access_aware import AccessAwareScheduler
from repro.core.scheduling.oracle import OracleScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.core.scheduling.speculative import SpeculativeScheduler
from repro.core.scheduling.types import SchedulingContext
from repro.errors import SchedulingError
from repro.lte import mcs
from repro.lte.phy import mumimo_sinr_penalty_db
from repro.lte.pilots import MAX_ORTHOGONAL_PILOTS
from repro.lte.resources import SubframeSchedule, UplinkGrant

__all__ = [
    "CHECKED_SCHEDULERS",
    "ScheduleOracle",
    "build_schedule",
    "checked_schedules",
    "expected_group_utility",
    "grant_list",
    "greedy_group",
    "pf_weight",
    "rate_bps",
]

GroupUtility = Callable[[Sequence[int]], float]
RbUtility = Callable[[int, Sequence[int]], float]

#: The classes whose ``schedule`` :func:`checked_schedules` spies on
#: (subclasses such as the downlink access-aware scheduler inherit it).
CHECKED_SCHEDULERS = (
    ProportionalFairScheduler,
    AccessAwareScheduler,
    OracleScheduler,
    SpeculativeScheduler,
)


def rate_bps(
    context: SchedulingContext, ue: int, rb: int, streams: int = 1
) -> float:
    """``r_{i,b}`` at a given concurrent-stream count, one entry at a time."""
    penalty = mumimo_sinr_penalty_db(streams, context.num_antennas)
    sinr = float(context.sinr_db[ue][rb]) + penalty - context.link_margin_db
    return context.rate_scale * mcs.rb_rate_bps(sinr)


def pf_weight(
    context: SchedulingContext, ue: int, rb: int, streams: int = 1
) -> float:
    """The PF marginal utility ``r_{i,b} / R_i``."""
    average = max(context.avg_throughput_bps[ue], 1.0)
    return rate_bps(context, ue, rb, streams) / average


def greedy_group(
    candidates: Sequence[int],
    utility: GroupUtility,
    max_size: int,
) -> List[int]:
    """Grow a client group by always adding the best marginal client.

    Mirrors Eqn. 3: starting empty, repeatedly add the client with the
    largest strictly positive incremental utility; stop when none improves
    or the size cap is reached.  Deterministic: ties break toward the
    lowest client id.
    """
    if max_size < 1:
        raise SchedulingError(f"max_size must be positive: {max_size}")
    group: List[int] = []
    current = 0.0
    remaining = sorted(set(candidates))
    while remaining and len(group) < max_size:
        best_ue: Optional[int] = None
        best_value = current
        for ue in remaining:
            value = utility(group + [ue])
            if value > best_value + 1e-15:
                best_ue = ue
                best_value = value
        if best_ue is None:
            break
        group.append(best_ue)
        remaining.remove(best_ue)
        current = best_value
    return group


def build_schedule(
    context: SchedulingContext,
    rb_utility: RbUtility,
    max_group_size: int,
) -> SubframeSchedule:
    """The RB walk: one greedy group per RB under the ``K`` budget.

    Args:
        context: the subframe's scheduling context.
        rb_utility: ``(rb, group) -> expected utility`` for a candidate
            group on that RB.
        max_group_size: cap on clients per RB (``M`` for conventional
            schedulers, ``~2M`` for the speculative one).

    Every grant's MCS assumes ``min(size, M)`` streams (floor 1): the
    largest decodable concurrency.
    """
    size_cap = min(max_group_size, MAX_ORTHOGONAL_PILOTS)
    schedule = SubframeSchedule(num_rbs=context.num_rbs)
    distinct: Set[int] = set()
    for rb in range(context.num_rbs):
        if len(distinct) >= context.max_distinct_ues:
            candidates: Sequence[int] = sorted(distinct)
        else:
            candidates = context.ue_ids
        group = greedy_group(
            candidates, lambda g, rb=rb: rb_utility(rb, g), size_cap
        )
        # The K-budget must hold for the union across RBs: admit the greedy
        # order's prefix of newcomers that still fits the budget.
        allowed_new = context.max_distinct_ues - len(distinct)
        admitted: List[int] = []
        new_count = 0
        for ue in group:
            if ue in distinct:
                admitted.append(ue)
            elif new_count < allowed_new:
                admitted.append(ue)
                new_count += 1
        streams = max(min(len(admitted), context.num_antennas), 1)
        for pilot_index, ue in enumerate(admitted):
            schedule.add_grant(
                UplinkGrant(
                    ue_id=ue,
                    rb=rb,
                    rate_bps=rate_bps(context, ue, rb, streams),
                    pilot_index=pilot_index,
                )
            )
            distinct.add(ue)
    return schedule


def pf_utility(context: SchedulingContext) -> RbUtility:
    """Eqn. 1: the PF sum at the group's stream count."""

    def utility(rb: int, group: Sequence[int]) -> float:
        streams = min(len(group), context.num_antennas)
        if streams == 0:
            return 0.0
        return sum(pf_weight(context, ue, rb, streams) for ue in group)

    return utility


def access_aware_utility(
    context: SchedulingContext, provider: JointAccessProvider
) -> RbUtility:
    """Eqn. 5: the PF sum weighted by individual access probabilities."""

    def utility(rb: int, group: Sequence[int]) -> float:
        streams = min(len(group), context.num_antennas)
        if streams == 0:
            return 0.0
        return sum(
            provider.access_probability(ue)
            * pf_weight(context, ue, rb, streams)
            for ue in group
        )

    return utility


def oracle_utility(context: SchedulingContext) -> RbUtility:
    """PF restricted to the genie's clear clients (others veto to -inf)."""
    clear = context.clear_ues
    pf = pf_utility(context)

    def utility(rb: int, group: Sequence[int]) -> float:
        if any(ue not in clear for ue in group):
            return float("-inf")
        return pf(rb, group)

    return utility


def expected_group_utility(
    provider: JointAccessProvider,
    context: SchedulingContext,
    rb: int,
    group: Sequence[int],
) -> float:
    """Eqn. 4 for one candidate group on one RB.

    Re-filters the group's full pattern table per member and prices every
    decodable outcome at the ``min(|G|, M)``-stream rate.
    """
    if not group:
        return 0.0
    m = context.num_antennas
    s_cap = min(len(group), m)
    table = provider.pattern_table(frozenset(group))
    utility = 0.0
    for ue in group:
        service_probability = sum(
            probability
            for (member, streams), probability in table.items()
            if member == ue and streams <= m
        )
        if service_probability > 0.0:
            utility += service_probability * pf_weight(context, ue, rb, s_cap)
    return utility


def grant_list(schedule: SubframeSchedule) -> List[Tuple[int, int, str, int]]:
    """Every grant as ``(ue, rb, rate.hex(), pilot)``, in RB then pilot
    order — equal lists mean equal schedules, rate bits included."""
    return [
        (grant.ue_id, rb, grant.rate_bps.hex(), grant.pilot_index)
        for rb in schedule.allocated_rbs()
        for grant in schedule.rb(rb)
    ]


class ScheduleOracle:
    """Scalar twin of the production schedulers.

    Keeps one provider of its own per topology (or trace) it has priced
    on; :attr:`checked` counts the calls :meth:`check` compared.
    """

    def __init__(self) -> None:
        self.checked = 0
        # id(source) -> (source, own provider); holding the source keeps
        # its id from being reused while the entry lives.
        self._providers: Dict[int, Tuple[object, JointAccessProvider]] = {}

    def provider_for(
        self, provider: JointAccessProvider
    ) -> JointAccessProvider:
        """A provider of the oracle's own over ``provider``'s model."""
        if isinstance(provider, TopologyJointProvider):
            source, make = provider.topology, TopologyJointProvider
        else:
            source, make = provider._matrix, EmpiricalJointProvider
        entry = self._providers.get(id(source))
        if entry is None:
            entry = self._providers[id(source)] = (source, make(source))
        return entry[1]

    def schedule(
        self, scheduler, context: SchedulingContext
    ) -> SubframeSchedule:
        """The schedule ``scheduler`` must produce for ``context``."""
        antennas = context.num_antennas
        if isinstance(scheduler, SpeculativeScheduler):
            provider = self.provider_for(scheduler.provider)
            max_group = max(
                antennas, math.ceil(scheduler.overschedule_factor * antennas)
            )
            return build_schedule(
                context,
                lambda rb, group: expected_group_utility(
                    provider, context, rb, group
                ),
                max_group,
            )
        if isinstance(scheduler, OracleScheduler):
            utility = oracle_utility(context)
        elif isinstance(scheduler, AccessAwareScheduler):
            utility = access_aware_utility(
                context, self.provider_for(scheduler.provider)
            )
        elif isinstance(scheduler, ProportionalFairScheduler):
            utility = pf_utility(context)
        else:
            raise TypeError(f"no oracle for {type(scheduler).__name__}")
        return build_schedule(context, utility, antennas)

    def check(
        self, scheduler, context: SchedulingContext, schedule: SubframeSchedule
    ) -> None:
        """Raise :class:`AssertionError` unless ``schedule`` is the
        oracle's, grant for grant with rate bits included."""
        expected = grant_list(self.schedule(scheduler, context))
        got = grant_list(schedule)
        if got != expected:
            raise AssertionError(
                f"{type(scheduler).__name__}.schedule diverged from the "
                f"scalar oracle at subframe {context.subframe}: first "
                f"difference {_first_difference(got, expected)}"
            )
        self.checked += 1


def _first_difference(got: list, expected: list) -> str:
    for index, (mine, theirs) in enumerate(zip(got, expected)):
        if mine != theirs:
            return f"grant {index}: {mine} != oracle {theirs}"
    return f"{len(got)} grants != oracle {len(expected)}"


@contextmanager
def checked_schedules(oracle: ScheduleOracle) -> Iterator[ScheduleOracle]:
    """Check every production ``schedule()`` call against ``oracle``.

    Patches each class in :data:`CHECKED_SCHEDULERS` (whatever its
    ``schedule`` currently is) for the duration of the block: the call
    runs unchanged, then :meth:`ScheduleOracle.check` compares its result.
    Class-level, so schedulers built inside the block — the BLU
    controller builds its speculative scheduler only after inference —
    are covered too.
    """
    originals = [(cls, cls.__dict__["schedule"]) for cls in CHECKED_SCHEDULERS]

    def spy(original):
        def schedule(self, context: SchedulingContext) -> SubframeSchedule:
            result = original(self, context)
            oracle.check(self, context, result)
            return result

        return schedule

    for cls, original in originals:
        setattr(cls, "schedule", spy(original))
    try:
        yield oracle
    finally:
        for cls, original in originals:
            setattr(cls, "schedule", original)
