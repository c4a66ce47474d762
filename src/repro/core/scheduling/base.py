"""Scheduler base class and the shared greedy per-RB group builder.

All four schedulers (PF, access-aware, speculative, oracle) share the same
skeleton: walk the RBs of the subframe, greedily grow the client group on
each RB by the scheduler-specific expected-utility function (Eqn. 3), and
respect the control-channel budget of ``K`` distinct clients per subframe.
They differ only in how a candidate group is valued and how large it may
grow.

:func:`build_schedule_fast` implements the skeleton: utilities come from
per-burst weight columns (plain sums for PF-family schedulers, dot products
of cached service-probability vectors and weight columns for the
speculative one, via a :class:`StepScorer`), and grant rates from per-burst
rate columns.  With the compiled kernel loaded, the linear walk runs as
``greedy_fill`` (see ``_kernel``); otherwise it is interpreted.  The greedy
scan itself (ascending id order, strict ``1e-15`` improvement over the
running best) is a sequential recurrence in both, which is what makes
near-tie behaviour reproducible.

The scalar form of the walk — per-candidate utility callables, per-grant
rate lookups — is the test oracle in ``tests/reference/scheduling.py``;
every schedule the reference engine makes is checked against it, grant for
grant with rate bits included.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.scheduling._kernel import KERNEL_MAX_SLOTS, kernel
from repro.core.scheduling.types import (
    BurstTable,
    CompactColumns,
    SchedulingContext,
    compact_tensors,
)
from repro.errors import SchedulingError
from repro.lte.pilots import MAX_ORTHOGONAL_PILOTS
from repro.lte.resources import SubframeSchedule, UplinkGrant

__all__ = [
    "UplinkScheduler",
    "StepScorer",
    "build_schedule_fast",
]


class UplinkScheduler(abc.ABC):
    """Interface: one uplink subframe in, one schedule out."""

    #: Human-readable identifier used in results and reports.
    name: str = "scheduler"

    @abc.abstractmethod
    def schedule(self, context: SchedulingContext) -> SubframeSchedule:
        """Produce the grants for one uplink subframe."""


class StepScorer(abc.ABC):
    """Values every candidate extension of the current group in one call.

    The contract behind :func:`build_schedule_fast`'s non-linear path: the
    greedy loop owns selection (the ``1e-15`` chain scan), the scorer owns
    valuation.  A scorer is stateful along one RB's greedy path —
    ``start_rb`` resets it, ``step_values`` prices ``group + [c]`` for
    every remaining candidate ``c`` (reusing whatever incremental state the
    committed group has built), and ``commit`` extends that state when the
    loop accepts a candidate.  Every returned value must be bit-identical
    to the scheduler's scalar group utility for the same candidate group
    (the oracle's, in ``tests/reference/scheduling.py``).
    """

    @abc.abstractmethod
    def start_rb(self, rb: int) -> None:
        """Reset per-RB state; the group is empty again."""

    @abc.abstractmethod
    def step_values(
        self, rb: int, group: Sequence[int], candidates: Sequence[int]
    ) -> Sequence[float]:
        """Utility of ``group + [c]`` for each candidate, in order."""

    @abc.abstractmethod
    def commit(self, ue: int) -> None:
        """The greedy loop accepted ``ue``; extend incremental state."""

    @abc.abstractmethod
    def value(self, rb: int, group: Sequence[int]) -> float:
        """Utility of an arbitrary group (used when the K-budget trims)."""


def _emit_kernel_grants(
    rb_schedules: Dict[int, "RBSchedule"],
    antennas: int,
    col_start: int,
    col_end: int,
    offset: int,
    out_sizes: np.ndarray,
    out_members: np.ndarray,
    out_utils: np.ndarray,
    rates: np.ndarray,
    ids: Optional[List[int]],
    rb_utilities: Optional[Dict[int, float]],
) -> None:
    """Turn one kernel call's outputs into grants.

    ``rates`` is the unboxed ``(streams, slot, col)`` tensor matching the
    weight slab the kernel scanned; the granted rates are boxed in one
    fancy-index gather over the zero-padded member block (the gather reads
    each float untouched, and padding entries are sliced away before the
    grants are built).  ``ids`` maps compact slots back to UE ids
    (``None`` when slots already are UE ids).
    """
    counts = out_sizes[col_start:col_end]
    sizes = counts.tolist()
    member_block = out_members[col_start:col_end]
    members = member_block.tolist()
    layers = np.minimum(counts, antennas) - 1
    cols = np.arange(col_start, col_end)
    values = rates[layers[:, None], member_block, cols[:, None]].tolist()
    utils = (
        out_utils[col_start:col_end].tolist()
        if rb_utilities is not None
        else None
    )
    base = offset + col_start
    new = tuple.__new__
    grant = UplinkGrant
    for local, count in enumerate(sizes):
        if not count:
            continue
        slots = members[local]
        if count < len(slots):
            slots = slots[:count]
        rb = base + local
        row = values[local]
        # Fresh RBSchedules straight from `SubframeSchedule.empty`: build
        # the grant list directly (grant_group's start/index bookkeeping
        # is vacuous here — the RB has no prior grants and lazy caches).
        if ids is None:
            rb_schedules[rb].grants = [
                new(grant, (slot, rb, row[pilot], pilot))
                for pilot, slot in enumerate(slots)
            ]
        else:
            rb_schedules[rb].grants = [
                new(grant, (ids[slot], rb, row[pilot], pilot))
                for pilot, slot in enumerate(slots)
            ]
        if utils is not None:
            rb_utilities[rb] = utils[local]


#: Reused kernel scratch buffers, keyed by ``(num_rbs, size_cap, n_slots)``:
#: the admitted-slot flags plus the kernel's per-column output arrays, with
#: their raw pointers.  Scheduling runs single-threaded inside one engine
#: process (the resilience harness forks whole processes), so reuse is safe;
#: the flags are re-zeroed every call and the outputs are fully overwritten
#: for every column the driver reads.
_SCRATCH: Dict[
    Tuple[int, int, int],
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int, int, int],
] = {}


def _scratch(num_rbs: int, size_cap: int, n_slots: int):
    key = (num_rbs, size_cap, n_slots)
    entry = _SCRATCH.get(key)
    if entry is None:
        flags = np.zeros(n_slots, dtype=np.uint8)
        out_sizes = np.empty(num_rbs, dtype=np.int64)
        out_members = np.empty((num_rbs, size_cap), dtype=np.int64)
        out_utils = np.empty(num_rbs, dtype=np.float64)
        entry = (
            flags,
            out_sizes,
            out_members,
            out_utils,
            flags.ctypes.data,
            out_sizes.ctypes.data,
            out_members.ctypes.data,
            out_utils.ctypes.data,
        )
        if len(_SCRATCH) > 64:
            _SCRATCH.clear()
        _SCRATCH[key] = entry
    else:
        entry[0][:] = 0
    return entry


def _build_schedule_kernel(
    context: SchedulingContext,
    table: BurstTable,
    size_cap: int,
    rb_utilities: Optional[Dict[int, float]],
    lib,
) -> SubframeSchedule:
    """RB walk driven by the compiled greedy kernel (linear utilities).

    The walk has two phases, matching the interpreted flavour exactly:
    full-width windows until the distinct-client budget saturates, then
    one compact pass over the admitted clients for the remaining RBs.
    The kernel runs the identical greedy recurrence over the unboxed
    weight tensors (see ``_kernel``), so groups, admission, and grants
    are bit-identical to the interpreted scan — no float is ever boxed
    except the granted rates themselves.
    """
    antennas = context.num_antennas
    num_rbs = context.num_rbs
    schedule = SubframeSchedule.empty(num_rbs)
    candidates = sorted(set(context.ue_ids))
    if not candidates:
        return schedule
    rb_schedules = schedule.rb_schedules
    n_slots = table.num_slots
    cand = np.asarray(candidates, dtype=np.int64)
    cand_ptr = cand.ctypes.data
    (
        flags,
        out_sizes,
        out_members,
        out_utils,
        flags_ptr,
        sizes_ptr,
        members_ptr,
        utils_ptr,
    ) = _scratch(num_rbs, size_cap, n_slots)
    fill = lib.greedy_fill
    max_new = context.max_distinct_ues
    rb = 0
    while rb < num_rbs and max_new > 0:
        end = table.ensure_window(rb)
        slab = table.weights_tensor
        max_new = fill(
            slab.ctypes.data,
            n_slots,
            slab.shape[2],
            rb,
            end,
            size_cap,
            antennas,
            cand_ptr,
            cand.shape[0],
            flags_ptr,
            max_new,
            sizes_ptr,
            members_ptr,
            utils_ptr,
        )
        if max_new < 0:
            raise SchedulingError("greedy kernel rejected its inputs")
        _emit_kernel_grants(
            rb_schedules,
            antennas,
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
    if rb < num_rbs:
        # Saturated: remaining RBs scan compact columns of the admitted
        # set (slots are positions in the ascending id list, so scan
        # order and tie-breaks match the full-width walk exactly).
        ids = np.nonzero(flags)[0]
        if not ids.size:
            return schedule
        rates, weights = compact_tensors(table, ids, rb)
        weights = np.ascontiguousarray(weights)
        cols = num_rbs - rb
        members = np.ones(ids.size, dtype=np.uint8)
        status = fill(
            weights.ctypes.data,
            ids.size,
            cols,
            0,
            cols,
            size_cap,
            antennas,
            cand_ptr,
            0,
            members.ctypes.data,
            0,
            sizes_ptr,
            members_ptr,
            utils_ptr,
        )
        if status < 0:
            raise SchedulingError("greedy kernel rejected its inputs")
        _emit_kernel_grants(
            rb_schedules,
            antennas,
            0,
            cols,
            rb,
            out_sizes,
            out_members,
            out_utils,
            rates,
            ids.tolist(),
            rb_utilities,
        )
    return schedule


def build_schedule_fast(
    context: SchedulingContext,
    max_group_size: int,
    table: Optional[BurstTable] = None,
    scorer: Optional[StepScorer] = None,
    rb_utilities: Optional[Dict[int, float]] = None,
) -> SubframeSchedule:
    """The RB-walking schedule builder: greedy walk, batched valuation.

    Candidate valuation reads a per-burst :class:`BurstTable` instead of
    calling per-candidate utility closures:

    * ``table.weight_row(streams, rb)`` — per-client PF weights for linear
      utilities (PF, access-aware, oracle); the greedy step for a group of
      size ``k`` reads the single row at ``streams = min(k + 1, M)``;
    * ``scorer`` — a :class:`StepScorer` for non-linear utilities (the
      speculative scheduler's Eqn. 4 dot products); the table then only
      supplies grant rates;
    * ``table.rate_row(streams, rb)`` — grant rates.

    Once the ``K`` distinct-client budget saturates, the linear path
    switches to :class:`~repro.core.scheduling.types.CompactColumns` from
    ``table.compact``: the candidate set is frozen (only already-admitted
    clients may be granted, admission can never trim), so the remaining
    RBs scan ``K``-wide compact rows instead of dense UE-id rows.

    All schedulers share the stream-count rule ``min(size, M)`` (floor 1),
    so it is inlined rather than passed in.  Selections and grants are
    bit-identical to the scalar oracle's walk with the same utility: the
    table holds the same IEEE floats the scalar formula computes, and the
    greedy scan is the same sequential recurrence — the acceptance
    threshold ``best_value + 1e-15`` is hoisted and refreshed only when
    ``best_value`` changes, which is exactly when the scalar walk's
    recomputed bound changes.
    """
    if table is None:
        raise SchedulingError("build_schedule_fast needs a BurstTable")
    size_cap = min(max_group_size, MAX_ORTHOGONAL_PILOTS)
    if size_cap < 1:
        raise SchedulingError(f"max_size must be positive: {size_cap}")
    if scorer is None:
        lib = kernel()
        if lib is not None and table.num_slots <= KERNEL_MAX_SLOTS:
            return _build_schedule_kernel(
                context, table, size_cap, rb_utilities, lib
            )
    antennas = context.num_antennas
    max_distinct = context.max_distinct_ues
    schedule = SubframeSchedule.empty(context.num_rbs)
    rb_schedules = schedule.rb_schedules
    distinct: Set[int] = set()
    all_candidates = sorted(set(context.ue_ids))
    weight_row = table.weight_row
    compact: Optional[CompactColumns] = None
    saturated_candidates: Optional[List[int]] = None
    for rb in range(context.num_rbs):
        saturated = len(distinct) >= max_distinct
        if saturated and scorer is None:
            # Post-saturation: the candidate set is frozen to the K
            # admitted clients, so admission is the identity and the scan
            # runs over K-wide compact rows (compact index == position in
            # the ascending id list, so scan order and tie-breaks match
            # the full-width walk exactly).
            if compact is None:
                compact = table.compact(sorted(distinct), start=rb)
            ids = compact.ids
            compact_rows = compact.weight_rows
            remaining = list(range(len(ids)))
            group: List[int] = []
            current = 0.0
            while remaining and len(group) < size_cap:
                size = len(group) + 1
                weights = compact_rows[
                    size if size < antennas else antennas
                ][rb]
                base = 0.0
                for member in group:
                    base += weights[member]
                best_index = -1
                best_value = current
                threshold = current + 1e-15
                for index, candidate in enumerate(remaining):
                    value = base + weights[candidate]
                    if value > threshold:
                        best_index = index
                        best_value = value
                        threshold = value + 1e-15
                if best_index < 0:
                    break
                group.append(remaining.pop(best_index))
                current = best_value
            if not group:
                continue
            if rb_utilities is not None:
                rb_utilities[rb] = current
            size = len(group)
            streams = size if size < antennas else antennas
            rates = compact.rate_row(streams, rb)
            rb_schedules[rb].grant_group(
                [ids[candidate] for candidate in group],
                [rates[candidate] for candidate in group],
            )
            continue
        if saturated:
            if saturated_candidates is None:
                saturated_candidates = sorted(distinct)
            remaining = list(saturated_candidates)
        else:
            remaining = list(all_candidates)
        group = []
        current = 0.0
        if scorer is None:
            # Linear utilities: value = (sum of member weights) + w[c].
            while remaining and len(group) < size_cap:
                size = len(group) + 1
                weights = weight_row(
                    size if size < antennas else antennas, rb
                )
                base = 0.0
                for member in group:
                    base += weights[member]
                best_index = -1
                best_value = current
                threshold = current + 1e-15
                for index, ue in enumerate(remaining):
                    value = base + weights[ue]
                    if value > threshold:
                        best_index = index
                        best_value = value
                        threshold = value + 1e-15
                if best_index < 0:
                    break
                group.append(remaining.pop(best_index))
                current = best_value
        else:
            scorer.start_rb(rb)
            while remaining and len(group) < size_cap:
                values = scorer.step_values(rb, group, remaining)
                best_index = -1
                best_value = current
                threshold = current + 1e-15
                for index, value in enumerate(values):
                    if value > threshold:
                        best_index = index
                        best_value = value
                        threshold = value + 1e-15
                if best_index < 0:
                    break
                ue = remaining.pop(best_index)
                group.append(ue)
                scorer.commit(ue)
                current = best_value
        allowed_new = max_distinct - len(distinct)
        admitted: List[int] = []
        new_count = 0
        for ue in group:
            if ue in distinct:
                admitted.append(ue)
            elif new_count < allowed_new:
                admitted.append(ue)
                new_count += 1
        if not admitted:
            continue
        size = len(admitted)
        if rb_utilities is not None:
            if size == len(group):
                rb_utilities[rb] = current
            elif scorer is not None:
                rb_utilities[rb] = scorer.value(rb, admitted)
            else:
                weights = weight_row(
                    size if size < antennas else antennas, rb
                )
                trimmed = 0.0
                for ue in admitted:
                    trimmed += weights[ue]
                rb_utilities[rb] = trimmed
        streams = size if size < antennas else antennas
        rates = table.rate_row(streams, rb)
        rb_schedules[rb].grant_group(
            admitted, [rates[ue] for ue in admitted]
        )
        if new_count:
            distinct.update(admitted)
            saturated_candidates = None
    return schedule
