"""Joint-access providers: the probability oracle behind the schedulers.

A provider answers, for any small client group ``G``:

* ``access_probability(i)`` — the marginal ``p(i)``;
* ``pattern_distribution(G)`` — the full joint pmf over which subset of
  ``G`` clears CCA in a subframe;
* ``pattern_table(G)`` — the derived table ``π[(i, s)] = P(i clear and
  exactly s members of G clear)`` that the speculative scheduler's expected
  utility (Eqn. 4) consumes directly;
* ``joint_probability(U, V)`` — ``P(U clear, V blocked)``.

Two implementations:

* :class:`TopologyJointProvider` — exact, from an (inferred or ground-truth)
  :class:`~repro.topology.graph.InterferenceTopology`.  The pmf over clear
  patterns is built by convolving the independent hidden terminals, grouped
  by their footprint inside ``G``; cost is linear in the number of
  terminals and in the number of *realizable* patterns, so group sizes up to
  ``2M`` are cheap.  Results are memoized: the scheduler re-queries the same
  groups every TxOP while only rates change.  The scheduler's service
  queries go through int-bitmask tables; when the compiled kernel library
  is available they live in a C-side hash table that the compiled
  speculative walk reads directly, and misses run in compiled code.
* :class:`EmpiricalJointProvider` — counts patterns in a recorded clear/
  blocked matrix, the "directly from the traces" mode of Fig. 15.
"""

from __future__ import annotations

import ctypes
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.graph import InterferenceTopology

__all__ = [
    "JointAccessProvider",
    "TopologyJointProvider",
    "EmpiricalJointProvider",
]

PatternDistribution = Dict[FrozenSet[int], float]
PatternTable = Dict[Tuple[int, int], float]

_U64 = (1 << 64) - 1
#: Entries of a fresh compiled table (it doubles as it fills).
_TABLE_INITIAL_CAPACITY = 256
#: Largest topology that gets a compiled table.  The compiled walk takes
#: only UE ids below 64; beyond that the scheduler prices through the step
#: scorer, which reads :meth:`_FastJointTables.service` at dict speed.
_TABLE_MAX_UES = 64


def _members(mask: int) -> List[int]:
    """The UE ids of a group bitmask, ascending."""
    members = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        members.append(bit.bit_length() - 1)
    return members


class JointAccessProvider:
    """Interface shared by topology-driven and trace-driven providers."""

    def access_probability(self, ue: int) -> float:
        raise NotImplementedError

    def pattern_distribution(self, group: FrozenSet[int]) -> PatternDistribution:
        """Joint pmf: clear-subset of ``group`` -> probability."""
        raise NotImplementedError

    def pattern_table(self, group: FrozenSet[int]) -> PatternTable:
        """``π[(i, s)]``: probability that ``i`` clears and exactly ``s``
        members of ``group`` (including ``i``) clear."""
        distribution = self.pattern_distribution(group)
        table: PatternTable = {}
        for clear_set, prob in distribution.items():
            size = len(clear_set)
            for ue in clear_set:
                key = (ue, size)
                table[key] = table.get(key, 0.0) + prob
        return table

    def decodable_service(
        self, group: FrozenSet[int], max_streams: int
    ) -> Dict[int, float]:
        """Per-UE decodable-service probability ``Σ_{s≤M} π[(i, s)]``.

        One pass over the pattern table derives the per-group sums every
        member's Eqn. 4 term needs — replacing the O(|table|·|G|) scan of
        re-filtering the full table per UE.  Accumulation per UE follows
        the table's insertion order (each UE's entries are summed in the
        same sequence the per-UE filter would visit them), so the values
        are bit-identical to the scalar scan.
        """
        service = {ue: 0.0 for ue in group}
        for (member, streams), probability in self.pattern_table(
            group
        ).items():
            if streams <= max_streams:
                service[member] += probability
        return service

    def service_vector(
        self, group: Sequence[int], max_streams: int
    ) -> np.ndarray:
        """:meth:`decodable_service` as a dense vector over ``group``.

        The joint-access tensor view: entry ``j`` is the decodable-service
        probability of ``group[j]``.  The greedy hot path consumes the
        dict form (its Python accumulation order is part of the
        bit-exactness contract); the vector form serves analysis and
        vectorized consumers.
        """
        service = self.decodable_service(frozenset(group), max_streams)
        return np.array([service[ue] for ue in group], dtype=float)

    def joint_probability(
        self, clear_ues: Sequence[int], blocked_ues: Sequence[int] = ()
    ) -> float:
        clear = frozenset(clear_ues)
        blocked = frozenset(blocked_ues)
        if clear & blocked:
            raise TopologyError(
                f"UEs cannot be both clear and blocked: {sorted(clear & blocked)}"
            )
        group = clear | blocked
        distribution = self.pattern_distribution(group)
        # The pmf is keyed by clear pattern, so the answer is one lookup —
        # no need to scan the (possibly 2^|G|-sized) distribution.
        return distribution.get(clear, 0.0)


class _FastJointTables:
    """Int-bitmask mirror of one topology's pattern machinery.

    The speculative scheduler queries service probabilities per candidate
    group at every greedy step; this class answers those queries with
    integer bitmask keys ``(group mask, M)`` and memoizes each group's
    answer forever, in one of two caches:

    * **the compiled service table** — when the kernel library is loaded
      and the topology has at most 64 UEs, every key it can hold (at
      most ``KERNEL_MAX_MEMBERS`` members — the scheduler's group cap,
      ``M`` non-negative) lives in an open-addressing table whose
      buffers are numpy arrays owned here (``joint_lookup`` in
      ``core/scheduling/_kernel.py``).  The compiled speculative walk
      (``speculative_fill``) reads and fills it directly; :meth:`service`
      reads the same entries, so a key is never held twice.  A miss runs
      the compiled ``joint_service`` straight into the entry.  Before a
      caller may insert, :meth:`reserve` grows the buffers (doubling, via
      ``joint_rehash``) to keep the load at or below one half.
    * **a dict** of ``{ue: probability}`` maps — keys the table refuses,
      and every key of a topology with more than 64 UEs or on machines
      without the kernel; misses run the Python walk in :meth:`_walk`.

    ``hits``, ``misses`` and :meth:`cache_size` sum both caches.  Either
    miss path costs one pass over the topology's terminals plus the
    group's realizable patterns.

    Bit-exactness: the reference implementation's floats depend on dict
    insertion orders (footprints first seen in terminal order; blocked
    sets convolved in that order; per-UE sums accumulated in pattern
    order).  The bitmask keys are a bijection of the frozenset keys, and
    both the walk and the kernel visit keys in the same order the
    reference does, so every product and sum is the identical IEEE
    operation sequence.  That is also why the blocked-set convolution is
    *not* resumed from a parent group's pmf: folding a new member's
    factors after the parent's would change the multiplication
    association wherever its terminals interleave, so each distinct
    group's convolution runs once, from scratch.
    """

    def __init__(self, topology: InterferenceTopology) -> None:
        # Imported here: the scheduling package imports this module.
        from repro.core.scheduling._kernel import (
            KERNEL_MAX_MEMBERS,
            TABLE_FULL,
            kernel,
        )

        self.idle = tuple(1.0 - q for q in topology.q)
        term_masks = []
        for edge_set in topology.edges:
            mask = 0
            for ue in edge_set:
                mask |= 1 << ue
            term_masks.append(mask)
        self.term_masks = tuple(term_masks)
        #: (group mask, max streams) -> {ue: decodable-service probability}
        #: for the keys the compiled table does not hold.
        self._service: Dict[Tuple[int, int], Dict[int, float]] = {}
        self._dict_hits = 0
        self._dict_misses = 0
        #: Service probabilities per compiled-table entry.
        self._width = KERNEL_MAX_MEMBERS
        self._table_full = TABLE_FULL
        #: {capacity, hits, misses, size}, written by the kernel (all zero
        #: without it).
        self._meta = np.zeros(4, dtype=np.int64)
        lib = kernel() if topology.num_ues <= _TABLE_MAX_UES else None
        #: The compiled table's lookup (``None`` without the kernel).
        self._kernel = None if lib is None else lib.joint_lookup
        #: Address of the compiled table's ``ServiceTable`` descriptor,
        #: which every kernel call takes (``None`` without the kernel).
        self.table_ptr: Optional[int] = None
        if lib is not None:
            self._rehash = lib.joint_rehash
            # Masks cut to 64 bits: a table-eligible group lies below
            # bit 64, so ``term & group`` is unchanged by the cut.
            masks = np.array([m & _U64 for m in term_masks], dtype=np.uint64)
            idle = np.array(self.idle, dtype=np.float64)
            self._topology_arrays = (masks, idle)  # alive while C reads them
            self._allocate(_TABLE_INITIAL_CAPACITY)

    def _allocate(self, capacity: int) -> None:
        """Point the table at fresh, empty buffers of ``capacity`` entries."""
        from repro.core.scheduling._kernel import ServiceTable

        self._keys_mask = np.zeros(capacity, dtype=np.uint64)
        self._keys_m = np.full(capacity, -1, dtype=np.int64)
        self._values = np.zeros((capacity, self._width), dtype=np.float64)
        self._meta[0] = capacity
        masks, idle = self._topology_arrays
        self._table = ServiceTable(
            masks.ctypes.data,
            idle.ctypes.data,
            len(masks),
            self._keys_mask.ctypes.data,
            self._keys_m.ctypes.data,
            self._values.ctypes.data,
            self._meta.ctypes.data,
        )
        self.table_ptr = ctypes.addressof(self._table)

    def reserve(self, inserts: int) -> None:
        """Grow the compiled table so ``inserts`` more keys keep its load
        at or below one half (no-op without the kernel)."""
        if self._kernel is None:
            return
        meta = self._meta
        capacity = int(meta[0])
        needed = 2 * (int(meta[3]) + inserts)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        # ``old`` keeps the previous buffers alive until they are copied.
        old = (self._table, self._keys_mask, self._keys_m, self._values)
        self._allocate(capacity)
        moved = self._rehash(
            ctypes.addressof(old[0]), old[2].shape[0], self.table_ptr, capacity
        )
        if moved != int(meta[3]):
            raise RuntimeError("joint_rehash lost service-table entries")

    @property
    def hits(self) -> int:
        """Service-cache hits across both caches.  Rolled into the owning
        provider's ``cache_hits`` (the greedy walk queries these tables
        directly, so counting here is what keeps the obs counters honest
        about the hot path)."""
        return self._dict_hits + int(self._meta[1])

    @property
    def misses(self) -> int:
        """Service-cache misses across both caches (see :attr:`hits`)."""
        return self._dict_misses + int(self._meta[2])

    def cache_size(self) -> int:
        return len(self._service) + int(self._meta[3])

    def service(self, mask: int, max_streams: int) -> Dict[int, float]:
        """Decodable-service probabilities for the group ``mask``.

        Returns ``{ue: Σ_{s≤M} π[(ue, s)]}`` in ascending UE order, with
        floats bit-identical to the frozenset-keyed reference.
        """
        lookup = self._kernel
        if (
            lookup is not None
            and mask <= _U64
            and max_streams >= 0
            and mask.bit_count() <= self._width
        ):
            entry = lookup(self.table_ptr, mask, max_streams)
            if entry == self._table_full:
                self.reserve(1)
                entry = lookup(self.table_ptr, mask, max_streams)
            if entry < 0:
                raise RuntimeError(f"joint_lookup rejected group {mask:#x}")
            members = _members(mask)
            return dict(
                zip(members, self._values[entry, : len(members)].tolist())
            )
        key = (mask, max_streams)
        cached = self._service.get(key)
        if cached is not None:
            self._dict_hits += 1
            return cached
        self._dict_misses += 1
        service = self._walk(mask, max_streams)
        self._service[key] = service
        return service

    def _walk(self, mask: int, max_streams: int) -> Dict[int, float]:
        """The pure-Python form of the ``joint_service`` kernel."""
        # Footprint products in first-seen terminal order (the reference
        # scans all terminals ascending and skips the ones outside the
        # group).
        footprint_idle: Dict[int, float] = {}
        for term, term_idle in zip(self.term_masks, self.idle):
            footprint = term & mask
            if footprint:
                footprint_idle[footprint] = (
                    footprint_idle.get(footprint, 1.0) * term_idle
                )

        blocked_dist: Dict[int, float] = {0: 1.0}
        for footprint, idle in footprint_idle.items():
            busy = 1.0 - idle
            updated: Dict[int, float] = {}
            for blocked, prob in blocked_dist.items():
                updated[blocked] = updated.get(blocked, 0.0) + prob * idle
                grown = blocked | footprint
                updated[grown] = updated.get(grown, 0.0) + prob * busy
            blocked_dist = updated

        distribution: Dict[int, float] = {}
        for blocked, prob in blocked_dist.items():
            clear = mask & ~blocked
            distribution[clear] = distribution.get(clear, 0.0) + prob

        # Fold to per-UE (streams -> probability) tables, preserving the
        # reference's per-UE accumulation and key-insertion orders (both
        # follow the pattern-distribution order for each fixed UE).
        per_ue: Dict[int, Dict[int, float]] = {}
        for clear, prob in distribution.items():
            size = clear.bit_count()
            for ue in _members(clear):
                by_streams = per_ue.get(ue)
                if by_streams is None:
                    per_ue[ue] = {size: prob}
                else:
                    by_streams[size] = by_streams.get(size, 0.0) + prob

        service: Dict[int, float] = {}
        for ue in _members(mask):
            total = 0.0
            by_streams = per_ue.get(ue)
            if by_streams is not None:
                for streams, prob in by_streams.items():
                    if streams <= max_streams:
                        total += prob
            service[ue] = total
        return service


class TopologyJointProvider(JointAccessProvider):
    """Exact joint access pmfs from an interference topology.

    All query results are memoized; the caches are keyed to the *identity*
    of ``self.topology``, so swapping in a mutated topology (``dynamics``
    churn via ``with_terminal``/``without_terminal``) invalidates every
    cached pmf, table and service tensor on the next query.  The plain-int
    ``cache_hits``/``cache_misses`` counters cover all three cache layers
    and feed the ``scheduler.pattern_cache_*`` obs metrics.
    """

    def __init__(self, topology: InterferenceTopology) -> None:
        self.topology = topology
        self._pattern_cache: Dict[FrozenSet[int], PatternDistribution] = {}
        self._table_cache: Dict[FrozenSet[int], PatternTable] = {}
        self._fast: Optional[_FastJointTables] = None
        self._built_for = topology
        self._hits = 0
        self._misses = 0

    @property
    def cache_hits(self) -> int:
        """Cache hits across every layer, including the fast tables the
        greedy hot path queries directly."""
        fast = self._fast
        return self._hits + (fast.hits if fast is not None else 0)

    @property
    def cache_misses(self) -> int:
        """Cache misses across every layer (see :attr:`cache_hits`)."""
        fast = self._fast
        return self._misses + (fast.misses if fast is not None else 0)

    def _check_current(self) -> None:
        """Drop every cache when the topology instance was swapped."""
        if self.topology is not self._built_for:
            if self._fast is not None:
                # Keep the traffic counters monotonic across the swap —
                # obs publishing records deltas and must never see the
                # totals move backwards.
                self._hits += self._fast.hits
                self._misses += self._fast.misses
            self._pattern_cache = {}
            self._table_cache = {}
            self._fast = None
            self._built_for = self.topology

    def fast_tables(self) -> _FastJointTables:
        """The bitmask-keyed service machinery for the current topology."""
        self._check_current()
        if self._fast is None:
            self._fast = _FastJointTables(self.topology)
        return self._fast

    def cache_size(self) -> int:
        """Total memoized entries across all cache layers."""
        size = len(self._pattern_cache) + len(self._table_cache)
        if self._fast is not None:
            size += self._fast.cache_size()
        return size

    def access_probability(self, ue: int) -> float:
        return self.topology.access_probability(ue)

    def decodable_service(
        self, group: FrozenSet[int], max_streams: int
    ) -> Dict[int, float]:
        tables = self.fast_tables()
        mask = 0
        for ue in group:
            mask |= 1 << ue
        return tables.service(mask, max_streams)

    def pattern_distribution(self, group: FrozenSet[int]) -> PatternDistribution:
        self._check_current()
        group = frozenset(group)
        cached = self._pattern_cache.get(group)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1

        # Merge hidden terminals by their footprint inside the group; a set
        # of independent terminals with the same footprint acts as one with
        # busy probability 1 - prod(1 - q_k).
        footprint_idle: Dict[FrozenSet[int], float] = {}
        for q, edge_set in zip(self.topology.q, self.topology.edges):
            footprint = frozenset(edge_set & group)
            if not footprint:
                continue
            footprint_idle[footprint] = footprint_idle.get(footprint, 1.0) * (1.0 - q)

        # Convolve footprints in blocked-set space.
        blocked_dist: Dict[FrozenSet[int], float] = {frozenset(): 1.0}
        for footprint, idle in footprint_idle.items():
            busy = 1.0 - idle
            updated: Dict[FrozenSet[int], float] = {}
            for blocked, prob in blocked_dist.items():
                updated[blocked] = updated.get(blocked, 0.0) + prob * idle
                grown = blocked | footprint
                updated[grown] = updated.get(grown, 0.0) + prob * busy
            blocked_dist = updated

        distribution: PatternDistribution = {}
        for blocked, prob in blocked_dist.items():
            clear = group - blocked
            distribution[clear] = distribution.get(clear, 0.0) + prob
        self._pattern_cache[group] = distribution
        return distribution

    def pattern_table(self, group: FrozenSet[int]) -> PatternTable:
        self._check_current()
        group = frozenset(group)
        cached = self._table_cache.get(group)
        if cached is None:
            self._misses += 1
            cached = super().pattern_table(group)
            self._table_cache[group] = cached
        else:
            self._hits += 1
        return cached


class EmpiricalJointProvider(JointAccessProvider):
    """Joint access pmfs counted from a recorded clear/blocked matrix.

    ``clear_matrix[t, i]`` is True when UE ``i`` would have passed CCA in
    subframe ``t``.  This reproduces the paper's "joint access distribution
    computed directly from the traces" baseline and is also what a cell
    could do with exhaustive measurements (at exponential cost).
    """

    def __init__(self, clear_matrix: np.ndarray) -> None:
        matrix = np.asarray(clear_matrix, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise TopologyError(
                f"clear matrix must be non-empty 2-D, got shape {matrix.shape}"
            )
        self._matrix = matrix
        # Per-UE clear fractions, computed once: column means of a boolean
        # matrix are exact (integer counts), so this matches the per-query
        # column mean bit for bit.
        self._marginals = matrix.mean(axis=0)
        self._pattern_cache: Dict[FrozenSet[int], PatternDistribution] = {}

    @property
    def num_subframes(self) -> int:
        return self._matrix.shape[0]

    @property
    def num_ues(self) -> int:
        return self._matrix.shape[1]

    def access_probability(self, ue: int) -> float:
        if not 0 <= ue < self.num_ues:
            raise TopologyError(f"unknown UE id {ue}")
        return float(self._marginals[ue])

    def pattern_distribution(self, group: FrozenSet[int]) -> PatternDistribution:
        group = frozenset(group)
        cached = self._pattern_cache.get(group)
        if cached is not None:
            return cached
        members = sorted(group)
        for ue in members:
            if not 0 <= ue < self.num_ues:
                raise TopologyError(f"unknown UE id {ue}")
        if not members:
            return {frozenset(): 1.0}
        columns = self._matrix[:, members].astype(np.int64)
        weights = 1 << np.arange(len(members), dtype=np.int64)
        codes = columns @ weights
        counts = np.bincount(codes, minlength=1 << len(members))
        total = float(self.num_subframes)
        distribution: PatternDistribution = {}
        for code, count in enumerate(counts):
            if count == 0:
                continue
            clear = frozenset(
                members[bit] for bit in range(len(members)) if code >> bit & 1
            )
            distribution[clear] = count / total
        self._pattern_cache[group] = distribution
        return distribution
