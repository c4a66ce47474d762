"""Shared scheduler-facing types: the per-subframe scheduling context.

Schedulers are pure functions from a :class:`SchedulingContext` to a
:class:`~repro.lte.resources.SubframeSchedule`; everything they may consult
(instantaneous channel state, PF averages, antenna count, control-channel
limits) travels in the context, which keeps every scheduler interchangeable
inside the simulation engine and the BLU controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.lte import mcs
from repro.lte.phy import mumimo_sinr_penalty_db

__all__ = [
    "SchedulingContext",
    "BurstTable",
    "CompactColumns",
    "compact_tensors",
]


@dataclass
class SchedulingContext:
    """Everything a scheduler may look at for one uplink subframe.

    Attributes:
        subframe: absolute subframe index.
        num_rbs: allocation units to fill (RBs, or RB groups).
        num_antennas: eNB receive antennas ``M``.
        ue_ids: schedulable clients (with data to send).
        sinr_db: per-UE array of per-RB single-stream SINRs (dB), as known
            to the eNB from the latest decoded transmissions.
        avg_throughput_bps: PF average ``R_i`` per client.
        max_distinct_ues: control-channel limit ``K`` on distinct clients
            granted in one subframe (paper: "typically less than 10").
        clear_ues: genie information — the set of clients whose CCA will
            pass *this* subframe.  ``None`` for every realistic scheduler;
            the oracle baseline requires it.
    """

    subframe: int
    num_rbs: int
    num_antennas: int
    ue_ids: Tuple[int, ...]
    sinr_db: Mapping[int, np.ndarray]
    avg_throughput_bps: Mapping[int, float]
    max_distinct_ues: int = 10
    clear_ues: Optional[FrozenSet[int]] = None
    #: Physical RBs per allocation unit: rates scale linearly with it.
    rate_scale: float = 1.0
    #: Link-adaptation backoff (dB): grants are issued at the CQI supported
    #: ``link_margin_db`` below the reported SINR, so ordinary fading drift
    #: within a grant burst rarely drops a stream (outage becomes the
    #: exception, not the rule).
    link_margin_db: float = 2.0
    #: When True, ``rate_bps`` reads from a whole-cell rate matrix computed
    #: in one vectorized pass (bit-identical values); when False it uses
    #: the original per-(ue, rb) scalar path, which the scalar reference
    #: engine in ``tests/reference/`` uses.
    vectorized: bool = True
    #: Optional pre-built dense ``(max_ue_id + 1, num_rbs)`` SINR matrix
    #: whose rows match ``sinr_db`` exactly (the simulation engine hands
    #: over its CSI snapshot directly, skipping the per-UE row copies).
    sinr_matrix: Optional[np.ndarray] = None
    _rate_cache: Dict[Tuple[int, int, int], float] = field(
        default_factory=dict, repr=False
    )
    _sinr_matrix: Optional[np.ndarray] = field(
        default=None, init=False, repr=False
    )
    _rate_matrices: Dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )
    _pf_weight_matrices: Dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.num_rbs < 1:
            raise SchedulingError(f"num_rbs must be positive: {self.num_rbs}")
        if self.num_antennas < 1:
            raise SchedulingError(
                f"num_antennas must be positive: {self.num_antennas}"
            )
        if self.max_distinct_ues < 1:
            raise SchedulingError(
                f"max_distinct_ues must be positive: {self.max_distinct_ues}"
            )
        if self.sinr_matrix is not None:
            # The simulation engine hands over its own CSI snapshot; the
            # per-UE consistency checks below would re-validate what the
            # engine already guarantees, on every scheduling call.
            return
        for ue in self.ue_ids:
            if ue not in self.sinr_db:
                raise SchedulingError(f"no SINR state for UE {ue}")
            if len(self.sinr_db[ue]) != self.num_rbs:
                raise SchedulingError(
                    f"UE {ue} SINR vector has {len(self.sinr_db[ue])} entries, "
                    f"expected {self.num_rbs}"
                )
            if ue not in self.avg_throughput_bps:
                raise SchedulingError(f"no PF average for UE {ue}")

    @classmethod
    def trusted(
        cls,
        subframe: int,
        num_rbs: int,
        num_antennas: int,
        ue_ids: Tuple[int, ...],
        sinr_db: Mapping[int, np.ndarray],
        sinr_matrix: np.ndarray,
        avg_throughput_bps: Mapping[int, float],
        max_distinct_ues: int,
        clear_ues: Optional[FrozenSet[int]],
        rate_scale: float,
        link_margin_db: float,
    ) -> "SchedulingContext":
        """Hot-path constructor for the engine's vectorized flavour.

        Equivalent to the dataclass constructor with ``vectorized=True``
        and a pre-built ``sinr_matrix`` (whose presence already skips the
        per-UE validation), but bypasses the generated ``__init__``
        machinery; the engine guarantees the invariants the skipped
        validation would re-check.
        """
        self = object.__new__(cls)
        self.subframe = subframe
        self.num_rbs = num_rbs
        self.num_antennas = num_antennas
        self.ue_ids = ue_ids
        self.sinr_db = sinr_db
        self.avg_throughput_bps = avg_throughput_bps
        self.max_distinct_ues = max_distinct_ues
        self.clear_ues = clear_ues
        self.rate_scale = rate_scale
        self.link_margin_db = link_margin_db
        self.vectorized = True
        self.sinr_matrix = sinr_matrix
        self._rate_cache = {}
        self._sinr_matrix = None
        self._rate_matrices = {}
        self._pf_weight_matrices = {}
        return self

    def _sinr_by_id(self) -> np.ndarray:
        """Dense ``(max_ue_id + 1, num_rbs)`` SINR matrix (rows without a
        UE are ``-inf``, i.e. rate 0; they are never consulted)."""
        if self._sinr_matrix is None:
            if self.sinr_matrix is not None:
                self._sinr_matrix = np.asarray(self.sinr_matrix, dtype=float)
            else:
                ids = sorted(self.sinr_db)
                size = ids[-1] + 1 if ids else 0
                matrix = np.full((size, self.num_rbs), -np.inf)
                for ue in ids:
                    matrix[ue] = np.asarray(self.sinr_db[ue], dtype=float)
                self._sinr_matrix = matrix
        return self._sinr_matrix

    def rate_matrix(self, streams: int = 1) -> np.ndarray:
        """All ``r_{i,b}`` at one stream count, as a dense-by-UE-id matrix.

        One vectorized CQI pass over the whole cell; entries are
        bit-identical to the scalar :meth:`rate_bps` (same SINR arithmetic,
        same CQI bisection, same scaling order).
        """
        cached = self._rate_matrices.get(streams)
        if cached is None:
            penalty = mumimo_sinr_penalty_db(streams, self.num_antennas)
            shifted = (self._sinr_by_id() + penalty) - self.link_margin_db
            cached = self.rate_scale * mcs.rb_rate_bps_array(shifted)
            self._rate_matrices[streams] = cached
        return cached

    def pf_weight_matrix(self, streams: int = 1) -> np.ndarray:
        """All PF marginal utilities ``r_{i,b} / R_i`` as one matrix."""
        cached = self._pf_weight_matrices.get(streams)
        if cached is None:
            rates = self.rate_matrix(streams)
            averages = self._averages_by_id(rates.shape[0])
            cached = rates / averages[:, None]
            self._pf_weight_matrices[streams] = cached
        return cached

    def _averages_by_id(self, num_ues: int) -> np.ndarray:
        averages = np.ones(num_ues)
        for ue, avg_bps in self.avg_throughput_bps.items():
            if 0 <= ue < num_ues:
                averages[ue] = max(avg_bps, 1.0)
        return averages

    @property
    def num_ue_slots(self) -> int:
        """Length of dense per-UE-id vectors (``max_ue_id + 1``)."""
        return self._sinr_by_id().shape[0]

    def rate_bps(self, ue: int, rb: int, streams: int = 1) -> float:
        """``r_{i,b}`` at a given concurrent-stream count (memoized)."""
        key = (ue, rb, streams)
        cached = self._rate_cache.get(key)
        if cached is None:
            if self.vectorized:
                cached = float(self.rate_matrix(streams)[ue, rb])
            else:
                penalty = mumimo_sinr_penalty_db(streams, self.num_antennas)
                sinr = (
                    float(self.sinr_db[ue][rb]) + penalty - self.link_margin_db
                )
                cached = self.rate_scale * mcs.rb_rate_bps(sinr)
            self._rate_cache[key] = cached
        return cached

    def pf_weight(self, ue: int, rb: int, streams: int = 1) -> float:
        """The PF marginal utility ``r_{i,b} / R_i``."""
        average = max(self.avg_throughput_bps[ue], 1.0)
        return self.rate_bps(ue, rb, streams) / average


#: Stream-penalty vectors are pure functions of (antennas, max_streams);
#: memoized so per-burst table construction skips the scalar dB math.
_PENALTY_VECTORS: Dict[Tuple[int, int], np.ndarray] = {}


class BurstTable:
    """Batched per-burst PF weights and grant rates, materialized lazily.

    The rate-dependent half of the Eqn. 4 factoring, batched: everything
    that depends only on this burst's CSI snapshot — grant rates
    ``r_{i,b,g}`` and PF weights ``r_{i,b,g} / R_i`` for every stream count
    ``1..max_streams`` — is computed in a few vectorized CQI passes and
    exposed as plain Python rows (``row[ue_id] -> float``) the greedy scan
    reads at list-indexing speed.

    Three layers of laziness keep the per-call cost proportional to what
    the schedule actually touches rather than to ``S x U x R``:

    * **RB windows** — weight rows are computed in geometrically growing
      RB windows, the first sized to roughly the RBs needed to exhaust the
      control-channel budget ``K``; schedules that saturate early never
      pay for the rest of the grid at full client width.
    * **Candidate compaction** — :meth:`compact` re-derives columns over
      just the distinct admitted clients, shrinking the CQI pass and every
      subsequent scan row from ``U`` to ``K`` entries.
    * **Row boxing** — weight and rate rows stay unboxed ndarray data
      until an interpreted scan or a grant actually needs them (float
      boxing is the dominant cost of preparing full tables eagerly, and
      the compiled greedy kernel reads the tensors directly without ever
      boxing).

    Every element is produced by the same IEEE operation sequence as the
    scalar ``SchedulingContext.pf_weight`` / ``rate_bps`` path, so values
    are bit-identical: windowing and compaction only change which elements
    are computed *together*, never the arithmetic on any one element.

    ``scale`` and ``offset`` are optional dense per-UE-id vectors applied
    to weight rows as ``scale[i] * w`` then ``w + offset[i]``:

    * the access-aware scheduler passes access probabilities as ``scale``
      (IEEE multiplication is commutative bit-for-bit, so this equals its
      scalar ``p(i) * w``);
    * the oracle passes ``0 / -inf`` as ``offset`` to veto blocked clients
      (finite ``w + -inf = -inf`` exactly, and ``w + 0.0 = w`` bitwise for
      the non-negative weights here — no ``-0.0`` can occur).

    Grant rates are never scaled or masked; both vectors shape selection
    only.
    """

    __slots__ = (
        "_sinr",
        "_averages",
        "_penalties",
        "_margin",
        "_rate_scale",
        "_scale",
        "_offset",
        "_num_rbs",
        "_max_streams",
        "_window",
        "_end",
        "_weights",
        "_weight_rows",
        "_rates",
        "_rate_rows",
    )

    def __init__(
        self,
        context: SchedulingContext,
        max_streams: int,
        scale: Optional[np.ndarray] = None,
        offset: Optional[np.ndarray] = None,
    ) -> None:
        if max_streams < 1:
            raise SchedulingError(
                f"max_streams must be positive: {max_streams}"
            )
        sinr = context._sinr_by_id()
        num_ues = sinr.shape[0]
        self._sinr = sinr
        self._averages = context._averages_by_id(num_ues)
        key = (context.num_antennas, max_streams)
        penalties = _PENALTY_VECTORS.get(key)
        if penalties is None:
            penalties = np.array(
                [
                    mumimo_sinr_penalty_db(s, context.num_antennas)
                    for s in range(1, max_streams + 1)
                ]
            )
            _PENALTY_VECTORS[key] = penalties
        self._penalties = penalties
        self._margin = context.link_margin_db
        self._rate_scale = context.rate_scale
        self._scale = scale
        self._offset = offset
        self._num_rbs = context.num_rbs
        self._max_streams = max_streams
        # Window policy: on small grids the fixed per-pass numpy dispatch
        # dominates the marginal per-element work, so one full-grid pass
        # beats windowing (and lets the kernel driver schedule everything
        # in a single call).  On large grids, windows sized to the RBs
        # the distinct-client budget K typically survives avoid computing
        # full-width columns the saturated walk never reads: each
        # pre-saturation RB usually admits a full group of newcomers, so
        # the budget saturates in about ceil(K / group size) RBs.
        # Correctness does not depend on the guess, only the number of
        # batched passes does (undershooting grows geometrically,
        # overshooting costs only vectorized arithmetic).
        if num_ues * self._num_rbs <= 600:
            self._window = self._num_rbs
        else:
            saturation_rbs = -(-context.max_distinct_ues // max_streams)
            self._window = min(self._num_rbs, saturation_rbs)
        self._end = 0
        self._weights: Optional[np.ndarray] = None
        self._weight_rows: Optional[List[Optional[List[float]]]] = None
        self._rates: Optional[np.ndarray] = None
        self._rate_rows: Optional[List[Optional[List[float]]]] = None

    def _extend_to(self, rb: int) -> None:
        """Compute all rows of the next RB window (covering ``rb``)."""
        start = self._end
        grown = self._window if start == 0 else 2 * start
        end = min(self._num_rbs, max(rb + 1, grown))
        shifted = (
            self._sinr[None, :, start:end] + self._penalties[:, None, None]
        ) - self._margin
        rates = mcs.scaled_rb_rate_bps_array(shifted, self._rate_scale)
        weights = rates / self._averages[None, :, None]
        if self._scale is not None:
            weights = self._scale[None, :, None] * weights
        if self._offset is not None:
            weights = weights + self._offset[None, :, None]
        if start == 0:
            # First window: adopt the freshly computed slabs directly
            # (contiguity is what the compiled kernel strides over).
            self._rates = np.ascontiguousarray(rates)
            self._weights = np.ascontiguousarray(weights)
        else:
            shape = (self._max_streams, self._sinr.shape[0], end)
            grown_rates = np.empty(shape)
            grown_rates[:, :, :start] = self._rates
            grown_rates[:, :, start:] = rates
            self._rates = grown_rates
            grown_weights = np.empty(shape)
            grown_weights[:, :, :start] = self._weights
            grown_weights[:, :, start:] = weights
            self._weights = grown_weights
        self._end = end

    def ensure_window(self, rb: int) -> int:
        """Extend the computed RB window to cover ``rb``; return its end."""
        if rb >= self._end:
            self._extend_to(rb)
        return self._end

    @property
    def num_slots(self) -> int:
        """Dense per-UE-id row length (``max_ue_id + 1``)."""
        return self._sinr.shape[0]

    @property
    def weights_tensor(self) -> np.ndarray:
        """Unboxed ``(streams, slot, rb)`` weight slab covering the computed
        RB window ``[0, ensure_window(rb))`` — its third dimension is the
        window end, not ``num_rbs``."""
        return self._weights

    @property
    def rates_tensor(self) -> np.ndarray:
        """Unboxed ``(streams, slot, rb)`` grant-rate slab (same window)."""
        return self._rates

    def weight_row(self, streams: int, rb: int) -> List[float]:
        """Per-UE-id weight row for one (stream count, RB), boxed."""
        rows = self._weight_rows
        if rows is None:
            rows = self._weight_rows = [None] + [
                [None] * self._num_rbs for _ in range(self._max_streams)
            ]
        row = rows[streams][rb]
        if row is None:
            if rb >= self._end:
                self._extend_to(rb)
            row = self._weights[streams - 1, :, rb].tolist()
            rows[streams][rb] = row
        return row

    def rate_row(self, streams: int, rb: int) -> List[float]:
        """Per-UE-id grant-rate row for one (stream count, RB), boxed."""
        rows = self._rate_rows
        if rows is None:
            rows = self._rate_rows = [None] + [
                [None] * self._num_rbs for _ in range(self._max_streams)
            ]
        streams_rows = rows[streams]
        row = streams_rows[rb]
        if row is None:
            if rb >= self._end:
                self._extend_to(rb)
            row = self._rates[streams - 1, :, rb].tolist()
            streams_rows[rb] = row
        return row

    def compact(self, ids: Sequence[int], start: int = 0) -> "CompactColumns":
        """Columns restricted to ``ids`` (ascending) and RBs ``>= start``,
        in one CQI pass."""
        return CompactColumns(self, ids, start)


def compact_tensors(
    table: BurstTable, index: np.ndarray, start: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Unboxed ``(rates, weights)`` tensors over gathered client rows.

    Shapes are ``(streams, len(index), num_rbs - start)``.  The gather
    copies input floats untouched and the elementwise arithmetic is the
    identical operation sequence the full-width table runs, so every entry
    is bit-identical to the corresponding full-width entry — restricting
    the RB range only changes which elements are computed, never the
    arithmetic on any one of them.
    """
    shifted = (
        table._sinr[index][:, start:][None, :, :]
        + table._penalties[:, None, None]
    ) - table._margin
    rates = mcs.scaled_rb_rate_bps_array(shifted, table._rate_scale)
    weights = rates / table._averages[index][None, :, None]
    if table._scale is not None:
        weights = table._scale[index][None, :, None] * weights
    if table._offset is not None:
        weights = weights + table._offset[index][None, :, None]
    return rates, weights


class CompactColumns:
    """Weight/rate columns over a fixed ascending candidate id list.

    Produced by :meth:`BurstTable.compact` once the subframe's distinct-UE
    budget saturates: rows are indexed by *compact index* (position in
    ``ids``) rather than UE id, so post-saturation greedy scans walk ``K``
    entries instead of the dense UE-id range.  ``start`` trims the CQI
    pass to the RBs the saturated walk can still visit; row lists stay
    indexed by global RB (entries below ``start`` are ``None`` and are
    never consulted).  Entries are bit-identical to the full-width
    table's (see :func:`compact_tensors`).
    """

    __slots__ = ("ids", "start", "weight_rows", "_rates", "_rate_rows")

    def __init__(
        self, table: BurstTable, ids: Sequence[int], start: int = 0
    ) -> None:
        self.ids = list(ids)
        self.start = start
        index = np.asarray(self.ids, dtype=int)
        rates, weights = compact_tensors(table, index, start)
        pad: List[Optional[List[float]]] = [None] * start
        self.weight_rows = [None] + [
            pad + rows for rows in weights.transpose(0, 2, 1).tolist()
        ]
        self._rates = rates
        self._rate_rows: List[Optional[List[Optional[List[float]]]]] = [
            None
        ] + [[None] * rates.shape[2] for _ in range(rates.shape[0])]

    def rate_row(self, streams: int, rb: int) -> List[float]:
        """Compact-indexed grant-rate row for one (stream count, RB)."""
        rows = self._rate_rows[streams]
        column = rb - self.start
        row = rows[column]
        if row is None:
            row = self._rates[streams - 1, :, column].tolist()
            rows[column] = row
        return row
