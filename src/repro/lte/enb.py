"""The eNB: TxOP acquisition, grant issuance, and uplink reception.

The eNB is the only node in the cell that contends for the channel
(Fig. 2b): it runs CCA/backoff against interference *it* can hear, then owns
a TxOP of a few subframes.  The DL part of the TxOP carries grants; the UL
part carries the scheduled client transmissions, each gated by the client's
own CCA.  Reception on every RB follows :func:`repro.lte.phy.receive_rb`
(linear receiver) or :func:`repro.lte.noma.receive_rb_sic` (SIC).

Reception is array-native.  A schedule's grants are flattened once per
burst into :class:`GrantArrays` — parallel ``(ue, rb, rate)`` arrays
ordered by RB, then by grant — and :meth:`ENodeB.decode` decides every
grant's outcome in one numpy pass, as an outcome-code array
(:data:`DECODED`, :data:`BLOCKED`, :data:`COLLIDED`, :data:`FADED`).
Each element goes through the float64 operations ``receive_rb`` performs
on it, so outcomes and delivered bits are bit-identical to the per-RB
receiver.  :class:`SubframeReception` wraps the codes; its per-RB
:class:`~repro.lte.phy.RBReception` objects are built only on demand.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.lte import consts, mcs
from repro.lte.noma import receive_rb_sic
from repro.lte.phy import GrantOutcome, RBReception, mumimo_sinr_penalty_db
from repro.lte.pilots import PilotObservation
from repro.lte.resources import SubframeSchedule, TxOp

__all__ = [
    "DECODED",
    "BLOCKED",
    "COLLIDED",
    "FADED",
    "OUTCOMES",
    "ENodeB",
    "GrantArrays",
    "OutcomeCounts",
    "SubframeReception",
]

#: Outcome codes of the array decode; ``OUTCOMES[code]`` is the enum.
DECODED, BLOCKED, COLLIDED, FADED = 0, 1, 2, 3
OUTCOMES = (
    GrantOutcome.DECODED,
    GrantOutcome.BLOCKED,
    GrantOutcome.COLLIDED,
    GrantOutcome.FADED,
)
_CODE_OF = {outcome: code for code, outcome in enumerate(OUTCOMES)}


@lru_cache(maxsize=None)
def _penalty_table(num_antennas: int, most_streams: int) -> np.ndarray:
    """``table[streams]`` = the MU-MIMO penalty of one of ``streams``
    transmitters on an RB (0.0 for no stream and for collisions)."""
    return np.array(
        [0.0]
        + [
            mumimo_sinr_penalty_db(streams, num_antennas)
            if streams <= num_antennas
            else 0.0
            for streams in range(1, most_streams + 1)
        ],
        dtype=np.float64,
    )


class GrantArrays:
    """One subframe schedule's grants as parallel arrays.

    Grants are ordered by RB, then by their order within the RB — the
    order the per-RB receiver walks them.  A schedule is reused for every
    UL subframe of a TxOP, so everything that depends only on the
    schedule is computed here, once per burst: the arrays, the per-grant
    delivered bits, the RB segments, and the collision mask and MU-MIMO
    penalties of the case where every granted UE transmits.

    Attributes:
        schedule: the :class:`SubframeSchedule` the arrays describe.
        ue, rb, rate: per-grant UE id, RB index and granted rate (bps).
        ue_list, rb_list, rate_list, bits_list: the same values (and the
            bits a decoded grant delivers) as Python lists, for the
            per-grant loops of HARQ and per-UE accounting.
        allocated: RB indices that carry at least one grant, ascending.
        starts: index of each allocated RB's first grant.
        slot: per-grant index into ``allocated``.
        scheduled_set: the distinct granted UE ids.
        full_collided: per-grant collision mask when every granted UE
            transmits, ``None`` when no RB carries more than ``M`` grants.
    """

    __slots__ = (
        "schedule", "ue", "rb", "rate", "ue_list", "rb_list", "rate_list",
        "bits_list", "allocated", "starts", "slot", "scheduled_set",
        "positive", "penalty_table", "full_collided", "full_penalty",
        "_flat", "_flat_width",
    )

    def __init__(self, schedule: SubframeSchedule, num_antennas: int) -> None:
        self.schedule = schedule
        # The order of SubframeSchedule.allocated_rbs(): ascending RBs that
        # carry at least one grant.
        groups = [
            (rb, slot.grants)
            for rb, slot in sorted(schedule.rb_schedules.items())
            if slot.grants
        ]
        allocated = [rb for rb, _ in groups]
        sizes = [len(grants) for _, grants in groups]
        flat = [grant for _, grants in groups for grant in grants]
        if flat:
            ue_list, rb_list, rate_list, _ = map(list, zip(*flat))
        else:
            ue_list, rb_list, rate_list = [], [], []
        self.ue_list = ue_list
        self.rb_list = rb_list
        self.rate_list = rate_list
        self.allocated = allocated
        self.ue = np.array(ue_list, dtype=np.intp)
        self.rb = np.array(rb_list, dtype=np.intp)
        self.rate = rate = np.array(rate_list, dtype=np.float64)
        self.bits_list = (rate * consts.SUBFRAME_DURATION_S).tolist()
        counts = np.array(sizes, dtype=np.intp)
        self.starts = np.cumsum(counts) - counts
        self.slot = np.repeat(np.arange(len(allocated)), counts)
        self.scheduled_set = frozenset(ue_list)
        # Per-grant ``rate > 0``, or None when every rate is positive.
        positive = rate > 0
        self.positive = None if positive.all() else positive
        # penalty_table[streams]: the MU-MIMO SINR penalty of a stream on
        # an RB carrying ``streams`` transmitters (0 when none or collided).
        most = max(sizes, default=0)
        self.penalty_table = _penalty_table(num_antennas, most)
        streams = np.repeat(counts, counts)
        self.full_collided = (
            streams > num_antennas if most > num_antennas else None
        )
        self.full_penalty = self.penalty_table[streams]
        self._flat: Optional[np.ndarray] = None
        self._flat_width = -1

    def __len__(self) -> int:
        return len(self.ue_list)

    def flat_index(self, width: int) -> np.ndarray:
        """Per-grant index into a flattened ``(num_ues, width)`` matrix."""
        if width != self._flat_width:
            self._flat = self.ue * width + self.rb
            self._flat_width = width
        return self._flat

    def transmit_mask(self, silenced) -> Optional[np.ndarray]:
        """Per-grant transmit mask given the CCA-silenced UE set, or
        ``None`` when no granted UE is silenced (every grant transmits)."""
        if self.scheduled_set.isdisjoint(silenced):
            return None
        space = max(self.scheduled_set) + 1
        clear = np.ones(space, dtype=bool)
        clear[[ue for ue in silenced if ue < space]] = False
        return clear[self.ue]


class OutcomeCounts(NamedTuple):
    """Per-subframe grant and RB tallies of one decode."""

    decoded: int
    blocked: int
    collided: int
    faded: int
    #: Allocated RBs on which at least one stream decoded.
    utilized: int
    #: RBs that carry at least one grant.
    allocated: int

    @property
    def issued(self) -> int:
        """Grants issued (every grant has exactly one outcome)."""
        return self.decoded + self.blocked + self.collided + self.faded


class SubframeReception:
    """Reception result of all RBs in one uplink subframe.

    Holds the decode as arrays aligned with :class:`GrantArrays`:
    ``codes`` (one outcome code per grant) and ``transmit`` (per-grant
    pilot detection; ``None`` means every granted UE transmitted).  The
    per-RB object view :attr:`rb_receptions` is built on first access.
    """

    __slots__ = ("subframe", "grants", "codes", "transmit", "_decoded", "_view")

    def __init__(
        self,
        subframe: int,
        grants: GrantArrays,
        codes: np.ndarray,
        transmit: Optional[np.ndarray] = None,
    ) -> None:
        self.subframe = subframe
        self.grants = grants
        self.codes = codes
        self.transmit = transmit
        self._decoded: Optional[np.ndarray] = None
        self._view: Optional[Dict[int, RBReception]] = None

    @property
    def decoded_mask(self) -> np.ndarray:
        """Per-grant boolean: the grant decoded."""
        if self._decoded is None:
            self._decoded = self.codes == DECODED
        return self._decoded

    def counts(self) -> OutcomeCounts:
        """Grants per outcome and utilized/allocated RBs."""
        grants = self.grants
        if not len(grants):
            return OutcomeCounts(0, 0, 0, 0, 0, 0)
        decoded, blocked, collided, faded = np.bincount(
            self.codes, minlength=4
        ).tolist()
        utilized = (
            int(np.count_nonzero(
                np.logical_or.reduceat(self.decoded_mask, grants.starts)
            ))
            if decoded
            else 0
        )
        return OutcomeCounts(
            decoded, blocked, collided, faded, utilized, len(grants.allocated)
        )

    def delivered_bits_by_ue(self) -> Dict[int, float]:
        """Bits delivered per UE, summed in RB order."""
        grants = self.grants
        ue_list = grants.ue_list
        bits_list = grants.bits_list
        totals: Dict[int, float] = {}
        for index in np.flatnonzero(self.decoded_mask).tolist():
            ue = ue_list[index]
            totals[ue] = totals.get(ue, 0.0) + bits_list[index]
        return totals

    @property
    def rb_receptions(self) -> Dict[int, RBReception]:
        """The per-RB object view, ``{rb: RBReception}`` for every
        allocated RB (built on first access)."""
        if self._view is None:
            self._view = self._build_view()
        return self._view

    def _build_view(self) -> Dict[int, RBReception]:
        grants = self.grants
        codes = self.codes.tolist()
        transmit = (
            self.transmit.tolist()
            if self.transmit is not None
            else [True] * len(codes)
        )
        bounds = grants.starts.tolist() + [len(codes)]
        view: Dict[int, RBReception] = {}
        for position, rb in enumerate(grants.allocated):
            segment = range(bounds[position], bounds[position + 1])
            detected = frozenset(
                grants.ue_list[i] for i in segment if transmit[i]
            )
            reception = RBReception(
                rb=rb,
                pilot_observation=PilotObservation(rb=rb, detected_ues=detected),
            )
            for i in segment:
                ue = grants.ue_list[i]
                reception.outcomes[ue] = OUTCOMES[codes[i]]
                if codes[i] == DECODED:
                    reception.delivered_bits[ue] = grants.bits_list[i]
            view[rb] = reception
        return view

    @property
    def delivered_bits(self) -> float:
        return sum(r.total_bits for r in self.rb_receptions.values())

    def utilized_rbs(self) -> int:
        return self.counts().utilized

    def outcome_counts(self) -> Dict[GrantOutcome, int]:
        return dict(zip(OUTCOMES, self.counts()[:4]))


class ENodeB:
    """An LTE base station with ``M`` receive antennas in unlicensed band.

    Responsibilities:

    * acquire TxOPs through its own CCA/backoff (a Bernoulli busy process
      models interference audible at the eNB; true *hidden* terminals never
      appear here — that is what makes them hidden);
    * receive and classify every granted RB of every uplink subframe.
    """

    def __init__(
        self,
        num_antennas: int,
        num_rbs: int = consts.RBS_10MHZ,
        enb_busy_probability: float = 0.0,
        dl_subframes_per_txop: int = 1,
        ul_subframes_per_txop: int = consts.SUBFRAMES_PER_BURST,
        rate_scale: float = 1.0,
        receiver: str = "linear",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if num_antennas < 1:
            raise ConfigurationError(f"num_antennas must be >= 1: {num_antennas}")
        if not 0.0 <= enb_busy_probability < 1.0:
            raise ConfigurationError(
                f"enb_busy_probability must be in [0, 1): {enb_busy_probability}"
            )
        self.num_antennas = num_antennas
        self.num_rbs = num_rbs
        self.enb_busy_probability = enb_busy_probability
        self.dl_subframes_per_txop = dl_subframes_per_txop
        self.ul_subframes_per_txop = ul_subframes_per_txop
        self.rate_scale = float(rate_scale)
        if receiver not in ("linear", "sic"):
            raise ConfigurationError(
                f"receiver must be 'linear' or 'sic': {receiver!r}"
            )
        self.receiver = receiver
        self._rng = rng if rng is not None else np.random.default_rng()
        self._txops_acquired = 0
        self._txop_attempts = 0

    def try_acquire_txop(self, start_subframe: int) -> Optional[TxOp]:
        """Attempt CCA at ``start_subframe``; return a TxOP on success.

        On failure (eNB-audible interference) the eNB backs off one subframe
        and the caller retries; ``None`` is returned.
        """
        self._txop_attempts += 1
        if self._rng.random() < self.enb_busy_probability:
            return None
        self._txops_acquired += 1
        return TxOp(
            start_subframe=start_subframe,
            dl_subframes=self.dl_subframes_per_txop,
            ul_subframes=self.ul_subframes_per_txop,
        )

    def grant_arrays(self, schedule: SubframeSchedule) -> GrantArrays:
        """Flatten ``schedule`` for :meth:`decode` (once per burst)."""
        return GrantArrays(schedule, self.num_antennas)

    def decode(
        self,
        subframe: int,
        grants: GrantArrays,
        transmit: Optional[np.ndarray],
        sinr_db: np.ndarray,
    ) -> SubframeReception:
        """Decide every grant's outcome in one pass.

        Args:
            subframe: absolute subframe index (for bookkeeping).
            grants: the burst's grants, from :meth:`grant_arrays`.
            transmit: per-grant boolean, the granted UE passed CCA (a UE
                transmits on all its grants or none), or ``None`` when
                every granted UE transmits.
            sinr_db: per-grant instantaneous SINR of the UE on the RB.

        The linear receiver follows :func:`repro.lte.phy.receive_rb`:
        streams per RB are counted over the transmitters, more than ``M``
        collide, the rest decode iff the CQI rate at the penalized SINR
        covers the granted rate.  Element for element the float64
        operations are those of the per-RB receiver.  The SIC receiver
        decodes RB by RB through :func:`repro.lte.noma.receive_rb_sic` into
        the same code array.
        """
        if self.receiver == "sic":
            codes = self._decode_sic(grants, transmit, sinr_db)
            return SubframeReception(subframe, grants, codes, transmit)
        if transmit is None:
            collided = grants.full_collided
            penalty = grants.full_penalty
        else:
            streams = np.bincount(
                grants.slot[transmit], minlength=len(grants.allocated)
            )[grants.slot]
            collided = streams > self.num_antennas
            penalty = grants.penalty_table[streams]
        achievable = mcs.scaled_rb_rate_bps_array(
            sinr_db + penalty, self.rate_scale
        )
        decodable = achievable + 1e-9 >= grants.rate
        if grants.positive is not None:
            decodable &= grants.positive
        codes = np.where(decodable, DECODED, FADED)
        if collided is not None:
            codes[collided] = COLLIDED
        if transmit is not None:
            codes[~transmit] = BLOCKED
        return SubframeReception(subframe, grants, codes, transmit)

    def _decode_sic(
        self,
        grants: GrantArrays,
        transmit: Optional[np.ndarray],
        sinr_db: np.ndarray,
    ) -> np.ndarray:
        """SIC decode, RB by RB, into the per-grant code array.  Missing
        SINRs are NaN and left for ``receive_rb_sic`` to reject."""
        codes = np.full(len(grants), BLOCKED, dtype=np.intp)
        sends = (
            transmit.tolist() if transmit is not None else [True] * len(grants)
        )
        ue_list = grants.ue_list
        bounds = grants.starts.tolist() + [len(grants)]
        schedule = grants.schedule
        for position, rb in enumerate(grants.allocated):
            segment = range(bounds[position], bounds[position + 1])
            senders = [ue_list[i] for i in segment if sends[i]]
            reception = receive_rb_sic(
                schedule.rb_schedules[rb],
                senders,
                {
                    ue_list[i]: sinr_db[i]
                    for i in segment
                    if sends[i] and not np.isnan(sinr_db[i])
                },
                self.num_antennas,
                consts.SUBFRAME_DURATION_S,
                rate_scale=self.rate_scale,
            )
            outcomes = reception.outcomes
            for i in segment:
                codes[i] = _CODE_OF[outcomes[ue_list[i]]]
        return codes

    def receive_subframe(
        self,
        subframe: int,
        schedule: SubframeSchedule,
        transmitting_ues: Sequence[int],
        sinr_db_by_ue_rb: Mapping[int, "Mapping[int, float] | np.ndarray"],
    ) -> SubframeReception:
        """Decode one uplink subframe (the per-call form of :meth:`decode`).

        Args:
            subframe: absolute subframe index (for bookkeeping).
            schedule: the grants issued for this subframe.
            transmitting_ues: UEs whose CCA passed this subframe.  A UE
                either transmits on all its grants or none (CCA is per
                subframe, not per RB — the whole carrier is sensed).
            sinr_db_by_ue_rb: per-UE instantaneous SINRs, indexable by RB —
                a ``{rb: sinr_db}`` dict or a per-RB ndarray row.

        Flattens the schedule, gathers each transmitting grant's SINR and
        runs :meth:`decode`.  A transmitting, non-collided UE without an
        SINR entry raises :class:`ConfigurationError`.
        """
        grants = self.grant_arrays(schedule)
        transmitting = set(transmitting_ues)
        transmit = np.fromiter(
            (ue in transmitting for ue in grants.ue_list),
            dtype=bool,
            count=len(grants),
        )
        sinr = np.full(len(grants), np.nan)
        for i in np.flatnonzero(transmit).tolist():
            try:
                sinr[i] = sinr_db_by_ue_rb[grants.ue_list[i]][grants.rb_list[i]]
            except (KeyError, IndexError):
                pass
        reception = self.decode(subframe, grants, transmit, sinr)
        missing = np.isnan(sinr) & transmit
        missing &= reception.codes != COLLIDED
        if missing.any():
            ue = grants.ue_list[int(np.flatnonzero(missing)[0])]
            raise ConfigurationError(
                f"no SINR available for transmitting UE {ue}"
            )
        return reception

    @property
    def txop_success_fraction(self) -> float:
        if self._txop_attempts == 0:
            return 0.0
        return self._txops_acquired / self._txop_attempts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ENodeB(M={self.num_antennas}, rbs={self.num_rbs})"
