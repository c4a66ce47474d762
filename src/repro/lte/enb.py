"""The eNB: TxOP acquisition, grant issuance, and uplink reception.

The eNB is the only node in the cell that contends for the channel
(Fig. 2b): it runs CCA/backoff against interference *it* can hear, then owns
a TxOP of a few subframes.  The DL part of the TxOP carries grants; the UL
part carries the scheduled client transmissions, each gated by the client's
own CCA.  Reception on every RB follows :func:`repro.lte.phy.receive_rb`
(linear receiver) or :func:`repro.lte.noma.receive_rb_sic` (SIC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.lte import consts, mcs
from repro.lte.noma import receive_rb_sic
from repro.lte.phy import GrantOutcome, RBReception, mumimo_sinr_penalty_db
from repro.lte.pilots import PilotObservation
from repro.lte.resources import SubframeSchedule, TxOp

__all__ = ["ENodeB", "SubframeReception"]


@dataclass
class SubframeReception:
    """Reception result of all RBs in one uplink subframe."""

    subframe: int
    rb_receptions: Dict[int, RBReception] = field(default_factory=dict)

    @property
    def delivered_bits(self) -> float:
        return sum(r.total_bits for r in self.rb_receptions.values())

    def delivered_bits_by_ue(self) -> Dict[int, float]:
        totals: Dict[int, float] = {}
        for reception in self.rb_receptions.values():
            for ue, bits in reception.delivered_bits.items():
                totals[ue] = totals.get(ue, 0.0) + bits
        return totals

    def utilized_rbs(self) -> int:
        return sum(1 for r in self.rb_receptions.values() if r.utilized)

    def outcome_counts(self) -> Dict[GrantOutcome, int]:
        counts = {outcome: 0 for outcome in GrantOutcome}
        for reception in self.rb_receptions.values():
            for outcome in reception.outcomes.values():
                counts[outcome] += 1
        return counts


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

    def receive_subframe(
        self,
        subframe: int,
        schedule: SubframeSchedule,
        transmitting_ues: Sequence[int],
        sinr_db_by_ue_rb: Mapping[int, "Mapping[int, float] | np.ndarray"],
    ) -> SubframeReception:
        """Decode one uplink subframe.

        Args:
            subframe: absolute subframe index (for bookkeeping).
            schedule: the grants issued for this subframe.
            transmitting_ues: UEs whose CCA passed this subframe.  A UE
                either transmits on all its grants or none (CCA is per
                subframe, not per RB — the whole carrier is sensed).
            sinr_db_by_ue_rb: per-UE instantaneous SINRs, indexable by RB —
                a ``{rb: sinr_db}`` dict or a per-RB ndarray row (the
                engine hands channel-bank rows in directly).

        Each RB decodes as :func:`repro.lte.phy.receive_rb` would (inlined
        here for the linear receiver, minus the per-RB validation the
        transmitter filtering makes moot) or through
        :func:`repro.lte.noma.receive_rb_sic`.  A transmitting,
        non-collided UE without an SINR entry raises
        :class:`ConfigurationError`.
        """
        transmitting = set(transmitting_ues)
        result = SubframeReception(subframe=subframe)
        sic = self.receiver == "sic"
        antennas = self.num_antennas
        scale = self.rate_scale
        bits_per_bps = consts.SUBFRAME_DURATION_S
        rate_for = mcs.rb_rate_bps
        for rb in schedule.allocated_rbs():
            rb_schedule = schedule.rb(rb)
            senders = [u for u in rb_schedule.ue_ids if u in transmitting]
            if sic:
                result.rb_receptions[rb] = receive_rb_sic(
                    rb_schedule,
                    senders,
                    {u: sinr_db_by_ue_rb[u][rb] for u in senders
                     if u in sinr_db_by_ue_rb},
                    antennas,
                    bits_per_bps,
                    rate_scale=scale,
                )
                continue
            detected = frozenset(senders)
            reception = RBReception(
                rb=rb,
                pilot_observation=PilotObservation(rb=rb, detected_ues=detected),
            )
            num_streams = len(senders)
            collided = num_streams > antennas
            penalty = (
                mumimo_sinr_penalty_db(num_streams, antennas)
                if 0 < num_streams <= antennas
                else 0.0
            )
            outcomes = reception.outcomes
            delivered = reception.delivered_bits
            for grant in rb_schedule.grants:
                ue = grant.ue_id
                if ue not in detected:
                    outcomes[ue] = GrantOutcome.BLOCKED
                elif collided:
                    outcomes[ue] = GrantOutcome.COLLIDED
                else:
                    try:
                        sinr_db = sinr_db_by_ue_rb[ue][rb]
                    except KeyError:
                        raise ConfigurationError(
                            f"no SINR available for transmitting UE {ue}"
                        ) from None
                    achievable = scale * rate_for(sinr_db + penalty)
                    granted = grant.rate_bps
                    if achievable + 1e-9 >= granted and granted > 0:
                        outcomes[ue] = GrantOutcome.DECODED
                        delivered[ue] = granted * bits_per_bps
                    else:
                        outcomes[ue] = GrantOutcome.FADED
            result.rb_receptions[rb] = reception
        return result

    @property
    def txop_success_fraction(self) -> float:
        if self._txop_attempts == 0:
            return 0.0
        return self._txops_acquired / self._txop_attempts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ENodeB(M={self.num_antennas}, rbs={self.num_rbs})"
