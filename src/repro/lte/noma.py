"""NOMA-style successive interference cancellation (SIC) reception.

Section 5 of the paper: non-orthogonal multiple access schedules multiple
clients on the same UL resource via SIC and power control, and "the
benefits from BLU's speculative scheduler in counteracting the effects of
asynchronous interference ... will apply to NOMA too."  This module
provides that receiver so the claim can be exercised: with SIC, an
over-scheduled RB where more than ``M`` clients clear CCA is no longer an
automatic collision — power-separated streams peel off one by one.

Model (standard SIC with an ``M``-antenna combiner):

* streams decode strongest-first;
* when decoding a stream, the ``M - 1`` strongest remaining interferers
  are spatially nulled; the rest add to the noise floor;
* a decoded stream is subtracted perfectly; decoding stops at the first
  stream whose effective SINR cannot carry its granted rate (classic SIC
  abort), and every remaining stream is lost.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import ConfigurationError
from repro.lte import mcs
from repro.lte.phy import GrantOutcome, RBReception
from repro.lte.pilots import PilotObservation
from repro.lte.resources import RBSchedule

__all__ = ["receive_rb_sic"]


def _linear(power_db: float) -> float:
    return 10.0 ** (power_db / 10.0)


def receive_rb_sic(
    rb_schedule: RBSchedule,
    transmitting_ues: Iterable[int],
    sinr_db_by_ue: Mapping[int, float],
    num_antennas: int,
    subframe_duration_s: float = 1e-3,
    granted_rate_by_ue: Optional[Mapping[int, float]] = None,
    rate_scale: float = 1.0,
) -> RBReception:
    """Decode one RB with a SIC receiver (NOMA-capable counterpart of
    :func:`repro.lte.phy.receive_rb`).

    Arguments mirror ``receive_rb``; ``sinr_db_by_ue`` is each stream's
    single-stream SNR (its power over the noise floor).
    """
    if num_antennas < 1:
        raise ConfigurationError(f"num_antennas must be >= 1: {num_antennas}")
    transmitters = sorted(set(transmitting_ues))
    granted_ids = set(rb_schedule.ue_ids)
    unknown = set(transmitters) - granted_ids
    if unknown:
        raise ConfigurationError(
            f"transmitters {sorted(unknown)} were never granted RB {rb_schedule.rb}"
        )
    missing = [ue for ue in transmitters if ue not in sinr_db_by_ue]
    if missing:
        raise ConfigurationError(
            f"no SINR available for transmitting UE {missing[0]}"
        )
    if granted_rate_by_ue is None:
        granted_rate_by_ue = {g.ue_id: g.rate_bps for g in rb_schedule}

    observation = PilotObservation.from_transmitters(rb_schedule.rb, transmitters)
    reception = RBReception(rb=rb_schedule.rb, pilot_observation=observation)

    for grant in rb_schedule:
        if grant.ue_id not in observation.detected_ues:
            reception.outcomes[grant.ue_id] = GrantOutcome.BLOCKED

    # Strongest-first SIC over the transmitting streams.
    remaining: List[int] = sorted(
        transmitters, key=lambda ue: sinr_db_by_ue[ue], reverse=True
    )
    aborted = False
    while remaining:
        target = remaining[0]
        others = remaining[1:]
        if aborted:
            break
        # Null the (M-1) strongest remaining interferers; the rest pile up.
        unnulled = sorted(
            (_linear(sinr_db_by_ue[ue]) for ue in others), reverse=True
        )[max(num_antennas - 1, 0):]
        residual = sum(unnulled)
        effective_sinr_linear = _linear(sinr_db_by_ue[target]) / (1.0 + residual)
        effective_sinr_db = (
            10.0 * math.log10(effective_sinr_linear)
            if effective_sinr_linear > 0
            else float("-inf")
        )
        achievable = rate_scale * mcs.rb_rate_bps(effective_sinr_db)
        granted = granted_rate_by_ue.get(target, 0.0)
        if granted > 0 and achievable + 1e-9 >= granted:
            reception.outcomes[target] = GrantOutcome.DECODED
            reception.delivered_bits[target] = granted * subframe_duration_s
            remaining = others  # perfect cancellation
        else:
            aborted = True

    # Everything left after an abort is lost: interference-limited streams
    # are collisions, a lone stream that missed its rate is fading.
    for ue in remaining:
        if len(remaining) > 1:
            reception.outcomes[ue] = GrantOutcome.COLLIDED
        else:
            reception.outcomes[ue] = GrantOutcome.FADED
    return reception
