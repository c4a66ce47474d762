"""Property: the array decode is the per-RB receiver, grant for grant.

The eNB decodes a whole subframe in one numpy pass over the burst's
flattened grants (:class:`repro.lte.enb.GrantArrays`).  Its contract is
that this changes how fast outcomes are decided, never which: every grant
gets the outcome :func:`repro.lte.phy.receive_rb` (or, for SIC,
:func:`repro.lte.noma.receive_rb_sic`) gives it on its RB, and delivered
bits agree to the bit.  The strategies aim at the edges: up to the eight
orthogonal pilots per RB on 1-4 antennas (so RBs collide), random CCA
outcomes, zero-rate grants, rate scales 1 and 5, granted rates equal to a
CQI step's rate (and to that rate plus the decoder's 1e-9 slack), and
SINRs placed exactly on a CQI threshold minus the MU-MIMO penalty the
RB's stream count imposes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measurement.classifier import classify_subframe
from repro.lte import mcs
from repro.lte.enb import OUTCOMES, ENodeB
from repro.lte.noma import receive_rb_sic
from repro.lte.phy import mumimo_sinr_penalty_db, receive_rb
from repro.lte.pilots import MAX_ORTHOGONAL_PILOTS
from repro.lte.resources import SubframeSchedule
from tests.reference import legacy_classify_subframe, receive_subframe

_THRESHOLDS = mcs._CQI_SINR_THRESHOLDS_DB


@st.composite
def subframes(draw):
    """One uplink subframe: schedule, SINR matrix, transmitters, eNB."""
    num_ues = draw(st.integers(min_value=1, max_value=10))
    num_rbs = draw(st.integers(min_value=1, max_value=6))
    antennas = draw(st.integers(min_value=1, max_value=4))
    scale = draw(st.sampled_from([1.0, 5.0]))
    transmitting = draw(st.sets(st.integers(0, num_ues - 1), max_size=num_ues))
    schedule = SubframeSchedule.empty(num_rbs)
    sinr = np.array(
        draw(
            st.lists(
                st.floats(min_value=-15.0, max_value=35.0),
                min_size=num_ues * num_rbs,
                max_size=num_ues * num_rbs,
            )
        )
    ).reshape(num_ues, num_rbs)
    for rb in range(num_rbs):
        ues = draw(
            st.lists(
                st.integers(0, num_ues - 1),
                unique=True,
                max_size=min(num_ues, MAX_ORTHOGONAL_PILOTS),
            )
        )
        streams = sum(1 for ue in ues if ue in transmitting)
        rates = []
        for ue in ues:
            cqi = draw(st.integers(min_value=1, max_value=len(_THRESHOLDS)))
            kind = draw(st.sampled_from(["step", "edge", "zero", "free"]))
            if kind == "step":
                rates.append(scale * mcs._RB_RATE_LIST[cqi])
            elif kind == "edge":
                # achievable + 1e-9 == granted exactly at this CQI.
                rates.append(scale * mcs._RB_RATE_LIST[cqi] + 1e-9)
            elif kind == "zero":
                rates.append(0.0)
            else:
                rates.append(draw(st.floats(min_value=1.0, max_value=1e7)))
            if 0 < streams <= antennas and draw(st.booleans()):
                # Exactly on the threshold once the penalty is applied.
                sinr[ue, rb] = _THRESHOLDS[cqi - 1] - mumimo_sinr_penalty_db(
                    streams, antennas
                )
        schedule.rb(rb).grant_group(ues, rates)
    receiver = draw(st.sampled_from(["linear", "sic"]))
    enb = ENodeB(
        num_antennas=antennas, num_rbs=num_rbs, rate_scale=scale,
        receiver=receiver,
    )
    return enb, schedule, sinr, transmitting


def per_rb_receptions(enb, schedule, sinr, transmitting):
    """The per-RB receiver over every allocated RB."""
    receive = receive_rb_sic if enb.receiver == "sic" else receive_rb
    out = {}
    for rb in schedule.allocated_rbs():
        rb_schedule = schedule.rb(rb)
        senders = [ue for ue in rb_schedule.ue_ids if ue in transmitting]
        out[rb] = receive(
            rb_schedule,
            senders,
            {ue: sinr[ue, rb] for ue in senders},
            enb.num_antennas,
            1e-3,
            rate_scale=enb.rate_scale,
        )
    return out


def engine_decode(enb, schedule, sinr, transmitting):
    """The decode as the engine drives it: per-burst arrays, a transmit
    mask from the silenced set, SINRs gathered by flat index."""
    grants = enb.grant_arrays(schedule)
    silenced = set(range(sinr.shape[0])) - set(transmitting)
    return enb.decode(
        0,
        grants,
        grants.transmit_mask(silenced),
        sinr.take(grants.flat_index(sinr.shape[1])),
    )


@given(subframes())
@settings(max_examples=300, deadline=None)
def test_array_decode_matches_per_rb_receiver(case):
    enb, schedule, sinr, transmitting = case
    expected = per_rb_receptions(enb, schedule, sinr, transmitting)
    sinr_rows = {ue: sinr[ue] for ue in range(sinr.shape[0])}
    for reception in (
        engine_decode(enb, schedule, sinr, transmitting),
        receive_subframe(enb, 0, schedule, sorted(transmitting), sinr_rows),
    ):
        grants = reception.grants
        codes = reception.codes.tolist()
        assert len(codes) == schedule.total_grants
        for index, (ue, rb) in enumerate(zip(grants.ue_list, grants.rb_list)):
            assert OUTCOMES[codes[index]] is expected[rb].outcomes[ue]

        view = reception.rb_receptions
        assert list(view) == list(expected)
        for rb, reference in expected.items():
            assert view[rb].outcomes == reference.outcomes
            assert view[rb].delivered_bits == reference.delivered_bits
            assert (
                view[rb].pilot_observation.detected_ues
                == reference.pilot_observation.detected_ues
            )

        # Per-UE delivered bits, summed in RB order, to the bit.
        totals = {}
        for reference in expected.values():
            for ue, bits in reference.delivered_bits.items():
                totals[ue] = totals.get(ue, 0.0) + bits
        assert reception.delivered_bits_by_ue() == totals

        counts = reception.counts()
        assert counts.issued == schedule.total_grants
        assert counts.allocated == len(expected)
        assert counts.utilized == sum(r.utilized for r in expected.values())


@given(subframes())
@settings(max_examples=150, deadline=None)
def test_array_classification_matches_object_view(case):
    enb, schedule, sinr, transmitting = case
    reception = engine_decode(enb, schedule, sinr, transmitting)
    assert classify_subframe(schedule, reception) == legacy_classify_subframe(
        schedule, reception
    )
