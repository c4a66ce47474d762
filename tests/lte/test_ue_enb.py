"""Tests for the eNB node model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lte.enb import ENodeB
from repro.lte.phy import GrantOutcome
from repro.lte.resources import SubframeSchedule, UplinkGrant
from tests.reference import receive_subframe


class TestENodeB:
    def test_rejects_zero_antennas(self):
        with pytest.raises(ConfigurationError):
            ENodeB(num_antennas=0)

    def test_rejects_certain_busy(self):
        with pytest.raises(ConfigurationError):
            ENodeB(num_antennas=1, enb_busy_probability=1.0)

    def test_txop_always_acquired_when_clear(self):
        enb = ENodeB(num_antennas=1, enb_busy_probability=0.0)
        txop = enb.try_acquire_txop(start_subframe=5)
        assert txop is not None
        assert txop.start_subframe == 5
        assert enb.txop_success_fraction == 1.0

    def test_txop_blocked_statistics(self):
        enb = ENodeB(
            num_antennas=1,
            enb_busy_probability=0.5,
            rng=np.random.default_rng(3),
        )
        outcomes = [enb.try_acquire_txop(t) is not None for t in range(2000)]
        assert 0.4 < np.mean(outcomes) < 0.6
        assert enb.txop_success_fraction == pytest.approx(np.mean(outcomes))

    def test_receive_subframe_aggregates(self):
        enb = ENodeB(num_antennas=1, num_rbs=2)
        schedule = SubframeSchedule(num_rbs=2)
        schedule.add_grant(UplinkGrant(ue_id=0, rb=0, rate_bps=1e5))
        schedule.add_grant(UplinkGrant(ue_id=1, rb=1, rate_bps=1e5))
        reception = receive_subframe(
            enb,
            subframe=0,
            schedule=schedule,
            transmitting_ues=[0],
            sinr_db_by_ue_rb={0: {0: 25.0, 1: 25.0}},
        )
        counts = reception.outcome_counts()
        assert counts[GrantOutcome.DECODED] == 1
        assert counts[GrantOutcome.BLOCKED] == 1
        assert reception.utilized_rbs() == 1
        assert reception.delivered_bits_by_ue() == {0: pytest.approx(100.0)}

    @pytest.mark.parametrize("receiver", ["linear", "sic"])
    def test_missing_sinr_is_a_configuration_error(self, receiver):
        # A transmitting, non-collided UE needs an SINR entry; a missing
        # one is a caller error, not a KeyError from deep in the decoder.
        enb = ENodeB(num_antennas=2, num_rbs=1, receiver=receiver)
        schedule = SubframeSchedule(num_rbs=1)
        schedule.add_grant(UplinkGrant(ue_id=0, rb=0, rate_bps=1e5))
        schedule.add_grant(
            UplinkGrant(ue_id=1, rb=0, rate_bps=1e5, pilot_index=1)
        )
        with pytest.raises(ConfigurationError, match="UE 1"):
            receive_subframe(
                enb,
                subframe=0,
                schedule=schedule,
                transmitting_ues=[0, 1],
                sinr_db_by_ue_rb={0: {0: 25.0}},
            )

    def test_receive_subframe_empty_schedule(self):
        enb = ENodeB(num_antennas=1, num_rbs=2)
        reception = receive_subframe(
            enb,
            subframe=0,
            schedule=SubframeSchedule(num_rbs=2),
            transmitting_ues=[],
            sinr_db_by_ue_rb={},
        )
        assert reception.delivered_bits == 0.0
        assert reception.utilized_rbs() == 0
