"""Tests for the UE and eNB node models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lte.channel import UplinkChannel
from repro.lte.enb import ENodeB
from repro.lte.phy import GrantOutcome
from repro.lte.resources import SubframeSchedule, UplinkGrant
from repro.lte.ue import UserEquipment


def make_ue(ue_id=0, threshold=-72.0, rng=None):
    channel = UplinkChannel(
        mean_rx_power_dbm=-70.0,
        num_rbs=4,
        rng=rng or np.random.default_rng(0),
    )
    return UserEquipment(ue_id=ue_id, channel=channel, ed_threshold_dbm=threshold)


class TestUserEquipment:
    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            make_ue(ue_id=-1)

    def test_cca_from_power(self):
        ue = make_ue(threshold=-72.0)
        assert ue.cca_clear_from_power(-80.0) is True
        assert ue.cca_clear_from_power(-60.0) is False

    def test_cca_boundary_is_busy(self):
        ue = make_ue(threshold=-72.0)
        assert ue.cca_clear_from_power(-72.0) is False

    def test_cca_from_busy_flag(self):
        ue = make_ue()
        assert ue.cca_clear_from_busy(False) is True
        assert ue.cca_clear_from_busy(True) is False

    def test_clear_fraction_statistics(self):
        ue = make_ue()
        for busy in [True, False, False, True]:
            ue.cca_clear_from_busy(busy)
        assert ue.cca_attempts == 4
        assert ue.observed_clear_fraction == pytest.approx(0.5)

    def test_channel_advance_and_rates(self):
        ue = make_ue()
        sinr = ue.advance_channel()
        assert sinr.shape == (4,)
        assert ue.reported_rates_bps().shape == (4,)
        assert ue.sinr_db(0) == pytest.approx(float(sinr[0]))


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
        reception = enb.receive_subframe(
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
            enb.receive_subframe(
                subframe=0,
                schedule=schedule,
                transmitting_ues=[0, 1],
                sinr_db_by_ue_rb={0: {0: 25.0}},
            )

    def test_receive_subframe_empty_schedule(self):
        enb = ENodeB(num_antennas=1, num_rbs=2)
        reception = enb.receive_subframe(
            subframe=0,
            schedule=SubframeSchedule(num_rbs=2),
            transmitting_ues=[],
            sinr_db_by_ue_rb={},
        )
        assert reception.delivered_bits == 0.0
        assert reception.utilized_rbs() == 0
