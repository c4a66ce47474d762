"""Property: the block-stepped channel bank is the scalar channel, bit for bit.

:class:`repro.lte.channel.UplinkChannelBank` computes each UE's AR(1)
Rayleigh fading a whole innovation block at a time — the recurrence in the
compiled kernel library (``fading_block``), or row by row in numpy without
it — and a subframe step only reads a row.  Its contract is that this
changes how fast SINRs are produced, never their bits: every step and every
mean-power shift must match one scalar :class:`repro.lte.channel.UplinkChannel`
per UE on the same child seeds, hex for hex, with the kernel and without.

The strategies aim at the block seams: at least three blocks, AR(1)
coefficients from i.i.d. (0) to nearly frozen (0.999), and mean shifts
before the first step, in the middle of a block, and while a block's last
row is current (the next step refills).
"""

import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduling._kernel import kernel_available
from repro.lte.channel import UplinkChannel, UplinkChannelBank

_BLOCK = UplinkChannelBank._BLOCK_SUBFRAMES


@st.composite
def bank_cases(draw):
    """A cell's channels plus a schedule of mean shifts ``{step: [(ue, dB)]}``
    (a shift at step ``t`` happens after ``t`` steps)."""
    num_ues = draw(st.integers(min_value=1, max_value=30))
    num_blocks = draw(st.integers(min_value=3, max_value=4))
    # Deep into the last block, so its refill and rows are exercised.
    num_steps = (num_blocks - 1) * _BLOCK + draw(st.integers(1, _BLOCK))
    shift = st.tuples(
        st.integers(min_value=0, max_value=num_ues - 1),
        st.floats(min_value=-12.0, max_value=12.0, allow_nan=False),
    )
    block = draw(st.integers(min_value=0, max_value=num_blocks - 2))
    at = {
        0: draw(st.lists(shift, min_size=1, max_size=3)),
        block * _BLOCK + draw(st.integers(1, _BLOCK - 1)): [draw(shift)],
        (block + 1) * _BLOCK: [draw(shift)],
    }
    for step in draw(st.lists(st.integers(0, num_steps), max_size=4)):
        at.setdefault(step, []).append(draw(shift))
    return {
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "mean_rx_dbm": draw(
            st.lists(
                st.floats(min_value=-110.0, max_value=-50.0),
                min_size=num_ues,
                max_size=num_ues,
            )
        ),
        "num_rbs": draw(st.integers(min_value=1, max_value=50)),
        "rho": draw(st.sampled_from([0.0, 0.5, 0.9, 0.999])),
        "num_steps": num_steps,
        "shifts": at,
    }


def assert_hex_equal(bank_sinr, channels, where):
    expected = np.stack([channel.sinr_db for channel in channels])
    got = bank_sinr.view(np.uint64)
    want = expected.view(np.uint64)
    if not np.array_equal(got, want):
        ue, rb = np.argwhere(got != want)[0]
        raise AssertionError(
            f"{where}: UE {ue} RB {rb} bank {bank_sinr[ue, rb].hex()} "
            f"!= scalar {expected[ue, rb].hex()}"
        )


def check_bank(case, disable_kernel):
    env = {"REPRO_DISABLE_KERNEL": "1"} if disable_kernel else {}
    with mock.patch.dict(os.environ, env):
        if not disable_kernel:
            os.environ.pop("REPRO_DISABLE_KERNEL", None)
        parent = np.random.default_rng(case["seed"])
        bank = UplinkChannelBank(
            case["mean_rx_dbm"],
            num_rbs=case["num_rbs"],
            doppler_coherence=case["rho"],
            rng=np.random.default_rng(case["seed"]),
        )
        channels = [
            UplinkChannel(
                mean_rx,
                num_rbs=case["num_rbs"],
                doppler_coherence=case["rho"],
                rng=np.random.default_rng(parent.integers(0, 2**63)),
            )
            for mean_rx in case["mean_rx_dbm"]
        ]
        assert_hex_equal(bank.sinr_db, channels, "initial state")
        for step in range(case["num_steps"] + 1):
            for ue, delta_db in case["shifts"].get(step, ()):
                bank.adjust_mean_snr_db(ue, delta_db)
                channels[ue].adjust_mean_snr_db(delta_db)
                assert_hex_equal(bank.sinr_db, channels, f"shift after {step}")
            if step == case["num_steps"]:
                break
            sinr = bank.step()
            for channel in channels:
                channel.step()
            assert sinr is bank.sinr_db
            assert_hex_equal(sinr, channels, f"step {step}")


@given(bank_cases())
@settings(max_examples=25, deadline=None)
def test_bank_matches_scalar_channels(case):
    check_bank(case, disable_kernel=True)
    if kernel_available():
        check_bank(case, disable_kernel=False)


def test_steps_are_fresh_arrays():
    """The engine keeps each step's matrix as a CSI snapshot without a
    copy: neither a later step nor a mean shift may write into it."""
    bank = UplinkChannelBank(
        [-80.0, -75.0], num_rbs=4, rng=np.random.default_rng(3)
    )
    kept = [bank.step() for _ in range(_BLOCK + 2)]
    frozen = [sinr.copy() for sinr in kept]
    bank.adjust_mean_snr_db(1, 3.0)
    for _ in range(_BLOCK):
        bank.step()
    for sinr, copy in zip(kept, frozen):
        assert np.array_equal(sinr, copy)
