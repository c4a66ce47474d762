"""Wireless channel models: path loss and time-correlated Rayleigh fading.

The trace-based evaluation in the paper replays per-subframe CSI collected
from WARP UEs.  Here the equivalent substrate is a per-(UE, RB) block-fading
process: a log-distance path-loss mean plus an AR(1)-correlated Rayleigh
fading term, sampled once per subframe.  The eNB observes the resulting SINR
(perfect CSI at the receiver, as with the decoded WARP subframes).

:class:`UplinkChannel` is one UE's link, stepped per subframe — the scalar
form, and the oracle for :class:`UplinkChannelBank`, which holds a whole
cell's links and computes their fading a 128-subframe innovation block at
a time (the AR(1) recurrence runs in the compiled kernel library when it
is available), so that a subframe step is a row lookup plus the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.lte import consts, mcs

__all__ = [
    "PathLossModel",
    "FadingProcess",
    "UplinkChannel",
    "UplinkChannelBank",
]


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss with indoor-enterprise defaults.

    ``PL(d) = pl0_db + 10 * exponent * log10(d / d0)``, in dB.

    Defaults (exponent 3.0, 40 dB at 1 m) are typical for the enterprise
    office environments used in the paper's testbed.
    """

    exponent: float = 3.0
    pl0_db: float = 40.0
    d0_m: float = 1.0

    def loss_db(self, distance_m: float) -> float:
        d = max(float(distance_m), self.d0_m)
        return self.pl0_db + 10.0 * self.exponent * np.log10(d / self.d0_m)

    def rx_power_dbm(self, tx_power_dbm: float, distance_m: float) -> float:
        return tx_power_dbm - self.loss_db(distance_m)


class FadingProcess:
    """AR(1)-correlated Rayleigh block fading for one link across RBs.

    Each subframe produces a vector of per-RB linear power gains with unit
    mean.  Temporal correlation is controlled by ``doppler_coherence``
    (the AR(1) coefficient): 0 gives i.i.d. fading per subframe, values near
    1 give slowly varying channels.

    The process is complex Gaussian per RB; the power gain is ``|h|^2``
    which is exponential with unit mean (Rayleigh amplitude).
    """

    def __init__(
        self,
        num_rbs: int,
        doppler_coherence: float = 0.9,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= doppler_coherence < 1.0:
            raise ConfigurationError(
                f"doppler_coherence must be in [0, 1): {doppler_coherence}"
            )
        if num_rbs < 1:
            raise ConfigurationError(f"num_rbs must be positive: {num_rbs}")
        self.num_rbs = num_rbs
        self.rho = doppler_coherence
        self._rng = rng if rng is not None else np.random.default_rng()
        self._h = self._draw_innovation()

    def _draw_innovation(self) -> np.ndarray:
        real = self._rng.standard_normal(self.num_rbs)
        imag = self._rng.standard_normal(self.num_rbs)
        return (real + 1j * imag) / np.sqrt(2.0)

    def step(self) -> np.ndarray:
        """Advance one subframe; return per-RB linear power gains (mean 1)."""
        innovation = self._draw_innovation()
        self._h = self.rho * self._h + np.sqrt(1.0 - self.rho**2) * innovation
        return np.abs(self._h) ** 2

    def current_gains(self) -> np.ndarray:
        """Per-RB power gains of the current state without advancing."""
        return np.abs(self._h) ** 2


class UplinkChannel:
    """The uplink channel of one UE: path loss mean + fading, per RB.

    Produces per-subframe, per-RB SINR (dB) at the eNB, and the matching
    CQI-model rate used by schedulers as ``r_{i,b}``.
    """

    def __init__(
        self,
        mean_rx_power_dbm: float,
        num_rbs: int,
        noise_floor_dbm: float = consts.NOISE_FLOOR_10MHZ_DBM,
        doppler_coherence: float = 0.9,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.mean_rx_power_dbm = float(mean_rx_power_dbm)
        self.noise_floor_dbm = float(noise_floor_dbm)
        self.num_rbs = num_rbs
        self._fading = FadingProcess(num_rbs, doppler_coherence, rng)
        self._sinr_db = self._compute_sinr(self._fading.current_gains())

    def _compute_sinr(self, gains: np.ndarray) -> np.ndarray:
        mean_snr_db = self.mean_rx_power_dbm - self.noise_floor_dbm
        with np.errstate(divide="ignore"):
            fading_db = 10.0 * np.log10(gains)
        return mean_snr_db + fading_db

    def step(self) -> np.ndarray:
        """Advance one subframe; return per-RB SINR in dB."""
        self._sinr_db = self._compute_sinr(self._fading.step())
        return self._sinr_db

    def adjust_mean_snr_db(self, delta_db: float) -> None:
        """Shift the link's mean power (mobility / shadowing dynamics).

        Consumes no randomness — the fading state is untouched — so a
        :class:`UplinkChannelBank` and per-UE channel objects stay
        stream-identical across adjustments.
        """
        self.mean_rx_power_dbm += float(delta_db)
        self._sinr_db = self._compute_sinr(self._fading.current_gains())

    @property
    def sinr_db(self) -> np.ndarray:
        """Per-RB SINR (dB) for the current subframe."""
        return self._sinr_db

    def rates_bps(self) -> np.ndarray:
        """Per-RB instantaneous CQI-model rates for the current subframe."""
        return mcs.rb_rate_bps_array(self._sinr_db)

    def mean_snr_db(self) -> float:
        return self.mean_rx_power_dbm - self.noise_floor_dbm


def _fading_block_kernel():
    """The compiled block recurrence, or ``None`` without the kernel
    library.  Imported on first use, so that loading ``repro.lte`` does
    not load the scheduling package."""
    from repro.core.scheduling._kernel import kernel

    lib = kernel()
    return None if lib is None else lib.fading_block


def _fading_rows(
    h: np.ndarray, states: np.ndarray, rho: float, c: float
) -> None:
    """``fading_block`` in numpy, one step at a time: the same binary64
    products and sums, so the same bits."""
    for t in range(states.shape[0]):
        h[...] = rho * h + c * states[t]
        states[t] = h


class UplinkChannelBank:
    """All UE uplink channels of one cell as a single batched process.

    Semantically ``num_ues`` independent :class:`UplinkChannel` instances —
    same AR(1) Rayleigh model, same per-UE RNG streams (each UE's generator
    is spawned from the parent in UE order, exactly like the per-object
    construction), same mean-power arithmetic — but computed a whole
    innovation block (``_BLOCK_SUBFRAMES`` subframes) at a time.  A refill
    draws each UE's block of normals (batched ``standard_normal`` draws
    consume the stream identically to scalar draws), forms the complex
    innovations, runs the AR(1) recurrence over the block per UE and then
    per step — in the compiled kernel library (``fading_block``), or row
    by row in numpy without it — and converts the states to fading dB.
    A :meth:`step` is then one row view plus the mean: a bank run is bit
    for bit an object-per-UE run under the same seed
    (``tests/property/test_property_channel_bank.py`` and
    ``tests/sim/test_fast_path_equivalence.py`` assert this, and the
    scalar reference engine relies on it).

    Two steps must stay numpy's to keep those bits: the innovations'
    complex division by ``sqrt(2)`` (numpy multiplies by a reciprocal,
    unlike a per-component division) and ``np.abs(h) ** 2`` (a ``hypot``,
    unlike ``re**2 + im**2``).
    """

    _BLOCK_SUBFRAMES = 128

    def __init__(
        self,
        mean_rx_power_dbm: "np.ndarray | list[float]",
        num_rbs: int,
        noise_floor_dbm: float = consts.NOISE_FLOOR_10MHZ_DBM,
        doppler_coherence: float = 0.9,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= doppler_coherence < 1.0:
            raise ConfigurationError(
                f"doppler_coherence must be in [0, 1): {doppler_coherence}"
            )
        if num_rbs < 1:
            raise ConfigurationError(f"num_rbs must be positive: {num_rbs}")
        mean_rx = np.array(mean_rx_power_dbm, dtype=float)
        if mean_rx.ndim != 1 or mean_rx.size < 1:
            raise ConfigurationError(
                f"mean_rx_power_dbm must be a non-empty vector: {mean_rx.shape}"
            )
        self.num_ues = int(mean_rx.size)
        self.num_rbs = int(num_rbs)
        self.rho = float(doppler_coherence)
        self.noise_floor_dbm = float(noise_floor_dbm)
        self._mean_rx_dbm = mean_rx
        #: Per-(UE, RB) mean SNR, one row per UE: added to a contiguous
        #: fading row, it costs less than a broadcast column.
        self._mean_snr_db = np.repeat(
            (mean_rx - self.noise_floor_dbm)[:, None], self.num_rbs, axis=1
        )
        parent = rng if rng is not None else np.random.default_rng()
        # One child generator per UE, spawned in UE order — the same parent
        # stream consumption as building UplinkChannel objects in a loop.
        self._rngs = [
            np.random.default_rng(parent.integers(0, 2**63))
            for _ in range(self.num_ues)
        ]
        self._h = np.stack([self._draw_initial(r) for r in self._rngs])
        #: ``(block, num_ues, num_rbs)`` fading (dB) of the current block,
        #: step-major so that each subframe's row is contiguous.
        self._fading_db = np.empty(
            (self._BLOCK_SUBFRAMES, self.num_ues, self.num_rbs)
        )
        self._cursor = self._BLOCK_SUBFRAMES
        with np.errstate(divide="ignore"):
            self._fading_row = 10.0 * np.log10(np.abs(self._h) ** 2)
        self._sinr_db = self._mean_snr_db + self._fading_row

    def _draw_initial(self, rng: np.random.Generator) -> np.ndarray:
        real = rng.standard_normal(self.num_rbs)
        imag = rng.standard_normal(self.num_rbs)
        return (real + 1j * imag) / np.sqrt(2.0)

    def _refill(self) -> None:
        block = self._BLOCK_SUBFRAMES
        raw = np.empty((self.num_ues, block, 2, self.num_rbs))
        for ue, rng in enumerate(self._rngs):
            # (block, 2, num_rbs) normals: flattened, exactly the real/imag
            # draw order of `block` successive FadingProcess steps.
            rng.standard_normal(out=raw[ue])
        # The innovations (re + 1j * im) / sqrt(2), step-major; the state
        # recurrence then overwrites them.  Assigning the parts builds the
        # complex numbers re + 1j * im builds: its extra terms are signed
        # zeros, which can only flip the sign of a part that is itself
        # zero, and |h| ignores that.  The division stays numpy's.
        states = np.empty((block, self.num_ues, self.num_rbs), dtype=complex)
        states.real = raw[:, :, 0, :].transpose(1, 0, 2)
        states.imag = raw[:, :, 1, :].transpose(1, 0, 2)
        np.divide(states, np.sqrt(2.0), out=states)
        c = np.sqrt(1.0 - self.rho**2)
        fill = _fading_block_kernel()
        if fill is None:
            _fading_rows(self._h, states, self.rho, c)
        elif fill(
            self._h.ctypes.data,
            states.ctypes.data,
            self.num_ues,
            block,
            self.num_rbs,
            self.rho,
            c,
        ):
            raise RuntimeError("fading_block rejected the bank's sizes")
        gains = np.abs(states, out=self._fading_db)
        gains **= 2
        with np.errstate(divide="ignore"):
            np.log10(gains, out=gains)
        gains *= 10.0
        self._cursor = 0

    def step(self) -> np.ndarray:
        """Advance all channels one subframe; return ``(U, R)`` SINRs (dB).

        The array is fresh each step and never written to afterwards.
        """
        if self._cursor == self._BLOCK_SUBFRAMES:
            self._refill()
        self._fading_row = self._fading_db[self._cursor]
        self._cursor += 1
        self._sinr_db = self._mean_snr_db + self._fading_row
        return self._sinr_db

    @property
    def sinr_db(self) -> np.ndarray:
        """Per-(UE, RB) SINR (dB) for the current subframe."""
        return self._sinr_db

    def adjust_mean_snr_db(self, ue: int, delta_db: float) -> None:
        """Shift one UE's mean power; RNG state untouched (see
        :meth:`UplinkChannel.adjust_mean_snr_db`, whose arithmetic it
        repeats: the shift lands on the received power, then the noise
        floor comes off).  The current SINRs become a fresh array."""
        if not 0 <= ue < self.num_ues:
            raise ConfigurationError(f"unknown UE id {ue}")
        self._mean_rx_dbm[ue] += float(delta_db)
        self._mean_snr_db[ue] = self._mean_rx_dbm[ue] - self.noise_floor_dbm
        self._sinr_db = self._mean_snr_db + self._fading_row
