"""Multi-carrier lock-in amplifier (HF2IS + HF2TA stand-in).

Paper §VI-D: the input electrode is excited with a combination of eight
carrier frequencies (500 kHz - 4 MHz) at 1 V; the recovered signal is
demodulated per carrier, low-pass filtered at 120 Hz and sampled at
450 Hz.

We do not simulate the MHz carriers sample-by-sample (that would need a
GHz-rate solver for zero scientific gain); the demodulated *baseband*
signal is synthesized directly from the per-carrier fractional dips, and
this module applies the parts of the chain that shape the recorded data:
excitation scaling, the 120 Hz anti-alias low-pass, and decimation from
the internal oversampled rate to the 450 Hz output rate.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import signal as sp_signal

from repro._util.errors import ValidationError
from repro._util.units import khz
from repro._util.validation import check_positive

#: The paper's §VI-D excitation carrier set.
DEFAULT_CARRIERS_HZ: Tuple[float, ...] = tuple(
    khz(f) for f in (500, 800, 1000, 1200, 1400, 2000, 3000, 4000)
)


@dataclass(frozen=True)
class LockInAmplifier:
    """Demodulation chain from fractional dips to recorded volts.

    Parameters
    ----------
    carrier_frequencies_hz:
        Excitation carriers; one output channel per carrier.
    excitation_volts:
        Per-carrier excitation amplitude (paper: 1 V).
    output_rate_hz:
        Recorded sampling rate (paper: 450 Hz).
    lowpass_cutoff_hz:
        Recovery filter cutoff (paper: 120 Hz).
    oversample_factor:
        Internal synthesis rate multiplier; the filter runs at the
        oversampled rate and the output is decimated back down.
    """

    carrier_frequencies_hz: Tuple[float, ...] = DEFAULT_CARRIERS_HZ
    excitation_volts: float = 1.0
    output_rate_hz: float = 450.0
    lowpass_cutoff_hz: float = 120.0
    oversample_factor: int = 4
    filter_order: int = 4

    def __post_init__(self) -> None:
        if not self.carrier_frequencies_hz:
            raise ValueError("at least one carrier frequency is required")
        frequencies = tuple(float(f) for f in self.carrier_frequencies_hz)
        if any(f <= 0 for f in frequencies):
            raise ValueError("carrier frequencies must be > 0")
        if len(set(frequencies)) != len(frequencies):
            raise ValueError("carrier frequencies must be distinct")
        object.__setattr__(self, "carrier_frequencies_hz", frequencies)
        check_positive("excitation_volts", self.excitation_volts)
        check_positive("output_rate_hz", self.output_rate_hz)
        check_positive("lowpass_cutoff_hz", self.lowpass_cutoff_hz)
        if self.oversample_factor < 1:
            raise ValueError("oversample_factor must be >= 1")
        if self.lowpass_cutoff_hz >= self.output_rate_hz / 2.0:
            raise ValueError(
                "lowpass_cutoff_hz must be below the output Nyquist frequency "
                f"({self.output_rate_hz / 2.0} Hz)"
            )

    # ------------------------------------------------------------------
    @property
    def n_channels(self) -> int:
        """Number of demodulated output channels (= carriers)."""
        return len(self.carrier_frequencies_hz)

    @property
    def internal_rate_hz(self) -> float:
        """Oversampled synthesis rate the filter runs at."""
        return self.output_rate_hz * self.oversample_factor

    def channel_index(self, frequency_hz: float) -> int:
        """Index of the output channel for a given carrier."""
        for index, carrier in enumerate(self.carrier_frequencies_hz):
            if abs(carrier - frequency_hz) < 0.5:
                return index
        raise ValueError(f"{frequency_hz} Hz is not one of the configured carriers")

    # ------------------------------------------------------------------
    def demodulate(self, fractional_trace: np.ndarray) -> np.ndarray:
        """Convert an oversampled fractional trace to recorded volts.

        ``fractional_trace`` has shape ``(n_channels, n_internal)`` and
        holds the unit-baseline dip signal at the internal rate.  The
        returned array has shape ``(n_channels, n_output)`` in volts at
        the output rate, after the recovery low-pass.
        """
        trace = np.asarray(fractional_trace, dtype=float)
        if trace.ndim != 2 or trace.shape[0] != self.n_channels:
            raise ValidationError(
                f"expected trace of shape ({self.n_channels}, n), got {trace.shape}"
            )
        return self._filter_and_decimate(self.excitation_volts * trace)

    def _filter_and_decimate(self, volts: np.ndarray) -> np.ndarray:
        """Recovery low-pass at the internal rate, then decimation.

        One channel at a time, into a fresh output array: the filter's
        internal-rate temporaries then last one channel, and the result
        holds no view of them.  Channels filter independently, so this
        is bit-identical to one ``sosfiltfilt`` call along ``axis=1``.
        """
        if volts.shape[1] == 0:
            return volts[:, :0]
        sos = sp_signal.butter(
            self.filter_order,
            self.lowpass_cutoff_hz,
            btype="low",
            fs=self.internal_rate_hz,
            output="sos",
        )
        step = self.oversample_factor
        out = np.empty((volts.shape[0], len(range(0, volts.shape[1], step))))
        for channel, row in enumerate(volts):
            out[channel] = sp_signal.sosfiltfilt(sos, row)[::step]
        return out

    def output_sample_count(self, duration_s: float) -> int:
        """Number of recorded samples for a run of ``duration_s``."""
        check_positive("duration_s", duration_s)
        internal = int(round(duration_s * self.internal_rate_hz))
        return len(range(0, internal, self.oversample_factor))
