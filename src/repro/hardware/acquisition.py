"""Acquisition front-end: pulse train -> recorded voltage trace.

Chains the physics substrate: synthesize the fractional dip signal at
the lock-in's internal oversampled rate, apply baseline drift and
measurement noise, then demodulate/filter/decimate to the recorded
450 Hz multi-channel trace the cloud side analyses.
"""

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro._util.errors import ValidationError
from repro._util.rng import RngLike, ensure_rng
from repro._util.validation import check_positive
from repro.physics.lockin import LockInAmplifier
from repro.physics.noise import NoiseModel
from repro.physics.peaks import PulseTrain, synthesize_pulse_train


@dataclass(frozen=True)
class AcquiredTrace:
    """A recorded multi-carrier capture.

    ``voltages`` has shape ``(n_channels, n_samples)``; channel order
    matches ``carrier_frequencies_hz``.
    """

    voltages: np.ndarray
    sampling_rate_hz: float
    carrier_frequencies_hz: Tuple[float, ...]

    def __post_init__(self) -> None:
        voltages = np.asarray(self.voltages, dtype=float)
        if voltages.ndim != 2:
            raise ValidationError(f"voltages must be 2-D, got shape {voltages.shape}")
        if voltages.shape[0] != len(self.carrier_frequencies_hz):
            raise ValidationError(
                f"{voltages.shape[0]} channels but "
                f"{len(self.carrier_frequencies_hz)} carriers"
            )
        object.__setattr__(self, "voltages", voltages)
        object.__setattr__(
            self,
            "carrier_frequencies_hz",
            tuple(float(f) for f in self.carrier_frequencies_hz),
        )

    @property
    def n_channels(self) -> int:
        """Number of carrier channels."""
        return self.voltages.shape[0]

    @property
    def n_samples(self) -> int:
        """Samples per channel."""
        return self.voltages.shape[1]

    @property
    def duration_s(self) -> float:
        """Capture duration."""
        return self.n_samples / self.sampling_rate_hz


@dataclass(frozen=True)
class AcquisitionFrontEnd:
    """Renders a pulse train through noise and the lock-in chain."""

    lockin: LockInAmplifier = field(default_factory=LockInAmplifier)
    noise: NoiseModel = field(default_factory=NoiseModel)

    def acquire(
        self,
        events: PulseTrain,
        duration_s: float,
        rng: RngLike = None,
    ) -> AcquiredTrace:
        """Record ``duration_s`` of signal containing ``events``."""
        check_positive("duration_s", duration_s)
        generator = ensure_rng(rng)
        internal_rate = self.lockin.internal_rate_hz
        # The internal-rate arrays are ~4x the recorded trace, so none
        # outlives its stage: the fractional trace lives only through
        # ``noise.apply``, and the noisy array is scaled to volts in
        # place (``demodulate`` scales a copy) before the filter runs.
        noisy = self.noise.apply(
            synthesize_pulse_train(
                events,
                n_channels=self.lockin.n_channels,
                sampling_rate_hz=internal_rate,
                duration_s=duration_s,
            ),
            internal_rate,
            rng=generator,
        )
        noisy *= self.lockin.excitation_volts
        voltages = self.lockin._filter_and_decimate(noisy)
        return AcquiredTrace(
            voltages=voltages,
            sampling_rate_hz=self.lockin.output_rate_hz,
            carrier_frequencies_hz=self.lockin.carrier_frequencies_hz,
        )
