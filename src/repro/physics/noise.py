"""Measurement noise and baseline drift.

§VI-C of the paper: "in the long succession of data acquisition, the
measured signal changes in the baseline measurement ... caused by many
conditions such as the change in fluid concentration over long
acquisition time and the temperature drift of the fluid."

:class:`BaselineDriftModel` produces that slow multiplicative drift
(deterministic trend + slow sinusoid + integrated random walk);
:class:`NoiseModel` adds white measurement noise on top.  The cloud-side
detrending pipeline (:mod:`repro.dsp.detrend`) exists to undo exactly
this drift.
"""

from dataclasses import dataclass

import numpy as np

from repro._util.errors import ValidationError
from repro._util.rng import RngLike, ensure_rng
from repro._util.validation import check_positive


@dataclass(frozen=True)
class BaselineDriftModel:
    """Slow multiplicative baseline drift.

    The generated drift multiplies the unit baseline, so a value of
    1.002 means the baseline sits 0.2 % high at that sample.

    Parameters
    ----------
    linear_per_hour:
        Deterministic linear trend (fraction per hour) — e.g. fluid
        evaporation slowly concentrating the buffer.
    sinusoid_amplitude:
        Amplitude of a slow thermal oscillation (fraction).
    sinusoid_period_s:
        Period of the thermal oscillation.
    random_walk_sigma_per_sqrt_s:
        Standard deviation growth rate of the integrated random walk.
    """

    linear_per_hour: float = 0.004
    sinusoid_amplitude: float = 0.0015
    sinusoid_period_s: float = 120.0
    random_walk_sigma_per_sqrt_s: float = 1e-4

    def __post_init__(self) -> None:
        check_positive("sinusoid_period_s", self.sinusoid_period_s)
        if self.sinusoid_amplitude < 0 or self.random_walk_sigma_per_sqrt_s < 0:
            raise ValueError("drift amplitudes must be non-negative")

    def generate(
        self,
        n_samples: int,
        sampling_rate_hz: float,
        rng: RngLike = None,
        phase: float = 0.0,
    ) -> np.ndarray:
        """Drift multiplier for ``n_samples`` at ``sampling_rate_hz``."""
        check_positive("sampling_rate_hz", sampling_rate_hz)
        if n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {n_samples}")
        generator = ensure_rng(rng)
        t = np.arange(n_samples) / sampling_rate_hz
        drift = 1.0 + self.linear_per_hour * t / 3600.0
        drift += self.sinusoid_amplitude * np.sin(
            2.0 * np.pi * t / self.sinusoid_period_s + phase
        )
        if self.random_walk_sigma_per_sqrt_s > 0 and n_samples > 0:
            step_sigma = self.random_walk_sigma_per_sqrt_s / np.sqrt(sampling_rate_hz)
            walk = np.cumsum(generator.normal(0.0, step_sigma, size=n_samples))
            drift += walk
        return drift


@dataclass(frozen=True)
class NoiseModel:
    """Additive white measurement noise plus baseline drift.

    ``white_sigma`` is expressed as a fraction of the baseline (the
    paper's traces show dips of 0.3-1.5 % over noise of a few 0.01 %).
    """

    white_sigma: float = 1.5e-4
    drift: BaselineDriftModel = BaselineDriftModel()

    def __post_init__(self) -> None:
        if self.white_sigma < 0:
            raise ValueError("white_sigma must be non-negative")

    def apply(
        self,
        trace: np.ndarray,
        sampling_rate_hz: float,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Return ``trace`` with drift and noise applied.

        ``trace`` has shape ``(n_channels, n_samples)``; each channel
        gets an independent noise realisation but shares the drift (the
        drift is a property of the fluid, common to all carriers).
        """
        trace = np.asarray(trace, dtype=float)
        if trace.ndim != 2:
            raise ValidationError(
                f"trace must be 2-D (channels, samples), got shape {trace.shape}"
            )
        generator = ensure_rng(rng)
        n_channels, n_samples = trace.shape
        drift = self.drift.generate(n_samples, sampling_rate_hz, rng=generator)
        noisy = trace * drift[None, :]
        if self.white_sigma > 0:
            # Row by row into the fresh array: the same draws in the same
            # order as one full-shape draw, without a full-shape temporary.
            for row in noisy:
                row += generator.normal(0.0, self.white_sigma, size=n_samples)
        return noisy


#: Noise-free configuration, useful for exact unit tests.
QUIET = NoiseModel(
    white_sigma=0.0,
    drift=BaselineDriftModel(
        linear_per_hour=0.0,
        sinusoid_amplitude=0.0,
        random_walk_sigma_per_sqrt_s=0.0,
    ),
)
