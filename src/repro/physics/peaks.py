"""Pulse events and waveform synthesis.

A particle crossing an active electrode gap produces a transient dip in
the lock-in output voltage (paper Figure 7).  We represent each dip as a
:class:`PulseEvent` — a centre time, a width set by the transit speed,
and a per-carrier amplitude vector — and synthesize sampled traces by
summing Gaussian dips on a unit baseline.

The Gaussian is the standard approximation for co-planar electrode
point-spread responses; the paper's ~20 ms dips at 0.08 µL/min emerge
from the transit-time geometry in :mod:`repro.microfluidics.flow`.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro._util.errors import ValidationError
from repro._util.validation import check_positive

#: sigma -> FWHM conversion for a Gaussian.
_FWHM_PER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


@dataclass(frozen=True)
class PulseEvent:
    """One voltage dip caused by one particle at one electrode gap.

    Parameters
    ----------
    center_s:
        Time of the dip minimum.
    width_s:
        Full width at half maximum of the dip.
    amplitudes:
        Fractional dip depth per acquisition channel (carrier), e.g.
        0.003 for a 0.3 % dip.  Length = number of carriers.
    electrode_index:
        Which output electrode produced the dip (-1 if not applicable).
    particle_index:
        Index of the particle in the feed order (-1 if unknown).  Ground
        truth only — never visible to the untrusted analysis side.
    """

    center_s: float
    width_s: float
    amplitudes: np.ndarray
    electrode_index: int = -1
    particle_index: int = -1

    def __post_init__(self) -> None:
        check_positive("width_s", self.width_s)
        amplitudes = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        if np.any(amplitudes < 0):
            raise ValueError("amplitudes must be non-negative")
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def sigma_s(self) -> float:
        """Gaussian sigma corresponding to the FWHM."""
        return self.width_s / _FWHM_PER_SIGMA


def pulse_width_fwhm_s(transit_length_m: float, velocity_m_s: float) -> float:
    """Dip width from sensing-gap geometry and particle velocity.

    ``transit_length_m`` is the distance over which the particle
    modulates the gap (the paper quotes 45 µm: a 25 µm pitch plus two
    20 µm electrode halves); the dip FWHM is the time spent in it.
    """
    check_positive("transit_length_m", transit_length_m)
    check_positive("velocity_m_s", velocity_m_s)
    return transit_length_m / velocity_m_s


def synthesize_pulse_train(
    events: Sequence[PulseEvent],
    n_channels: int,
    sampling_rate_hz: float,
    duration_s: float,
    baseline: float = 1.0,
) -> np.ndarray:
    """Render events into a sampled multi-channel trace.

    Returns an array of shape ``(n_channels, n_samples)`` holding the
    *fractional* signal (unit baseline with dips); the lock-in applies
    excitation scaling and filtering afterwards.  Dips from overlapping
    events add, which is what merges adjacent-electrode responses the
    way the paper observes in Figure 11b.
    """
    check_positive("sampling_rate_hz", sampling_rate_hz)
    check_positive("duration_s", duration_s)
    if n_channels < 1:
        raise ValidationError(f"n_channels must be >= 1, got {n_channels}")
    n_samples = int(round(duration_s * sampling_rate_hz))
    trace = np.full((n_channels, n_samples), float(baseline))
    if n_samples == 0:
        return trace
    times = np.arange(n_samples) / sampling_rate_hz
    for event in events:
        if event.amplitudes.shape[0] != n_channels:
            raise ValidationError(
                f"event has {event.amplitudes.shape[0]} channel amplitudes, "
                f"trace has {n_channels} channels"
            )
        sigma = event.sigma_s
        # Only touch samples within 5 sigma of the centre.
        lo = int(np.searchsorted(times, event.center_s - 5.0 * sigma))
        hi = int(np.searchsorted(times, event.center_s + 5.0 * sigma))
        if hi <= lo:
            continue
        window = times[lo:hi]
        shape = np.exp(-0.5 * ((window - event.center_s) / sigma) ** 2)
        trace[:, lo:hi] -= baseline * event.amplitudes[:, None] * shape[None, :]
    return trace


def total_event_count(events: Iterable[PulseEvent]) -> int:
    """Number of dip events (the 'peak count' ground truth)."""
    return sum(1 for _ in events)


def events_per_particle(events: Iterable[PulseEvent]) -> dict:
    """Group events by originating particle (ground truth helper)."""
    groups: dict = {}
    for event in events:
        groups.setdefault(event.particle_index, []).append(event)
    for group in groups.values():
        group.sort(key=lambda e: e.center_s)
    return groups
