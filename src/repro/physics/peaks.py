"""Pulse trains and waveform synthesis.

A particle crossing an active electrode gap produces a transient dip in
the lock-in output voltage (paper Figure 7).  A capture's dips form one
columnar :class:`PulseTrain` (centre, width, electrode and particle
index, per-carrier amplitudes); every producer builds it through
:meth:`PulseTrain.from_arrivals`, and :func:`synthesize_pulse_train`
renders it as Gaussian dips on a unit baseline.

Synthesis is columnar too: two ``searchsorted`` calls find every dip's
±5 sigma window, one ``np.exp`` shapes the windows concatenated, and
one ``np.subtract.at`` per channel takes them off the baseline, in
fixed blocks of events to bound memory.  ``ufunc.at`` is unbuffered and
applies its indices in order, and windows are concatenated in event
order, so each sample is decremented in the same order by the same
values as a per-event loop: the trace is bit-identical to it.

The Gaussian is the standard approximation for co-planar electrode
point-spread responses; the paper's ~20 ms dips at 0.08 µL/min emerge
from the transit-time geometry in :mod:`repro.microfluidics.flow`.
"""

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from repro._util.errors import ValidationError
from repro._util.validation import check_positive

#: sigma -> FWHM conversion for a Gaussian.
_FWHM_PER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))

#: Events synthesized per block (blocks run in event order).
_BLOCK_EVENTS = 256

#: Where one particle dips under one key: gap positions (m), and the
#: electrode and gain of each gap (see :func:`gap_layout`).
GapLayout = Tuple[np.ndarray, np.ndarray, np.ndarray]


class Pulse(NamedTuple):
    """One row of a :class:`PulseTrain`, for ground-truth inspection."""

    center_s: float
    width_s: float
    amplitudes: np.ndarray
    electrode_index: int
    particle_index: int


@dataclass(frozen=True, eq=False)
class PulseTrain:
    """Voltage dips, one row per (particle, electrode gap).

    ``center_s`` is each dip minimum's time and ``width_s`` its FWHM
    (> 0).  ``amplitudes`` is the fractional dip depth per carrier
    (0.003 for a 0.3 % dip), shape ``(events, channels)``.
    ``electrode_index`` is the output electrode (-1 if not applicable);
    ``particle_index`` the feed-order particle (-1 if unknown; ground
    truth only, never visible to the untrusted analysis side).  Scalars,
    and one ``(channels,)`` amplitude row, broadcast over the events.

    ``len`` is the event count; an int index gives a :class:`Pulse`
    row, any other index (slice, mask, index array) a sub-train.
    """

    center_s: np.ndarray
    width_s: np.ndarray
    amplitudes: np.ndarray
    electrode_index: np.ndarray = -1
    particle_index: np.ndarray = -1

    def __post_init__(self) -> None:
        center = np.atleast_1d(np.asarray(self.center_s, dtype=float))
        if center.ndim != 1:
            raise ValidationError(f"center_s must be 1-D, got shape {center.shape}")
        n = center.shape[0]
        amplitudes = np.atleast_2d(np.asarray(self.amplitudes, dtype=float))
        try:
            width, amplitudes, electrode, particle = (
                np.broadcast_to(np.asarray(value, dtype=dtype), shape)
                for value, dtype, shape in (
                    (self.width_s, float, (n,)),
                    (amplitudes, float, (n, amplitudes.shape[-1])),
                    (self.electrode_index, np.int64, (n,)),
                    (self.particle_index, np.int64, (n,)),
                )
            )
        except ValueError as exc:
            raise ValidationError(f"pulse train columns disagree in shape: {exc}") from exc
        if not np.all(np.isfinite(width) & (width > 0)):
            raise ValidationError("width_s must be finite and > 0 for every event")
        if np.any(amplitudes < 0):
            raise ValidationError("amplitudes must be non-negative")
        for name, column in zip(
            ("center_s", "width_s", "amplitudes", "electrode_index", "particle_index"),
            (center, width, amplitudes, electrode, particle),
        ):
            object.__setattr__(self, name, column)

    @classmethod
    def empty(cls, n_channels: int) -> "PulseTrain":
        """A train with no events and ``n_channels`` amplitude columns."""
        return cls(np.empty(0), np.empty(0), np.empty((0, n_channels)))

    @classmethod
    def concatenate(cls, trains: Sequence["PulseTrain"]) -> "PulseTrain":
        """The events of ``trains`` in order (not re-sorted)."""
        return cls(*map(np.concatenate, zip(*(t.columns() for t in trains))))

    @classmethod
    def from_arrivals(
        cls, arrivals: Sequence, layouts: Sequence[GapLayout], array, carriers, circuit
    ) -> "PulseTrain":
        """Dips of particle arrivals, sorted by centre.

        Arrival ``i`` dips at the gaps of ``layouts[i]``: its measured
        drop, computed once, times each gap's gain; centred at
        ``t + gap / v`` with the array's FWHM at ``v``.  The sort is
        stable, so ties keep particle, electrode and gap order.
        ``particle_index`` is the position in ``arrivals``.
        """
        carriers = np.atleast_1d(np.asarray(carriers, dtype=float))
        if len(arrivals) == 0:
            return cls.empty(carriers.shape[0])
        drops = _relative_drops([a.particle for a in arrivals], carriers)
        measured = np.asarray(circuit.measured_drop(carriers, drops), dtype=float)
        width = np.array([array.dip_fwhm_s(a.velocity_m_s) for a in arrivals])
        time = np.array([a.time_s for a in arrivals], dtype=float)
        velocity = np.array([a.velocity_m_s for a in arrivals], dtype=float)
        gap, electrode, gain = map(np.concatenate, zip(*layouts))
        owner = np.repeat(np.arange(len(arrivals)), [len(layout[0]) for layout in layouts])
        center = time[owner] + gap / velocity[owner]
        order = np.argsort(center, kind="stable")
        owner = owner[order]
        return cls(
            center[order], width[owner], gain[order, None] * measured[owner],
            electrode[order], owner,
        )

    def __len__(self) -> int:
        return self.center_s.shape[0]

    def __getitem__(self, index):
        columns = tuple(column[index] for column in self.columns())
        if isinstance(index, Integral):
            center, width, amplitudes, electrode, particle = columns
            return Pulse(float(center), float(width), amplitudes, int(electrode), int(particle))
        return PulseTrain(*columns)

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The five columns, in constructor order."""
        return (
            self.center_s, self.width_s, self.amplitudes, self.electrode_index,
            self.particle_index,
        )

    @property
    def n_channels(self) -> int:
        """Number of amplitude columns (carriers)."""
        return self.amplitudes.shape[1]

    @property
    def sigma_s(self) -> np.ndarray:
        """Gaussian sigma of each dip, from its FWHM."""
        return self.width_s / _FWHM_PER_SIGMA


def _relative_drops(particles: Sequence, carriers: np.ndarray) -> np.ndarray:
    """``particle.relative_drop(carriers)`` for every particle, as rows.

    The dispersion scale is computed once per particle type; each row
    is still that particle's own float times its type's scale.
    """
    slots = {}  # id(type) -> row of ``scales``; the types outlive the call
    scales = []
    rows = []
    factors = []
    for particle in particles:
        kind = particle.particle_type
        slot = slots.get(id(kind))
        if slot is None:
            slot = slots[id(kind)] = len(scales)
            scales.append(kind.dispersion.scale(carriers))
        rows.append(slot)
        factors.append(kind.low_frequency_drop(particle.diameter_m))
    return np.array(factors)[:, None] * np.array(scales)[rows]


def gap_layout(array, electrode_gains) -> GapLayout:
    """The :data:`GapLayout` of ``(electrode, gain)`` pairs, in the order
    given: one row per sensing gap of each electrode."""
    rows = [(gap_m, e, gain) for e, gain in electrode_gains for gap_m in array.gap_positions_m(e)]
    gap, electrode, gain = np.array(rows, dtype=float).reshape(-1, 3).T
    return gap, electrode.astype(np.int64), gain


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
    events: PulseTrain,
    n_channels: int,
    sampling_rate_hz: float,
    duration_s: float,
    baseline: float = 1.0,
) -> np.ndarray:
    """Render a pulse train into a sampled multi-channel trace.

    Returns an array of shape ``(n_channels, n_samples)`` holding the
    *fractional* signal (unit baseline with dips); the lock-in applies
    excitation scaling and filtering afterwards.  Dips from overlapping
    events add, which is what merges adjacent-electrode responses the
    way the paper observes in Figure 11b.  Each dip touches only the
    samples within 5 sigma of its centre.
    """
    check_positive("sampling_rate_hz", sampling_rate_hz)
    check_positive("duration_s", duration_s)
    if n_channels < 1:
        raise ValidationError(f"n_channels must be >= 1, got {n_channels}")
    if events.n_channels != n_channels:
        raise ValidationError(
            f"train has {events.n_channels} channel amplitudes, "
            f"trace has {n_channels} channels"
        )
    n_samples = int(round(duration_s * sampling_rate_hz))
    trace = np.full((n_channels, n_samples), float(baseline))
    if n_samples == 0 or len(events) == 0:
        return trace
    times = np.arange(n_samples) / sampling_rate_hz
    scaled = baseline * events.amplitudes
    for start in range(0, len(events), _BLOCK_EVENTS):
        block = slice(start, start + _BLOCK_EVENTS)
        center, sigma = events.center_s[block], events.sigma_s[block]
        lo = np.searchsorted(times, center - 5.0 * sigma)
        counts = np.searchsorted(times, center + 5.0 * sigma) - lo
        owner = np.repeat(np.arange(len(center)), counts)
        sample = np.arange(owner.shape[0]) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        shape = np.exp(-0.5 * ((times[sample] - center[owner]) / sigma[owner]) ** 2)
        for channel in range(n_channels):
            np.subtract.at(trace[channel], sample, scaled[block][owner, channel] * shape)
    return trace


def total_event_count(events: PulseTrain) -> int:
    """Number of dip events (the 'peak count' ground truth)."""
    return len(events)


def events_per_particle(events: PulseTrain) -> dict:
    """Group events by originating particle, each group sorted by
    centre (ground truth helper)."""
    order = np.argsort(events.center_s, kind="stable")
    return {
        int(p): events[order[events.particle_index[order] == p]]
        for p in np.unique(events.particle_index)
    }
