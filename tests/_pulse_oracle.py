"""Frozen copy of the per-event pulse path, kept as a test oracle.

This is the pulse path as it stood before pulse events became one
columnar ``PulseTrain``: the frozen ``PulseEvent`` dataclass, the
per-event ``synthesize_pulse_train`` loop, the encryptor's keyed and
plaintext event generation, the per-cell encryptor and the fault
model's ``apply_to_events``.  The shipped columnar path must produce
byte-identical event columns and traces; ``tests/test_pulse_oracle.py``
enforces it.  Do not edit the arithmetic below: it is the reference.
"""

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro._util.errors import ValidationError
from repro._util.validation import check_positive
from repro.physics.electrical import ElectrodePairCircuit

_FWHM_PER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


@dataclass(frozen=True)
class PulseEvent:
    """One voltage dip caused by one particle at one electrode gap."""

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
        return self.width_s / _FWHM_PER_SIGMA


def synthesize_pulse_train(
    events: Sequence[PulseEvent],
    n_channels: int,
    sampling_rate_hz: float,
    duration_s: float,
    baseline: float = 1.0,
) -> np.ndarray:
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
        lo = int(np.searchsorted(times, event.center_s - 5.0 * sigma))
        hi = int(np.searchsorted(times, event.center_s + 5.0 * sigma))
        if hi <= lo:
            continue
        window = times[lo:hi]
        shape = np.exp(-0.5 * ((window - event.center_s) / sigma) ** 2)
        trace[:, lo:hi] -= baseline * event.amplitudes[:, None] * shape[None, :]
    return trace


# --- SignalEncryptor ---------------------------------------------------
def _dip_amplitudes(encryptor, arrival, carriers, gain) -> np.ndarray:
    drops = arrival.particle.relative_drop(carriers)
    measured = encryptor.circuit.measured_drop(carriers, drops)
    return gain * np.asarray(measured, dtype=float)


def _events_for_particle(encryptor, arrival, epoch, plan, carriers, particle_index):
    width_s = plan.array.dip_fwhm_s(arrival.velocity_m_s)
    events = []
    for electrode in sorted(epoch.active_electrodes):
        gain = plan.gain_table.gain_for_level(epoch.gain_level_for(electrode))
        amplitudes = _dip_amplitudes(encryptor, arrival, carriers, gain=gain)
        for gap_m in plan.array.gap_positions_m(electrode):
            events.append(
                PulseEvent(
                    center_s=arrival.time_s + gap_m / arrival.velocity_m_s,
                    width_s=width_s,
                    amplitudes=amplitudes,
                    electrode_index=electrode,
                    particle_index=particle_index,
                )
            )
    return events


def events_for_arrivals(encryptor, arrivals, plan) -> List[PulseEvent]:
    """``SignalEncryptor.events_for_arrivals`` (without the observer)."""
    carriers = np.asarray(encryptor.carrier_frequencies_hz)
    events: List[PulseEvent] = []
    for particle_index, arrival in enumerate(arrivals):
        epoch = plan.schedule.key_at(arrival.time_s)
        events.extend(
            _events_for_particle(encryptor, arrival, epoch, plan, carriers, particle_index)
        )
    events.sort(key=lambda event: event.center_s)
    return events


def plaintext_events(encryptor, arrivals, array) -> List[PulseEvent]:
    """``SignalEncryptor.plaintext_events``."""
    carriers = np.asarray(encryptor.carrier_frequencies_hz)
    events: List[PulseEvent] = []
    lead = array.lead_electrode
    for particle_index, arrival in enumerate(arrivals):
        width_s = array.dip_fwhm_s(arrival.velocity_m_s)
        amplitudes = _dip_amplitudes(encryptor, arrival, carriers, gain=1.0)
        for gap_m in array.gap_positions_m(lead):
            events.append(
                PulseEvent(
                    center_s=arrival.time_s + gap_m / arrival.velocity_m_s,
                    width_s=width_s,
                    amplitudes=amplitudes,
                    electrode_index=lead,
                    particle_index=particle_index,
                )
            )
    events.sort(key=lambda event: event.center_s)
    return events


# --- PerCellEncryptor --------------------------------------------------
def percell_events_for_arrivals(encryptor, arrivals, plan) -> List[PulseEvent]:
    """``PerCellEncryptor.events_for_arrivals`` (key-count check omitted)."""
    carriers = np.asarray(encryptor.carrier_frequencies_hz)
    events: List[PulseEvent] = []
    for index, arrival in enumerate(sorted(arrivals, key=lambda a: a.time_s)):
        key = plan.keys[index]
        width_s = plan.array.dip_fwhm_s(arrival.velocity_m_s)
        for electrode in sorted(key.active_electrodes):
            gain = plan.gain_table.gain_for_level(key.gain_level_for(electrode))
            drops = arrival.particle.relative_drop(carriers)
            amplitudes = gain * np.asarray(
                encryptor.circuit.measured_drop(carriers, drops), dtype=float
            )
            for gap_m in plan.array.gap_positions_m(electrode):
                events.append(
                    PulseEvent(
                        center_s=arrival.time_s + gap_m / arrival.velocity_m_s,
                        width_s=width_s,
                        amplitudes=amplitudes,
                        electrode_index=electrode,
                        particle_index=index,
                    )
                )
    events.sort(key=lambda event: event.center_s)
    return events


# --- FaultModel --------------------------------------------------------
def apply_to_events(
    model, events, array, arrivals=(), circuit=None, carriers=()
) -> List[PulseEvent]:
    """``FaultModel.apply_to_events``."""
    out: List[PulseEvent] = []
    for event in events:
        electrode = event.electrode_index
        if electrode in model.dead_electrodes:
            continue
        if electrode in model.weak_electrodes:
            out.append(
                PulseEvent(
                    center_s=event.center_s,
                    width_s=event.width_s,
                    amplitudes=event.amplitudes * model.weak_attenuation,
                    electrode_index=electrode,
                    particle_index=event.particle_index,
                )
            )
        else:
            out.append(event)

    if model.stuck_on_electrodes and arrivals:
        circuit = circuit or ElectrodePairCircuit()
        carrier_array = np.asarray(list(carriers) or [500e3])
        covered = {(event.particle_index, event.electrode_index) for event in events}
        for particle_index, arrival in enumerate(arrivals):
            for electrode in sorted(model.stuck_on_electrodes):
                if (particle_index, electrode) in covered:
                    continue
                drops = arrival.particle.relative_drop(carrier_array)
                amplitudes = np.asarray(
                    circuit.measured_drop(carrier_array, drops), dtype=float
                )
                width_s = array.dip_fwhm_s(arrival.velocity_m_s)
                for gap_m in array.gap_positions_m(electrode):
                    out.append(
                        PulseEvent(
                            center_s=arrival.time_s + gap_m / arrival.velocity_m_s,
                            width_s=width_s,
                            amplitudes=amplitudes,
                            electrode_index=electrode,
                            particle_index=particle_index,
                        )
                    )
    out.sort(key=lambda event: event.center_s)
    return out
