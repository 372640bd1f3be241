"""Scalar session oracle for differential tests of transport and decryption.

Arrival scheduling (:meth:`TransportModel.schedule_arrivals`) and
template matching (:meth:`SignalDecryptor._match_groups`) claim *exact*
equality — same arrivals, same groups, bit-identical floats — with the
scalar formulations they replaced:

* a population draw that builds one :class:`Particle` per particle,
  species by species, and shuffles that list;
* one 60-step bisection per particle, each step walking every pump
  segment through ``FlowController.volume_pumped_ul``, with one scalar
  ``generator.random()`` survival draw per reachable particle;
* a template match that keeps the unassigned peaks in a ``set`` and,
  for every slot, scans all of them in ascending index order.  ``<=``
  lets a later peak replace an earlier one, so among equal errors the
  highest index wins; the anchor is the first of ``min(..., key=time)``,
  the lowest index among equal times.  The scan sorts the set: a bare
  ``for i in unassigned`` follows CPython's hash-table slots, which stop
  being in index order once ``difference_update`` shrinks the table
  (``{15, 16}`` left from ``set(range(34))`` iterates ``[16, 15]``), and
  that layout is not part of the rule.

This module is those formulations, kept as an executable reference,
plus strict comparators.  Convention: a change to either hot path must
keep it in exact agreement with this oracle — change both or neither.
The golden digests in ``test_session_golden.py`` additionally pin the
*absolute* output for the paper scenarios.
"""

import struct
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro._util.rng import ensure_rng
from repro._util.validation import check_positive
from repro.crypto.decryptor import DecryptionResult, SignalDecryptor, _Group
from repro.crypto.key import EpochKey
from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.microfluidics.flow import FlowController
from repro.microfluidics.transport import ParticleArrival, TransportModel
from repro.particles.sample import Particle, Sample


# ---------------------------------------------------------------------------
# Arrival scheduling
# ---------------------------------------------------------------------------
def scalar_time_for_volume(
    flow: FlowController, volume_ul: float, duration_s: float
) -> Optional[float]:
    """Invert the cumulative pumped-volume function by scalar bisection."""
    if volume_ul <= 0.0:
        return 0.0
    lo, hi = 0.0, duration_s
    if flow.volume_pumped_ul(0.0, hi) < volume_ul:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if flow.volume_pumped_ul(0.0, mid) < volume_ul:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_draw_particles(sample: Sample, rng) -> List[Particle]:
    """Every particle as an object, species by species, then shuffled."""
    generator = ensure_rng(rng)
    particles: List[Particle] = []
    for ptype, count in sample.counts.items():
        diameters = np.atleast_1d(ptype.draw_diameter(generator, size=count))
        particles.extend(Particle(ptype, float(d)) for d in diameters)
    generator.shuffle(particles)
    return particles


def scalar_schedule_arrivals(
    transport: TransportModel, sample: Sample, flow: FlowController, duration_s: float, rng
) -> List[ParticleArrival]:
    """The per-particle arrival loop (the differential oracle)."""
    check_positive("duration_s", duration_s)
    generator = ensure_rng(rng)
    particles = scalar_draw_particles(sample, generator)
    if not particles:
        return []
    pumped_ul = flow.volume_pumped_ul(0.0, duration_s)
    positions_ul = generator.uniform(0.0, sample.volume_ul, size=len(particles))
    arrivals: List[ParticleArrival] = []
    for particle, position_ul in zip(particles, positions_ul):
        if position_ul > pumped_ul:
            continue
        time_s = scalar_time_for_volume(flow, position_ul, duration_s)
        if time_s is None:
            continue
        if generator.random() > transport.survival_probability(particle, time_s):
            continue
        arrivals.append(
            ParticleArrival(
                time_s=time_s,
                particle=particle,
                velocity_m_s=flow.velocity_at(time_s),
            )
        )
    arrivals.sort(key=lambda a: a.time_s)
    return arrivals


# ---------------------------------------------------------------------------
# Template matching
# ---------------------------------------------------------------------------
def scalar_match_groups(
    decryptor: SignalDecryptor, report: PeakReport
) -> Tuple[List[_Group], int]:
    """The set-scan template match (the differential oracle)."""
    schedule = decryptor.plan.schedule
    peaks = sorted(report.peaks, key=lambda p: p.time_s)
    unassigned: Set[int] = set(range(len(peaks)))
    groups: List[_Group] = []
    anomalies = 0

    while unassigned:
        in_order = sorted(unassigned)
        anchor_index = min(in_order, key=lambda i: peaks[i].time_s)
        anchor = peaks[anchor_index]
        epoch_time = min(anchor.time_s, schedule.duration_s * (1 - 1e-12))
        epoch_index = schedule.epoch_index_at(epoch_time)
        epoch = schedule.epochs[epoch_index]
        velocity = decryptor._velocity_for_epoch(epoch)
        template = decryptor._gap_template(epoch, velocity)
        tolerance_s = decryptor.tolerance_fraction * decryptor.plan.array.transit_time_s(
            velocity
        )

        matched: List[Tuple[DetectedPeak, int]] = []
        slot_of_peak: Dict[int, int] = {}
        unmatched_slots: List[int] = []
        for slot, (offset_s, electrode) in enumerate(template):
            expected = anchor.time_s + offset_s
            best, best_error = None, tolerance_s
            for i in in_order:
                if i in slot_of_peak:
                    continue
                error = abs(peaks[i].time_s - expected)
                if error <= best_error:
                    best, best_error = i, error
            if best is None:
                unmatched_slots.append(slot)
            else:
                slot_of_peak[best] = slot
                matched.append((peaks[best], electrode))
        if not matched:
            unassigned.discard(anchor_index)
            anomalies += 1
            continue
        unassigned.difference_update(slot_of_peak)
        credits = scalar_credit_merges(
            decryptor, peaks, anchor, template, slot_of_peak, unmatched_slots,
            epoch, tolerance_s,
        )
        if len(matched) + credits != len(template):
            anomalies += 1
        groups.append(
            _Group(
                epoch_index=epoch_index,
                matched=tuple(matched),
                credits=credits,
                template_size=len(template),
            )
        )
    return groups, anomalies


def scalar_credit_merges(
    decryptor: SignalDecryptor,
    peaks: Sequence[DetectedPeak],
    anchor: DetectedPeak,
    template: List[Tuple[float, int]],
    slot_of_peak: Dict[int, int],
    unmatched_slots: List[int],
    epoch: EpochKey,
    tolerance_s: float,
) -> int:
    """Amplitude-accounting merge recovery, as the set-scan match ran it."""
    if not unmatched_slots or not slot_of_peak:
        return 0
    gain_table = decryptor.plan.gain_table
    detection_channel = 0
    ratios = []
    for peak_index, slot in slot_of_peak.items():
        electrode = template[slot][1]
        gain = gain_table.gain_for_level(epoch.gain_level_for(electrode))
        ratios.append(peaks[peak_index].amplitudes[detection_channel] / gain)
    base_amplitude = float(np.min(ratios))
    if base_amplitude <= 0:
        return 0

    credits = 0
    absorbed: Dict[int, int] = {}
    for slot in unmatched_slots:
        offset_s, electrode = template[slot]
        expected = anchor.time_s + offset_s
        candidates = [
            (abs(peaks[i].time_s - expected), i)
            for i in slot_of_peak
            if abs(peaks[i].time_s - expected) <= 2.0 * tolerance_s
        ]
        if not candidates:
            continue
        _, candidate = min(candidates)
        if absorbed.get(candidate, 0) >= decryptor.max_credits_per_peak:
            continue
        candidate_slot = slot_of_peak[candidate]
        candidate_gain = gain_table.gain_for_level(
            epoch.gain_level_for(template[candidate_slot][1])
        )
        missing_gain = gain_table.gain_for_level(epoch.gain_level_for(electrode))
        observed = peaks[candidate].amplitudes[detection_channel]
        solo = candidate_gain * base_amplitude
        merged = (candidate_gain + missing_gain) * base_amplitude
        if abs(observed - merged) < abs(observed - solo):
            credits += 1
            absorbed[candidate] = absorbed.get(candidate, 0) + 1
    return credits


def scalar_decrypt(decryptor: SignalDecryptor, report: PeakReport) -> DecryptionResult:
    """``SignalDecryptor.decrypt`` with the set-scan template match."""
    groups, anomalies = scalar_match_groups(decryptor, report)
    return DecryptionResult(
        particles=tuple(
            decryptor._recover_particle(group) for group in groups if group.matched
        ),
        epoch_counts=tuple(decryptor._counts_from_groups(groups)),
        observed_peak_count=report.count,
        merge_credits=sum(group.credits for group in groups),
        anomalous_groups=anomalies,
    )


# ---------------------------------------------------------------------------
# Strict comparison
# ---------------------------------------------------------------------------
def _fbits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def explain_arrivals_mismatch(
    actual: Sequence[ParticleArrival], expected: Sequence[ParticleArrival]
) -> str:
    """First difference between two arrival lists, or '' if identical.

    Times and velocities are compared through their IEEE-754 bytes.
    """
    if len(actual) != len(expected):
        return f"arrival count {len(actual)} != {len(expected)}"
    for index, (arrival, other) in enumerate(zip(actual, expected)):
        if arrival.particle != other.particle:
            return f"arrival {index}: particle {arrival.particle} != {other.particle}"
        for name in ("time_s", "velocity_m_s"):
            value, reference = getattr(arrival, name), getattr(other, name)
            if type(value) is not type(reference) or _fbits(value) != _fbits(reference):
                return f"arrival {index}: {name} {value!r} != {reference!r}"
    return ""


def explain_decryption_mismatch(
    actual: DecryptionResult, expected: DecryptionResult
) -> str:
    """First difference between two decryption results, or ''."""
    for name in (
        "epoch_counts",
        "observed_peak_count",
        "merge_credits",
        "anomalous_groups",
    ):
        if getattr(actual, name) != getattr(expected, name):
            return f"{name}: {getattr(actual, name)!r} != {getattr(expected, name)!r}"
    if len(actual.particles) != len(expected.particles):
        return f"particle count {len(actual.particles)} != {len(expected.particles)}"
    for index, (particle, other) in enumerate(zip(actual.particles, expected.particles)):
        for name in ("n_peaks_matched", "epoch_index", "clean"):
            if getattr(particle, name) != getattr(other, name):
                return (
                    f"particle {index}: {name} {getattr(particle, name)!r} != "
                    f"{getattr(other, name)!r}"
                )
        for name in ("time_s", "width_s"):
            if _fbits(getattr(particle, name)) != _fbits(getattr(other, name)):
                return (
                    f"particle {index}: {name} {getattr(particle, name)!r} != "
                    f"{getattr(other, name)!r}"
                )
        if (
            particle.amplitudes.shape != other.amplitudes.shape
            or particle.amplitudes.tobytes() != other.amplitudes.tobytes()
        ):
            return f"particle {index}: amplitudes differ"
    return ""
