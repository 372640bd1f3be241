"""Frozen copy of the row-walking decryptor, kept as a test oracle.

This is ``SignalDecryptor`` as it stood before decryption read report
columns: it sorts the report's ``DetectedPeak`` rows by time, groups
``(peak, electrode)`` pairs, and recovers each particle with its own
``np.vstack``/``np.median`` pair.  The shipped column decryptor must
return the same ``DecryptionResult``, float bits included;
``tests/test_decrypt_oracle.py`` enforces it.  Do not edit the
arithmetic below: it is the reference.
"""

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._util.errors import DecryptionError
from repro.crypto.decryptor import DecryptedParticle, DecryptionResult, SignalDecryptor
from repro.crypto.encryptor import EncryptionPlan
from repro.crypto.key import EpochKey
from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.microfluidics.channel import MicrofluidicChannel
from repro.microfluidics.flow import NOMINAL_FLOW_RATE_UL_MIN
from repro.obs import DECRYPTION_COMPLETED, NULL_OBSERVER


def oracle_for(decryptor: SignalDecryptor) -> "RowSignalDecryptor":
    """The oracle with ``decryptor``'s plan and parameters."""
    return RowSignalDecryptor(
        plan=decryptor.plan,
        channel=decryptor.channel,
        reference_flow_rate_ul_min=decryptor.reference_flow_rate_ul_min,
        tolerance_fraction=decryptor.tolerance_fraction,
        max_credits_per_peak=decryptor.max_credits_per_peak,
    )


@dataclass(frozen=True)
class _RowGroup:
    """Internal: one template match."""

    epoch_index: int
    matched: Tuple[Tuple[DetectedPeak, int], ...]  # (peak, electrode)
    credits: int
    template_size: int


@dataclass(frozen=True)
class RowSignalDecryptor:
    """The row-walking decryptor (frozen)."""

    plan: EncryptionPlan
    channel: MicrofluidicChannel = field(default_factory=MicrofluidicChannel)
    reference_flow_rate_ul_min: float = NOMINAL_FLOW_RATE_UL_MIN
    #: Slot-matching tolerance as a fraction of the gap transit time.
    tolerance_fraction: float = 0.45
    #: Maximum extra dips a single detected peak may absorb as merges.
    max_credits_per_peak: int = 2

    # ------------------------------------------------------------------
    def decrypt(self, report: PeakReport, observer=NULL_OBSERVER) -> DecryptionResult:
        """Recover true counts and particle features from a report."""
        schedule = self.plan.schedule
        # Sampling quantisation can stretch a report a fraction of a
        # sample past the nominal duration; tolerate that, but reject
        # genuinely longer reports (decrypting with a clipped schedule
        # silently corrupts counts).
        slack_s = max(0.01, 2.0 / report.sampling_rate_hz)
        if report.duration_s > schedule.duration_s + slack_s:
            raise DecryptionError(
                f"report covers {report.duration_s:.3f}s but the key schedule "
                f"only covers {schedule.duration_s:.3f}s"
            )
        with observer.span("signal_decrypt", peaks=report.count) as span:
            with observer.span("template_match"):
                groups, anomalies = self._match_groups(report)
            epoch_counts = self._counts_from_groups(groups)
            with observer.span("recover_particles", groups=len(groups)):
                particles = [
                    self._recover_particle(group) for group in groups if group.matched
                ]
            result = DecryptionResult(
                particles=tuple(particles),
                epoch_counts=tuple(epoch_counts),
                observed_peak_count=report.count,
                merge_credits=sum(group.credits for group in groups),
                anomalous_groups=anomalies,
            )
            span.set_attribute("recovered_count", result.total_count)
        observer.incr("decrypt.recovered_particles", result.total_count)
        observer.incr("decrypt.merge_credits", result.merge_credits)
        observer.incr("decrypt.anomalous_groups", result.anomalous_groups)
        observer.event(
            DECRYPTION_COMPLETED,
            observed_peaks=result.observed_peak_count,
            recovered_count=result.total_count,
            merge_credits=result.merge_credits,
            anomalous_groups=result.anomalous_groups,
        )
        return result

    # ------------------------------------------------------------------
    # Stage 1+2: template matching with merge recovery
    # ------------------------------------------------------------------
    def _match_groups(self, report: PeakReport) -> Tuple[List[_RowGroup], int]:
        schedule = self.plan.schedule
        peaks = sorted(report.peaks, key=lambda p: p.time_s)
        times = [peak.time_s for peak in peaks]
        assigned = bytearray(len(peaks))
        groups: List[_RowGroup] = []
        anomalies = 0

        # The anchor is the lowest unassigned index: the earliest peak,
        # and the lowest index among equal times.
        anchor_index = 0
        while anchor_index < len(peaks):
            if assigned[anchor_index]:
                anchor_index += 1
                continue
            anchor = peaks[anchor_index]
            epoch_time = min(anchor.time_s, schedule.duration_s * (1 - 1e-12))
            epoch_index = schedule.epoch_index_at(epoch_time)
            epoch = schedule.epochs[epoch_index]
            velocity = self._velocity_for_epoch(epoch)
            template = self._gap_template(epoch, velocity)
            tolerance_s = self.tolerance_fraction * self.plan.array.transit_time_s(velocity)
            # Padding the window to twice the tolerance covers the
            # rounding of ``expected -/+ window`` and of the error test,
            # so the window holds every peak that can pass that test.
            window_s = 2.0 * tolerance_s

            matched: List[Tuple[DetectedPeak, int]] = []
            slot_of_peak: Dict[int, int] = {}
            unmatched_slots: List[int] = []
            for slot, (offset_s, electrode) in enumerate(template):
                expected = anchor.time_s + offset_s
                best, best_error = None, tolerance_s
                # Every peak before the anchor is assigned already.
                lo = bisect.bisect_left(times, expected - window_s, anchor_index)
                hi = bisect.bisect_right(times, expected + window_s, lo)
                # Ascending order with ``<=``: the highest index wins ties.
                for i in range(lo, hi):
                    if assigned[i] or i in slot_of_peak:
                        continue
                    error = abs(times[i] - expected)
                    if error <= best_error:
                        best, best_error = i, error
                if best is None:
                    unmatched_slots.append(slot)
                else:
                    slot_of_peak[best] = slot
                    matched.append((peaks[best], electrode))
            if not matched:
                assigned[anchor_index] = 1
                anomalies += 1
                continue
            for i in slot_of_peak:
                assigned[i] = 1
            credits = self._credit_merges(
                peaks, anchor, template, slot_of_peak, unmatched_slots, epoch, tolerance_s
            )
            if len(matched) + credits != len(template):
                anomalies += 1
            groups.append(
                _RowGroup(
                    epoch_index=epoch_index,
                    matched=tuple(matched),
                    credits=credits,
                    template_size=len(template),
                )
            )
        return groups, anomalies

    def _credit_merges(
        self,
        peaks: Sequence[DetectedPeak],
        anchor: DetectedPeak,
        template: List[Tuple[float, int]],
        slot_of_peak: Dict[int, int],
        unmatched_slots: List[int],
        epoch: EpochKey,
        tolerance_s: float,
    ) -> int:
        """Amplitude-accounting merge recovery.

        For every unmatched template slot, look at the nearest *matched*
        peak of this group within one transit time.  The controller
        knows both slots' gains; if the candidate's observed depth is
        closer to ``(g_missing + g_candidate) * A`` than to
        ``g_candidate * A`` (with ``A`` the particle's base amplitude
        estimated from the other matched slots), the missing dip merged
        into that peak and is credited rather than lost.
        """
        if not unmatched_slots or not slot_of_peak:
            return 0
        gain_table = self.plan.gain_table
        detection_channel = 0

        # Base amplitude estimate from matched slots (depth / gain).
        # The minimum is robust here: merged peaks can only be *deeper*
        # than a solo dip, so the smallest ratio is the least
        # merge-contaminated estimate of the particle's base amplitude.
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
            if absorbed.get(candidate, 0) >= self.max_credits_per_peak:
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

    # ------------------------------------------------------------------
    # Stage 3: counts
    # ------------------------------------------------------------------
    def _counts_from_groups(self, groups: Sequence[_RowGroup]) -> List[int]:
        schedule = self.plan.schedule
        totals = [0.0] * schedule.n_epochs
        for group in groups:
            totals[group.epoch_index] += len(group.matched) + group.credits
        counts = []
        for epoch_index, total in enumerate(totals):
            epoch = schedule.epochs[epoch_index]
            m = self.plan.array.multiplication_factor(epoch.active_electrodes)
            counts.append(int(round(total / m)))
        return counts

    # ------------------------------------------------------------------
    # Stage 4: amplitude/width recovery
    # ------------------------------------------------------------------
    def _recover_particle(self, group: _RowGroup) -> DecryptedParticle:
        epoch = self.plan.schedule.epochs[group.epoch_index]
        gain_table = self.plan.gain_table
        velocity = self._velocity_for_epoch(epoch)
        reference_velocity = self.channel.velocity_for_flow_rate(
            self.reference_flow_rate_ul_min
        )
        amplitude_estimates = []
        width_estimates = []
        for peak, electrode in group.matched:
            gain = gain_table.gain_for_level(epoch.gain_level_for(electrode))
            amplitude_estimates.append(peak.amplitudes / gain)
            width_estimates.append(peak.width_s * velocity / reference_velocity)
        # Median across dips: robust to the occasional merged (double
        # depth) peak contaminating the mean.
        amplitudes = np.median(np.vstack(amplitude_estimates), axis=0)
        clean = len(group.matched) + group.credits == group.template_size
        return DecryptedParticle(
            time_s=group.matched[0][0].time_s,
            amplitudes=amplitudes,
            width_s=float(np.median(width_estimates)),
            n_peaks_matched=len(group.matched),
            epoch_index=group.epoch_index,
            clean=clean,
        )

    # ------------------------------------------------------------------
    def _velocity_for_epoch(self, epoch: EpochKey) -> float:
        return self.channel.velocity_for_flow_rate(
            self.plan.flow_table.rate_for_level(epoch.flow_level)
        )

    def _gap_template(self, epoch: EpochKey, velocity: float) -> List[Tuple[float, int]]:
        """Time offsets (relative to the first gap) of every active gap."""
        array = self.plan.array
        entries: List[Tuple[float, int]] = []
        for electrode in sorted(epoch.active_electrodes):
            for gap_m in array.gap_positions_m(electrode):
                entries.append((gap_m / velocity, electrode))
        entries.sort(key=lambda item: item[0])
        first = entries[0][0]
        return [(offset - first, electrode) for offset, electrode in entries]
