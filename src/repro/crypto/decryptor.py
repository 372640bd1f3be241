"""Controller-side decryption of cloud peak reports (paper §IV).

"Only the controller, which knows the input values applied to each
control parameter, is able to recover the real signal amplitude and
cell count associated to the ciphertext signal peaks."  Decryption is
"light computation (multiplications and divisions)".

Algorithm
---------
1. **Template matching.**  Within an epoch the active electrodes'
   sensing gaps form a known time template (gap positions divided by
   the keyed velocity).  Walking peaks in time order, each unassigned
   peak anchors a particle; the template slots then greedily claim the
   nearest unassigned peaks.  The anchor's timestamp selects the epoch
   key, so particles whose dip train straddles an epoch boundary are
   still decoded with the key that actually encrypted them.
2. **Merge recovery.**  Two dips closer than the sampling/separation
   limit merge into one detected peak.  The controller knows each
   slot's gain, so it can test whether a neighbouring matched peak's
   depth is better explained by the *sum* of the two slots' gains than
   by its own slot alone; if so, the missing slot is credited to that
   peak instead of being counted as lost.
3. **Count recovery.**  Per epoch, the claimed-peak total (including
   merge credits) is divided by the epoch's multiplication factor
   ``m(E)``.
4. **Amplitude/width recovery.**  Each cleanly attributed peak's
   amplitudes are divided by its electrode's keyed gain, and widths are
   rescaled by the keyed/reference velocity ratio, undoing ``G`` and
   ``S``.
"""

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro._util.errors import DecryptionError, ValidationError
from repro.crypto.encryptor import EncryptionPlan
from repro.crypto.key import EpochKey
from repro.dsp.peakdetect import PeakColumns, PeakReport
from repro.microfluidics.channel import MicrofluidicChannel
from repro.microfluidics.flow import NOMINAL_FLOW_RATE_UL_MIN
from repro.obs import DECRYPTION_COMPLETED, NULL_OBSERVER


@dataclass(frozen=True)
class DecryptedParticle:
    """One particle reconstructed from ciphertext peaks.

    ``amplitudes`` are gain-corrected per-channel dip depths;
    ``width_s`` is velocity-normalised to the reference flow, so both
    are directly comparable across epochs with different keys.
    """

    time_s: float
    amplitudes: np.ndarray
    width_s: float
    n_peaks_matched: int
    epoch_index: int
    clean: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=float))


@dataclass(frozen=True)
class DecryptionResult:
    """Everything decryption recovers from one peak report."""

    particles: Tuple[DecryptedParticle, ...]
    epoch_counts: Tuple[int, ...]
    observed_peak_count: int
    merge_credits: int
    anomalous_groups: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "particles", tuple(self.particles))
        object.__setattr__(self, "epoch_counts", tuple(self.epoch_counts))

    @property
    def total_count(self) -> int:
        """Recovered true particle count (the diagnostic quantity)."""
        return int(sum(self.epoch_counts))

    @property
    def clean_particles(self) -> Tuple[DecryptedParticle, ...]:
        """Particles whose full template matched (trustworthy
        amplitude/width recovery)."""
        return tuple(p for p in self.particles if p.clean)


@dataclass(frozen=True)
class _Group:
    """Internal: one template match."""

    epoch_index: int
    #: ``(peak index in the report, electrode)`` per matched slot.
    matched: Tuple[Tuple[int, int], ...]
    credits: int
    template_size: int


class _EpochKeying(NamedTuple):
    """Internal: one epoch's keyed velocity, gap template, slot
    tolerance and per-electrode gains, derived once per decryption."""

    velocity: float
    template: List[Tuple[float, int]]
    tolerance_s: float
    gain_of: Dict[int, float]


@dataclass(frozen=True)
class SignalDecryptor:
    """Inverts an :class:`EncryptionPlan` on a cloud peak report."""

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
        try:
            columns = report.as_columns()
        except ValidationError as error:
            raise DecryptionError(f"peak report cannot be decrypted: {error}") from None
        if columns.amplitudes.shape[1] == 0 and report.count:
            raise DecryptionError("peak report has no amplitude channels")
        with observer.span("signal_decrypt", peaks=report.count) as span:
            with observer.span("template_match"):
                groups, anomalies = self._match_groups(columns)
            epoch_counts = self._counts_from_groups(groups)
            with observer.span("recover_particles", groups=len(groups)):
                particles = self._recover_particles(columns, groups)
            result = DecryptionResult(
                particles=particles,
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
    def _match_groups(self, columns: PeakColumns) -> Tuple[List[_Group], int]:
        schedule = self.plan.schedule
        all_times = columns.time_s.tolist()
        # A stable sort of the peak indices by time: equal times keep
        # report order.
        order = sorted(range(len(all_times)), key=all_times.__getitem__)
        times = [all_times[i] for i in order]
        # The detection channel's amplitudes, in time order.
        detection = columns.amplitudes[order, 0].tolist() if order else []
        assigned = bytearray(len(order))
        groups: List[_Group] = []
        anomalies = 0
        keyed: Dict[int, _EpochKeying] = {}

        # The anchor is the lowest unassigned position: the earliest
        # peak, and the lowest report index among equal times.
        anchor_index = 0
        while anchor_index < len(order):
            if assigned[anchor_index]:
                anchor_index += 1
                continue
            anchor_time = times[anchor_index]
            epoch_time = min(anchor_time, schedule.duration_s * (1 - 1e-12))
            epoch_index = schedule.epoch_index_at(epoch_time)
            keying = keyed.get(epoch_index)
            if keying is None:
                keying = keyed[epoch_index] = self._epoch_keying(epoch_index)
            template, tolerance_s = keying.template, keying.tolerance_s
            # Padding the window to twice the tolerance covers the
            # rounding of ``expected -/+ window`` and of the error test,
            # so the window holds every peak that can pass that test.
            window_s = 2.0 * tolerance_s

            matched: List[Tuple[int, int]] = []
            slot_of_peak: Dict[int, int] = {}
            unmatched_slots: List[int] = []
            for slot, (offset_s, electrode) in enumerate(template):
                expected = anchor_time + offset_s
                best, best_error = None, tolerance_s
                # Every peak before the anchor is assigned already.
                lo = bisect.bisect_left(times, expected - window_s, anchor_index)
                hi = bisect.bisect_right(times, expected + window_s, lo)
                # Ascending order with ``<=``: the highest position wins ties.
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
                    matched.append((order[best], electrode))
            if not matched:
                assigned[anchor_index] = 1
                anomalies += 1
                continue
            for i in slot_of_peak:
                assigned[i] = 1
            credits = self._credit_merges(
                times, detection, anchor_time, keying, slot_of_peak, unmatched_slots
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

    def _credit_merges(
        self,
        times: Sequence[float],
        detection: Sequence[float],
        anchor_time: float,
        keying: _EpochKeying,
        slot_of_peak: Dict[int, int],
        unmatched_slots: List[int],
    ) -> int:
        """Amplitude-accounting merge recovery.

        For every unmatched template slot, look at the nearest *matched*
        peak of this group within one transit time.  The controller
        knows both slots' gains; if the candidate's observed depth is
        closer to ``(g_missing + g_candidate) * A`` than to
        ``g_candidate * A`` (with ``A`` the particle's base amplitude
        estimated from the other matched slots), the missing dip merged
        into that peak and is credited rather than lost.

        ``times`` and ``detection`` are the peaks' times and
        detection-channel amplitudes in time order, indexed like
        ``slot_of_peak``.
        """
        if not unmatched_slots or not slot_of_peak:
            return 0
        template, gain_of = keying.template, keying.gain_of
        tolerance_s = keying.tolerance_s

        # Base amplitude estimate from matched slots (depth / gain).
        # The minimum is robust here: merged peaks can only be *deeper*
        # than a solo dip, so the smallest ratio is the least
        # merge-contaminated estimate of the particle's base amplitude.
        ratios = []
        for peak_index, slot in slot_of_peak.items():
            ratios.append(detection[peak_index] / gain_of[template[slot][1]])
        base_amplitude = float(np.min(ratios))
        if base_amplitude <= 0:
            return 0

        credits = 0
        absorbed: Dict[int, int] = {}
        for slot in unmatched_slots:
            offset_s, electrode = template[slot]
            expected = anchor_time + offset_s
            candidates = [
                (abs(times[i] - expected), i)
                for i in slot_of_peak
                if abs(times[i] - expected) <= 2.0 * tolerance_s
            ]
            if not candidates:
                continue
            _, candidate = min(candidates)
            if absorbed.get(candidate, 0) >= self.max_credits_per_peak:
                continue
            candidate_gain = gain_of[template[slot_of_peak[candidate]][1]]
            missing_gain = gain_of[electrode]
            observed = detection[candidate]
            solo = candidate_gain * base_amplitude
            merged = (candidate_gain + missing_gain) * base_amplitude
            if abs(observed - merged) < abs(observed - solo):
                credits += 1
                absorbed[candidate] = absorbed.get(candidate, 0) + 1
        return credits

    # ------------------------------------------------------------------
    # Stage 3: counts
    # ------------------------------------------------------------------
    def _counts_from_groups(self, groups: Sequence[_Group]) -> List[int]:
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
    def _recover_particles(
        self, columns: PeakColumns, groups: Sequence[_Group]
    ) -> Tuple[DecryptedParticle, ...]:
        """Every group's particle, batched by matched-slot count ``k``.

        For each ``k`` the groups' amplitude rows are gathered into one
        ``(groups, k, channels)`` array, divided by the slots' keyed
        gains, and reduced by one median over the ``k`` axis: the
        median across dips is robust to the occasional merged (double
        depth) peak contaminating the mean.  Widths go the same way,
        rescaled by the keyed/reference velocity ratio.  Each group's
        slice is the per-group arithmetic, so the bits do not depend on
        the batching.
        """
        reference_velocity = self.channel.velocity_for_flow_rate(
            self.reference_flow_rate_ul_min
        )
        all_times = columns.time_s.tolist()
        keyed: Dict[int, _EpochKeying] = {}
        by_size: Dict[int, List[int]] = {}
        for position, group in enumerate(groups):
            by_size.setdefault(len(group.matched), []).append(position)
            if group.epoch_index not in keyed:
                keyed[group.epoch_index] = self._epoch_keying(group.epoch_index)
        particles: List[Optional[DecryptedParticle]] = [None] * len(groups)
        for size, positions in by_size.items():
            indices = np.empty((len(positions), size), dtype=np.intp)
            gains = np.empty((len(positions), size))
            velocity = np.empty((len(positions), 1))
            for row, position in enumerate(positions):
                group = groups[position]
                keying = keyed[group.epoch_index]
                indices[row] = [peak_index for peak_index, _ in group.matched]
                gains[row] = [keying.gain_of[electrode] for _, electrode in group.matched]
                velocity[row] = keying.velocity
            amplitudes = np.median(
                columns.amplitudes[indices] / gains[:, :, np.newaxis], axis=1
            )
            widths = np.median(
                columns.width_s[indices] * velocity / reference_velocity, axis=1
            ).tolist()
            for row, position in enumerate(positions):
                group = groups[position]
                particles[position] = DecryptedParticle(
                    time_s=all_times[group.matched[0][0]],
                    amplitudes=amplitudes[row],
                    width_s=widths[row],
                    n_peaks_matched=size,
                    epoch_index=group.epoch_index,
                    clean=size + group.credits == group.template_size,
                )
        return tuple(particles)

    # ------------------------------------------------------------------
    def _epoch_keying(self, epoch_index: int) -> _EpochKeying:
        """What matching and recovery need from one epoch's key."""
        epoch = self.plan.schedule.epochs[epoch_index]
        gain_table = self.plan.gain_table
        velocity = self._velocity_for_epoch(epoch)
        return _EpochKeying(
            velocity=velocity,
            template=self._gap_template(epoch, velocity),
            tolerance_s=self.tolerance_fraction * self.plan.array.transit_time_s(velocity),
            gain_of={
                electrode: gain_table.gain_for_level(epoch.gain_level_for(electrode))
                for electrode in epoch.active_electrodes
            },
        )

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
