"""Column decryptor vs the frozen row-walking decryptor, bit for bit.

``tests/_decrypt_oracle.py`` keeps ``SignalDecryptor`` as it stood
before decryption read report columns.  On every report, row-built or
column-backed, the shipped decryptor must return the same
``DecryptionResult``: counts, merge credits, anomalies and every
particle's time, width and amplitude bytes.  The reports cover equal
and tied times, merged and dropped dips, spurious peaks, empty reports,
even and odd matched-slot counts, anchors on and one ulp before an
epoch boundary, and one to five channels.  A report whose amplitude
rows differ in length gets a typed refusal.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CytoIdentifier, MedSenSession, Sample
from repro._util.errors import DecryptionError
from repro.crypto.decryptor import DecryptionResult, SignalDecryptor
from repro.crypto.encryptor import EncryptionPlan
from repro.crypto.gains import GainTable
from repro.crypto.key import EpochKey, KeySchedule
from repro.dsp.peakdetect import DetectedPeak, PeakColumns, PeakReport
from repro.hardware.electrodes import standard_array
from repro.microfluidics.flow import FlowSpeedTable
from repro.particles import BLOOD_CELL

from tests._decrypt_oracle import oracle_for

PROPERTY = settings(max_examples=max(200, settings().max_examples), deadline=None)


def fbits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_same_result(actual: DecryptionResult, expected: DecryptionResult) -> None:
    assert actual.epoch_counts == expected.epoch_counts
    assert actual.observed_peak_count == expected.observed_peak_count
    assert actual.merge_credits == expected.merge_credits
    assert actual.anomalous_groups == expected.anomalous_groups
    assert len(actual.particles) == len(expected.particles)
    for got, want in zip(actual.particles, expected.particles):
        assert (got.n_peaks_matched, got.epoch_index, got.clean) == (
            want.n_peaks_matched,
            want.epoch_index,
            want.clean,
        )
        assert fbits(got.time_s) == fbits(want.time_s)
        assert fbits(got.width_s) == fbits(want.width_s)
        assert got.amplitudes.dtype == want.amplitudes.dtype == np.float64
        assert got.amplitudes.shape == want.amplitudes.shape
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def both_forms(peaks, duration_s):
    """The same peaks as a row-built and as a column-backed report."""
    rows = PeakReport(tuple(peaks), duration_s, 450.0, 0)
    return rows, PeakReport.from_columns(rows.as_columns(), duration_s, 450.0, 0)


def assert_matches_oracle(decryptor: SignalDecryptor, peaks, duration_s) -> None:
    rows, columns = both_forms(peaks, duration_s)
    expected = oracle_for(decryptor).decrypt(rows)
    assert_same_result(decryptor.decrypt(rows), expected)
    assert_same_result(decryptor.decrypt(columns), expected)
    assert columns._peaks is None  # decryption read the columns only


def make_peak(time_s, amplitudes, width_s=0.01):
    return DetectedPeak(
        time_s=time_s,
        depth=float(amplitudes[0]),
        width_s=width_s,
        amplitudes=np.asarray(amplitudes, dtype=float),
        sample_index=int(time_s * 450),
    )


@st.composite
def decrypt_cases(draw):
    """A random plan plus peaks placed on its templates.

    Each slot is placed exactly, jittered, dropped, merged into the
    previous slot's peak (amplitudes add), duplicated (equal times),
    split into an equal-error pair, or set at the tolerance edge.
    Anchors may sit on or one ulp before an epoch boundary; spurious
    peaks are sprinkled on top; every peak has 1-5 channels whose
    non-detection amplitudes are random multiples of its depth.
    """
    n_outputs = draw(st.sampled_from((2, 3, 5, 9)))
    array = standard_array(n_outputs)
    epoch_s = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))
    n_epochs = draw(st.integers(1, 4))
    electrodes = st.integers(1, n_outputs)
    epochs = tuple(
        EpochKey(
            frozenset(draw(st.sets(electrodes, min_size=1))),
            tuple(draw(st.lists(st.integers(0, 15), min_size=n_outputs, max_size=n_outputs))),
            draw(st.integers(0, 15)),
        )
        for _ in range(n_epochs)
    )
    plan = EncryptionPlan(KeySchedule(epoch_s, epochs), array, GainTable(), FlowSpeedTable())
    decryptor = SignalDecryptor(plan=plan)
    schedule = plan.schedule
    duration_s = schedule.duration_s
    n_channels = draw(st.integers(1, 5))
    ratios = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=4, max_size=4)))

    def amplitudes(depth):
        return np.concatenate(([depth], depth * ratios[: n_channels - 1]))

    boundaries = [k * epoch_s for k in range(1, n_epochs)]
    anchor_times = st.floats(0.0, duration_s, exclude_max=True)
    if boundaries:
        boundary = st.sampled_from(boundaries)
        anchor_times = st.one_of(
            anchor_times, boundary, boundary.map(lambda t: float(np.nextafter(t, 0.0)))
        )

    peaks = []
    for _ in range(draw(st.integers(0, 8))):
        t0 = draw(anchor_times)
        epoch = schedule.epochs[schedule.epoch_index_at(min(t0, duration_s * (1 - 1e-12)))]
        velocity = decryptor._velocity_for_epoch(epoch)
        tolerance_s = decryptor.tolerance_fraction * array.transit_time_s(velocity)
        base = draw(st.floats(1e-3, 2e-2))
        previous = None
        for offset_s, electrode in decryptor._gap_template(epoch, velocity):
            gain = plan.gain_table.gain_for_level(epoch.gain_level_for(electrode))
            expected = t0 + offset_s
            mode = draw(
                st.sampled_from(
                    ("exact", "jitter", "drop", "merge", "duplicate", "tie", "edge")
                )
            )
            width_s = draw(st.floats(1e-3, 3e-2))
            if mode == "drop":
                continue
            if mode == "merge" and previous is not None:
                merged = peaks[previous]
                peaks[previous] = make_peak(
                    merged.time_s, amplitudes(merged.depth + gain * base), merged.width_s
                )
                continue
            if mode == "jitter":
                times = [expected + draw(st.floats(-1.5, 1.5)) * tolerance_s]
            elif mode == "duplicate":
                times = [expected, expected]
            elif mode == "tie":
                step = 2.0 ** np.floor(np.log2(0.5 * tolerance_s))
                times = [expected - step, expected + step]
            elif mode == "edge":
                edge = expected + draw(st.sampled_from((-1.0, 1.0))) * tolerance_s
                times = [float(np.nextafter(edge, draw(st.sampled_from((-np.inf, np.inf)))))]
            else:
                times = [expected]
            for time_s in times:
                if time_s >= 0.0:
                    peaks.append(make_peak(time_s, amplitudes(gain * base), width_s))
                    previous = len(peaks) - 1
    for _ in range(draw(st.integers(0, 6))):
        depth = draw(st.floats(1e-3, 3e-2))
        peaks.append(make_peak(draw(st.floats(0.0, duration_s)), amplitudes(depth)))
    order = draw(st.permutations(range(len(peaks))))
    return decryptor, [peaks[i] for i in order], duration_s


def one_slot_plan():
    array = standard_array(9)
    key = EpochKey(frozenset({array.lead_electrode}), tuple([8] * 9), 8)
    return SignalDecryptor(
        plan=EncryptionPlan(KeySchedule(2.0, (key,)), array, GainTable(), FlowSpeedTable())
    )


class TestColumnDecryptorMatchesOracle:
    @PROPERTY
    @given(case=decrypt_cases())
    def test_random_reports(self, case):
        decryptor, peaks, duration_s = case
        assert_matches_oracle(decryptor, peaks, duration_s)

    def test_empty_report(self):
        assert_matches_oracle(one_slot_plan(), [], 2.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_even_and_odd_matched_sizes(self, k):
        # A 9-output plan with every electrode on: each particle's
        # first ``k`` slots are present, so its median runs over ``k``.
        array = standard_array(9)
        key = EpochKey(frozenset(range(1, 10)), tuple(range(9)), 8)
        plan = EncryptionPlan(KeySchedule(2.0, (key,)), array, GainTable(), FlowSpeedTable())
        decryptor = SignalDecryptor(plan=plan)
        velocity = decryptor._velocity_for_epoch(key)
        template = decryptor._gap_template(key, velocity)
        peaks = []
        for start, scale in ((0.1, 1.0), (0.9, 1.7)):
            for slot, (offset_s, _) in enumerate(template[:k]):
                depth = 0.01 * scale * (1 + 0.1 * slot)
                peaks.append(make_peak(start + offset_s, [depth, 2 * depth, 0.5 * depth]))
        assert_matches_oracle(decryptor, peaks, 2.0)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_real_session_report(self, seed):
        session = MedSenSession(rng=seed)
        identifier = CytoIdentifier(session.config.alphabet, levels=(2, 3))
        session.authenticator.register("patient", identifier)
        blood = Sample.from_concentrations({BLOOD_CELL: 600.0}, volume_ul=10.0, rng=seed)
        result = session.run_diagnostic(blood, identifier, duration_s=30.0, rng=seed)
        report = result.relay.report
        assert report.columns is not None and report.count > 50
        controller = session.device.controller
        decryptor = SignalDecryptor(plan=controller._plan, channel=controller.channel)
        expected = oracle_for(decryptor).decrypt(report)
        assert_same_result(result.decryption, expected)
        assert_same_result(decryptor.decrypt(report), expected)


class TestReportsColumnsCannotHold:
    def test_ragged_rows_get_a_typed_refusal(self):
        peaks = (make_peak(1.0, [0.01, 0.02]), make_peak(1.5, [0.01]))
        with pytest.raises(DecryptionError, match="ragged"):
            one_slot_plan().decrypt(PeakReport(peaks, 2.0, 450.0, 0))

    def test_channelless_peaks_get_a_typed_refusal(self):
        columns = PeakColumns(
            np.array([1.0]), np.array([0.01]), np.array([0.01]), np.empty((1, 0)),
            np.array([450]),
        )
        with pytest.raises(DecryptionError, match="no amplitude channels"):
            one_slot_plan().decrypt(PeakReport.from_columns(columns, 2.0, 450.0, 0))
