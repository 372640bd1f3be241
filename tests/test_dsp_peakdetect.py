"""Peak detection on drifting, noisy traces."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.dsp.peakdetect import DetectedPeak, PeakDetector, PeakReport
from repro.physics.noise import BaselineDriftModel, NoiseModel
from repro.physics.peaks import PulseEvent, synthesize_pulse_train


def make_trace(centers, fs=450.0, duration=30.0, depth=0.01, width=0.02, n_channels=2,
               noise=True, seed=0):
    events = [
        PulseEvent(center_s=c, width_s=width, amplitudes=np.array([depth, depth / 2][:n_channels]))
        for c in centers
    ]
    trace = synthesize_pulse_train(events, n_channels, fs, duration)
    if noise:
        model = NoiseModel(white_sigma=1e-4)
        trace = model.apply(trace, fs, rng=seed)
    return trace


class TestDetection:
    def test_counts_isolated_peaks(self):
        centers = np.arange(1.0, 25.0, 2.0)
        trace = make_trace(centers)
        report = PeakDetector().detect(trace, 450.0)
        assert report.count == len(centers)

    def test_timestamps_accurate(self):
        centers = [5.0, 12.0, 20.0]
        trace = make_trace(centers)
        report = PeakDetector().detect(trace, 450.0)
        for expected, peak in zip(centers, report.peaks):
            assert peak.time_s == pytest.approx(expected, abs=0.01)

    def test_depths_accurate(self):
        trace = make_trace([10.0], depth=0.012)
        report = PeakDetector().detect(trace, 450.0)
        assert report.peaks[0].depth == pytest.approx(0.012, rel=0.1)

    def test_widths_measured(self):
        trace = make_trace([10.0], width=0.02)
        report = PeakDetector().detect(trace, 450.0)
        assert report.peaks[0].width_s == pytest.approx(0.02, rel=0.35)

    def test_channel_amplitudes_per_channel(self):
        trace = make_trace([10.0], depth=0.01, n_channels=2)
        report = PeakDetector().detect(trace, 450.0)
        amps = report.peaks[0].amplitudes
        assert amps[0] == pytest.approx(0.01, rel=0.15)
        assert amps[1] == pytest.approx(0.005, rel=0.2)

    def test_sub_threshold_peaks_ignored(self):
        trace = make_trace([10.0], depth=0.0004)  # below 8e-4 default
        report = PeakDetector().detect(trace, 450.0)
        assert report.count == 0

    def test_no_false_positives_on_noise(self):
        trace = make_trace([], duration=60.0)
        report = PeakDetector().detect(trace, 450.0)
        assert report.count == 0

    def test_detection_through_drift(self):
        centers = np.arange(2.0, 55.0, 5.0)
        events = [
            PulseEvent(center_s=c, width_s=0.02, amplitudes=np.array([0.01]))
            for c in centers
        ]
        trace = synthesize_pulse_train(events, 1, 450.0, 60.0)
        model = NoiseModel(
            white_sigma=1e-4,
            drift=BaselineDriftModel(
                linear_per_hour=0.2, sinusoid_amplitude=0.003, sinusoid_period_s=30.0
            ),
        )
        noisy = model.apply(trace, 450.0, rng=1)
        report = PeakDetector().detect(noisy, 450.0)
        assert report.count == len(centers)

    def test_close_peaks_resolved_at_min_separation(self):
        detector = PeakDetector()
        gap = 0.011  # one pitch of travel at nominal flow
        trace = make_trace([10.0, 10.0 + gap], width=0.01)
        assert detector.detect(trace, 450.0).count == 2


class TestReport:
    def test_peaks_between_slicing(self):
        trace = make_trace([5.0, 15.0, 25.0])
        report = PeakDetector().detect(trace, 450.0)
        assert len(report.peaks_between(0.0, 10.0)) == 1
        assert len(report.peaks_between(10.0, 30.0)) == 2

    def test_times_array(self):
        trace = make_trace([5.0, 15.0])
        report = PeakDetector().detect(trace, 450.0)
        assert report.times().shape == (2,)

    def test_empty_trace(self):
        report = PeakDetector().detect(np.ones((1, 0)), 450.0)
        assert report.count == 0
        assert report.duration_s == 0.0


class TestValidation:
    def test_one_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            PeakDetector().detect(np.ones(100), 450.0)

    def test_detection_channel_out_of_range(self):
        detector = PeakDetector(detection_channel=5)
        with pytest.raises(ValidationError):
            detector.detect(np.ones((2, 100)), 450.0)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValidationError):
            PeakDetector(depth_threshold=0.0)
        with pytest.raises(ValidationError):
            PeakDetector(min_separation_s=-1.0)
