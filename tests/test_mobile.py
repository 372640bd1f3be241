"""Smartphone side: perf models and relay app."""

import pytest

from repro.cloud.server import AnalysisServer
from repro.hardware.acquisition import AcquiredTrace
from repro.mobile.perf import (
    COMPUTER_I7,
    FIG14_COMPUTER_TIMES_S,
    FIG14_PHONE_TIMES_S,
    FIG14_SAMPLE_SIZES,
    NEXUS5,
    DevicePerfModel,
)
from repro.mobile.phone import Smartphone
from repro.physics.peaks import PulseTrain, synthesize_pulse_train


class TestPerfModels:
    def test_fits_reproduce_paper_points(self):
        # The affine fit should pass within 15% of every Figure 14 bar.
        for size, computer_time, phone_time in zip(
            FIG14_SAMPLE_SIZES, FIG14_COMPUTER_TIMES_S, FIG14_PHONE_TIMES_S
        ):
            assert COMPUTER_I7.processing_time_s(size) == pytest.approx(
                computer_time, rel=0.15
            )
            assert NEXUS5.processing_time_s(size) == pytest.approx(phone_time, rel=0.15)

    def test_phone_slower_than_computer(self):
        # Figure 14's motivation for cloud offload.
        for size in FIG14_SAMPLE_SIZES:
            speedup = COMPUTER_I7.speedup_over(NEXUS5, size)
            assert 3.0 < speedup < 6.0

    def test_gap_grows_with_sample_size(self):
        small_gap = NEXUS5.processing_time_s(FIG14_SAMPLE_SIZES[0]) - COMPUTER_I7.processing_time_s(FIG14_SAMPLE_SIZES[0])
        large_gap = NEXUS5.processing_time_s(FIG14_SAMPLE_SIZES[2]) - COMPUTER_I7.processing_time_s(FIG14_SAMPLE_SIZES[2])
        assert large_gap > 2 * small_gap

    def test_fit_from_points(self):
        model = DevicePerfModel.fit("test", [100, 200, 300], [1.0, 2.0, 3.0])
        assert model.processing_time_s(400) == pytest.approx(4.0, rel=0.01)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            DevicePerfModel.fit("test", [100], [1.0])

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            COMPUTER_I7.processing_time_s(-1)


def make_trace(duration=10.0, n_peaks=3):
    events = PulseTrain(
        center_s=[1.0 + i * 2.0 for i in range(n_peaks)], width_s=0.02, amplitudes=[0.01]
    )
    voltages = synthesize_pulse_train(events, 1, 450.0, duration)
    return AcquiredTrace(voltages, 450.0, (500e3,))


class TestSmartphoneRelay:
    def test_cloud_relay_path(self):
        phone = Smartphone()
        server = AnalysisServer()
        outcome = phone.relay(make_trace(), server)
        assert not outcome.analyzed_locally
        assert outcome.report.count == 3
        assert outcome.uploaded_bytes > 0
        assert outcome.uploaded_bytes < outcome.raw_bytes  # compression helps
        assert outcome.total_time_s > 0

    def test_local_path_for_small_captures(self):
        phone = Smartphone(local_analysis_threshold_samples=10**6)
        server = AnalysisServer()
        outcome = phone.relay(make_trace(), server)
        assert outcome.analyzed_locally
        assert outcome.uploaded_bytes == 0
        assert server.jobs_processed == 0
        assert outcome.report.count == 3

    def test_local_analysis_slower_per_sample(self):
        # The Nexus 5 model should predict more time than the measured
        # cloud analysis for the same capture.
        phone_local = Smartphone(local_analysis_threshold_samples=10**9)
        phone_cloud = Smartphone()
        local = phone_local.relay(make_trace(duration=30.0), AnalysisServer())
        cloud = phone_cloud.relay(make_trace(duration=30.0), AnalysisServer())
        assert local.analysis_time_s > cloud.analysis_time_s

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            Smartphone(local_analysis_threshold_samples=-1)
