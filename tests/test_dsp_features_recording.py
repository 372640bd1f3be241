"""Feature extraction and the CSV/zip recording model."""

import numpy as np
import pytest

from repro import MedSenSession, Sample
from repro._util.errors import ConfigurationError
from repro.dsp.features import FeatureExtractor
from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.dsp.recording import (
    CsvRecordingModel,
    compressed_size_bytes,
    compression_ratio,
)
from repro.particles import BEAD_7P8, BLOOD_CELL


def make_peak(time=1.0, amps=(0.01, 0.005, 0.003)):
    return DetectedPeak(
        time_s=time,
        depth=amps[0],
        width_s=0.02,
        amplitudes=np.array(amps),
        sample_index=int(time * 450),
    )


CARRIERS = (500e3, 2500e3, 3000e3)


class TestFeatureExtractor:
    def test_channel_resolution(self):
        extractor = FeatureExtractor(CARRIERS, feature_frequencies_hz=(500e3, 2500e3))
        assert extractor.channel_indices == (0, 1)

    def test_nearest_carrier_used(self):
        extractor = FeatureExtractor(CARRIERS, feature_frequencies_hz=(2450e3,))
        assert extractor.channel_indices == (1,)

    def test_missing_carrier_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureExtractor(CARRIERS, feature_frequencies_hz=(10e6,))

    def test_features_for_peak(self):
        extractor = FeatureExtractor(CARRIERS, feature_frequencies_hz=(500e3, 2500e3))
        features = extractor.features_for_peak(make_peak())
        assert np.allclose(features.vector, [0.01, 0.005])
        assert features.time_s == 1.0

    def test_feature_matrix(self):
        extractor = FeatureExtractor(CARRIERS, feature_frequencies_hz=(500e3, 2500e3))
        report = PeakReport((make_peak(1.0), make_peak(2.0)), 5.0, 450.0, 0)
        matrix = extractor.feature_matrix(report)
        assert matrix.shape == (2, 2)

    def test_empty_report_empty_matrix(self):
        extractor = FeatureExtractor(CARRIERS)
        report = PeakReport((), 1.0, 450.0, 0)
        assert extractor.feature_matrix(report).shape == (0, 2)

    def test_peak_with_too_few_channels_rejected(self):
        extractor = FeatureExtractor(CARRIERS, feature_frequencies_hz=(3000e3,))
        short_peak = DetectedPeak(1.0, 0.01, 0.02, np.array([0.01]), 450)
        with pytest.raises(ConfigurationError):
            extractor.features_for_peak(short_peak)


class TestCsvRecording:
    def test_encode_roundtrips_values(self):
        model = CsvRecordingModel()
        trace = np.array([[1.0, 0.998877], [0.5, 0.5]])
        payload = model.encode(trace, 450.0).decode()
        lines = payload.strip().split("\n")
        assert len(lines) == 2
        first = lines[0].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0)
        assert float(lines[1].split(",")[1]) == pytest.approx(0.998877)

    @pytest.mark.parametrize(
        "n_channels, n_samples, rate",
        [(2, 900, 450.0), (3, 9000, 450.0), (5, 50, 100.0)],
    )
    def test_decode_inverts_encode(self, n_channels, n_samples, rate):
        rng = np.random.default_rng(n_samples)
        voltages = rng.normal(0.0, 1.5, size=(n_channels, n_samples))
        model = CsvRecordingModel()
        trace, decoded_rate = model.decode(model.encode(voltages, rate))
        assert trace.shape == voltages.shape
        # Values carry %.6f, timestamps %.4f: each within half a last digit.
        assert np.abs(trace - voltages).max() <= 0.5e-6 + 1e-12
        assert abs(1.0 / decoded_rate - 1.0 / rate) <= 0.5e-4 + 1e-12

    def test_estimate_matches_actual_encoding(self):
        """Within 3% of a real 60 s five-channel session capture."""
        device = MedSenSession(rng=4).device
        sample = Sample.from_concentrations(
            {BLOOD_CELL: 600.0, BEAD_7P8: 200.0}, volume_ul=10.0
        )
        trace = device.run_capture(sample, 60.0, rng=4).trace
        assert trace.voltages.shape == (5, 27000)
        model = CsvRecordingModel()
        actual = len(model.encode(trace.voltages, trace.sampling_rate_hz))
        estimated = model.estimate_capture_bytes(60.0, trace.sampling_rate_hz, 5)
        assert actual == pytest.approx(estimated, rel=0.03)

    def test_estimate_counts_timestamp_digits(self):
        model = CsvRecordingModel()
        # 1 s of 0.000..0.998 timestamps: 7-byte timestamp, 9 B per channel.
        trace = np.full((8, 450), 0.998877)
        assert len(model.encode(trace, 450.0)) == model.estimate_capture_bytes(1.0, 450.0, 8)
        # Past 10 s the integer part gains a digit.
        assert model.bytes_per_sample(1, 100.0) == pytest.approx(7 + 9 + 0.9)

    def test_paper_scale_600mb_for_3h(self):
        # §VII-B: 3 h at 450 Hz x 8 channels -> ~600 MB of CSV.
        model = CsvRecordingModel()
        estimate = model.estimate_capture_bytes(3 * 3600.0, 450.0, 8)
        assert 3e8 < estimate < 1e9

    def test_invalid_trace_rejected(self):
        with pytest.raises(ValueError):
            CsvRecordingModel().encode(np.ones(5), 450.0)


class TestCompression:
    def test_compression_reduces_csv(self):
        model = CsvRecordingModel()
        rng = np.random.default_rng(0)
        trace = 1.0 + rng.normal(0, 1e-4, size=(4, 4500))
        payload = model.encode(trace, 450.0)
        ratio = compression_ratio(payload)
        # Paper: 600 MB -> 240 MB, ratio ~0.4.
        assert 0.15 < ratio < 0.7

    def test_compressed_size_positive(self):
        assert compressed_size_bytes(b"hello world" * 100) > 0

    def test_empty_payload_ratio_rejected(self):
        with pytest.raises(ValueError):
            compression_ratio(b"")

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            compressed_size_bytes(b"x", level=10)
