"""Streaming peak detection with ``WindowedPeakDetector``: equivalence
with batch processing on long captures, and the detector's lifecycle.

``tests/test_stream_exact.py`` drives adversarial chunk splits; this
file covers the §VII-B long-capture shape and the typed refusals.
"""

import numpy as np
import pytest

from repro._util.errors import ConfigurationError, ValidationError
from repro.dsp.peakdetect import PeakDetector
from repro.dsp.windowed import WindowedPeakDetector
from repro.physics.noise import NoiseModel
from repro.physics.peaks import PulseTrain, synthesize_pulse_train
from repro.stream import report_digest

FS = 450.0


def make_trace(duration_s=120.0, spacing_s=2.0, seed=0):
    centers = np.arange(1.0, duration_s - 1.0, spacing_s)
    events = PulseTrain(center_s=centers, width_s=0.02, amplitudes=[0.01])
    trace = synthesize_pulse_train(events, 1, FS, duration_s)
    return NoiseModel(white_sigma=1e-4).apply(trace, FS, rng=seed), len(centers)


def stream(trace, chunk):
    """Feed ``trace`` in ``chunk``-sample pieces; return the report."""
    windowed = WindowedPeakDetector(trace.shape[0], FS)
    for start in range(0, trace.shape[1], chunk):
        windowed.feed(trace[:, start : start + chunk])
    return windowed.finish()


class TestEquivalence:
    def test_matches_batch_detection(self):
        trace, n_true = make_trace()
        batch = PeakDetector().detect(trace, FS)
        report = stream(trace, int(7.3 * FS))  # awkward chunk size on purpose
        assert report.count == batch.count == n_true
        assert report_digest(report) == report_digest(batch)

    def test_chunk_size_invariance(self):
        trace, n_true = make_trace(duration_s=90.0)
        reports = [stream(trace, int(chunk_s * FS)) for chunk_s in (1.0, 5.0, 33.0, 90.0)]
        assert len({report_digest(report) for report in reports}) == 1
        assert reports[0].count == n_true

    def test_peaks_emitted_incrementally(self):
        trace, _ = make_trace(duration_s=120.0)
        windowed = WindowedPeakDetector(1, FS)
        half = trace.shape[1] // 2
        early = windowed.feed(trace[:, :half])
        assert early > 0  # peaks surface before the stream ends
        windowed.feed(trace[:, half:])
        assert windowed.finish().count >= early

    def test_duration_accounted(self):
        trace, _ = make_trace(duration_s=61.5)
        windowed = WindowedPeakDetector(1, FS)
        windowed.feed(trace)
        assert windowed.finish().duration_s == pytest.approx(61.5, abs=0.01)


class TestLifecycle:
    def test_feed_after_finish_rejected(self):
        windowed = WindowedPeakDetector(1, FS)
        windowed.feed(np.ones((1, 100)))
        windowed.finish()
        with pytest.raises(ConfigurationError):
            windowed.feed(np.ones((1, 100)))
        with pytest.raises(ConfigurationError):
            windowed.finish()

    def test_channel_change_rejected(self):
        windowed = WindowedPeakDetector(2, FS)
        windowed.feed(np.ones((2, 100)))
        with pytest.raises(ValidationError):
            windowed.feed(np.ones((3, 100)))

    def test_one_dimensional_chunk_rejected(self):
        windowed = WindowedPeakDetector(1, FS)
        with pytest.raises(ValidationError):
            windowed.feed(np.ones(100))

    def test_empty_stream(self):
        report = WindowedPeakDetector(1, FS).finish()
        assert report.count == 0
        assert report.duration_s == 0.0

    def test_invalid_configuration(self):
        # The detection channel must exist in the stream.
        with pytest.raises(ConfigurationError):
            WindowedPeakDetector(1, FS, detector=PeakDetector(detection_channel=1))
