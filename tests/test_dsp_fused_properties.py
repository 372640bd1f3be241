"""Property tests: the fused pass equals the staged oracle everywhere.

Hypothesis drives the input space the seeded differential families
can't enumerate: random trace shapes (including empty traces) and
sampling rates, and random chunk splits through
``WindowedPeakDetector`` (which shares the fused kernel).  Every
property asserts *exact* report equality against
``tests/_dsp_oracle.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.rng import ensure_rng
from repro.dsp import PeakDetector, WindowedPeakDetector

from tests._dsp_oracle import assert_reports_identical, staged_detect


def random_trace(rng, n_channels, n_samples):
    """Baseline-one trace with random dips; dip-free when very short."""
    trace = 1.0 + 0.002 * rng.standard_normal((n_channels, n_samples))
    n_dips = int(rng.integers(0, 6)) if n_samples >= 32 else 0
    for _ in range(n_dips):
        center = int(rng.integers(0, n_samples))
        width = int(rng.integers(2, max(n_samples // 16, 3)))
        lo, hi = max(center - width, 0), min(center + width, n_samples)
        depth = rng.uniform(2e-4, 2e-2)  # straddles the 8e-4 threshold
        rolloff = 1.0 - 0.3 * np.arange(n_channels) / max(n_channels - 1, 1)
        trace[:, lo:hi] -= depth * rolloff[:, np.newaxis]
    return trace


class TestFusedEqualsOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_channels=st.integers(min_value=1, max_value=5),
        n_samples=st.integers(min_value=0, max_value=4000),
        fs=st.sampled_from([120.0, 450.0, 1000.0, 7919.0]),
    )
    def test_random_shapes_and_rates(self, seed, n_channels, n_samples, fs):
        rng = ensure_rng(seed)
        trace = random_trace(rng, n_channels, n_samples)
        detector = PeakDetector()
        assert_reports_identical(
            detector.detect(trace, fs),
            staged_detect(detector, trace, fs),
            context=f"shape ({n_channels}, {n_samples}) @ {fs} Hz",
        )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        detection_channel=st.integers(min_value=0, max_value=2),
    )
    def test_detection_channel_property(self, seed, detection_channel):
        rng = ensure_rng(seed)
        trace = random_trace(rng, 3, 2000)
        detector = PeakDetector(detection_channel=detection_channel)
        assert_reports_identical(
            detector.detect(trace, 450.0),
            staged_detect(detector, trace, 450.0),
            context=f"detection_channel {detection_channel}",
        )


class TestWindowedSharesTheKernel:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        sizes=st.lists(
            st.integers(min_value=1, max_value=600), min_size=1, max_size=6
        ),
    )
    def test_chunked_equals_oracle(self, seed, sizes):
        """Any chunk split → windowed result == one-shot == oracle."""
        rng = ensure_rng(seed)
        trace = random_trace(rng, 2, 1500)
        fs = 450.0
        windowed = WindowedPeakDetector(2, fs)
        pos, i = 0, 0
        while pos < trace.shape[1]:
            k = sizes[i % len(sizes)]
            windowed.feed(trace[:, pos : pos + k])
            pos += min(k, trace.shape[1] - pos)
            i += 1
        streamed = windowed.finish()
        detector = PeakDetector()
        oracle = staged_detect(detector, trace, fs)
        assert_reports_identical(streamed, oracle, context=f"chunks {sizes}")
        assert_reports_identical(
            detector.detect(trace, fs), oracle, context="one-shot"
        )
