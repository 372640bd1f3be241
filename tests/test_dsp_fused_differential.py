"""Differential harness: fused pass vs the staged oracle.

Every test runs the shipped hot path (``PeakDetector.detect``, which
delegates to :mod:`repro.dsp.fused`) and the retained stage-at-a-time
pipeline (``tests/_dsp_oracle.py``) over the same seeded traces and
asserts *exact* ``PeakReport`` equality — peak counts, sample indices,
and bit-identical floats.  The trace families mirror the workloads the
system actually sees: paper-figure bead mixes through the full
encrypt-acquire chain, cipher gain sweeps, electrode/carrier subsets,
degenerate flats, and peaks engineered to straddle the depth
threshold.
"""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.dsp import PeakDetector, fused_detect
from repro.experiments import acquire_particle_events, single_key_plan
from repro.particles import BEAD_3P58, BEAD_7P8, BLOOD_CELL
from repro.physics.noise import BaselineDriftModel, NoiseModel
from repro.physics.peaks import PulseTrain, synthesize_pulse_train

from tests._dsp_oracle import assert_reports_identical, staged_detect


def synthetic_trace(
    centers,
    depths,
    fs=450.0,
    duration=20.0,
    width=0.02,
    n_channels=3,
    noise_sigma=1e-4,
    drift=None,
    seed=0,
):
    events = PulseTrain(
        center_s=centers,
        width_s=width,
        amplitudes=[
            [depth * (1.0 - 0.3 * c / max(n_channels - 1, 1)) for c in range(n_channels)]
            for depth in depths
        ],
    )
    trace = synthesize_pulse_train(events, n_channels, fs, duration)
    if noise_sigma:
        kwargs = {"drift": drift} if drift is not None else {}
        model = NoiseModel(white_sigma=noise_sigma, **kwargs)
        trace = model.apply(trace, fs, rng=seed)
    return trace


class TestPaperFigureFamilies:
    """Traces from the full encrypt-acquire chain (Fig 7/12/13-style)."""

    @pytest.mark.parametrize(
        "particle,arrivals,seed",
        [
            (BLOOD_CELL, [1.0], 7),
            (BEAD_3P58, [0.8, 2.1, 3.4], 11),
            (BEAD_7P8, [1.0, 2.5], 3),
        ],
        ids=["fig7-cell", "fig12-small-beads", "fig13-large-beads"],
    )
    def test_acquired_traces(self, particle, arrivals, seed):
        plan = single_key_plan({9, 2})
        _, trace, _ = acquire_particle_events(
            plan, particle, arrivals, 4.0, rng=seed
        )
        detector = PeakDetector()
        fused = detector.detect(trace.voltages, trace.sampling_rate_hz)
        oracle = staged_detect(detector, trace.voltages, trace.sampling_rate_hz)
        assert_reports_identical(fused, oracle, context=particle.name)
        assert fused.count > 0  # the family must actually exercise peaks

    @pytest.mark.parametrize("gain_level", [2, 8, 14], ids=lambda g: f"gain{g}")
    def test_cipher_gain_sweep(self, gain_level):
        plan = single_key_plan({5, 7}, gain_level=gain_level)
        _, trace, _ = acquire_particle_events(
            plan, BEAD_7P8, [0.9, 2.2], 4.0, rng=gain_level
        )
        detector = PeakDetector()
        fused = detector.detect(trace.voltages, trace.sampling_rate_hz)
        oracle = staged_detect(detector, trace.voltages, trace.sampling_rate_hz)
        assert_reports_identical(fused, oracle, context=f"gain {gain_level}")

    @pytest.mark.parametrize(
        "active", [{1}, {3, 6}, {1, 5, 9}], ids=["one", "two", "three"]
    )
    def test_electrode_subsets(self, active):
        plan = single_key_plan(active)
        _, trace, _ = acquire_particle_events(
            plan, BEAD_3P58, [1.1, 2.6], 4.0, rng=len(active)
        )
        detector = PeakDetector()
        fused = detector.detect(trace.voltages, trace.sampling_rate_hz)
        oracle = staged_detect(detector, trace.voltages, trace.sampling_rate_hz)
        assert_reports_identical(fused, oracle, context=f"electrodes {sorted(active)}")


class TestSyntheticFamilies:
    def test_bead_mix_with_drift(self):
        drift = BaselineDriftModel(
            linear_per_hour=0.3, sinusoid_amplitude=0.004, sinusoid_period_s=25.0
        )
        rng = np.random.default_rng(42)
        centers = np.sort(rng.uniform(0.5, 19.5, size=30))
        depths = rng.uniform(0.001, 0.02, size=30)
        trace = synthetic_trace(centers, depths, drift=drift, seed=5)
        detector = PeakDetector()
        fused = detector.detect(trace, 450.0)
        oracle = staged_detect(detector, trace, 450.0)
        assert fused.count > 0
        assert_reports_identical(fused, oracle, context="bead mix with drift")

    def test_threshold_straddling_peaks(self):
        # Depths bracketing the 8e-4 default threshold: some peaks land
        # just below, some just above — find_peaks' height filter sits
        # right on the boundary, where the two paths could most easily
        # diverge if the dips differed by one ulp.
        depths = np.linspace(5e-4, 1.1e-3, 13)
        centers = 1.0 + 1.4 * np.arange(13)
        trace = synthetic_trace(centers, depths, noise_sigma=2e-5, seed=9)
        detector = PeakDetector()
        fused = detector.detect(trace, 450.0)
        oracle = staged_detect(detector, trace, 450.0)
        assert 0 < fused.count < 13  # the family must actually straddle
        assert_reports_identical(fused, oracle, context="threshold straddle")

    @pytest.mark.parametrize("detection_channel", [0, 1, 2])
    def test_detection_channel_variants(self, detection_channel):
        rng = np.random.default_rng(detection_channel)
        centers = np.sort(rng.uniform(0.5, 19.5, size=12))
        depths = rng.uniform(0.002, 0.015, size=12)
        trace = synthetic_trace(centers, depths, seed=detection_channel)
        detector = PeakDetector(detection_channel=detection_channel)
        fused = detector.detect(trace, 450.0)
        oracle = staged_detect(detector, trace, 450.0)
        assert_reports_identical(
            fused, oracle, context=f"detection_channel {detection_channel}"
        )

    @pytest.mark.parametrize(
        "trace,label",
        [
            (np.ones((2, 5000)), "constant ones"),
            (np.zeros((1, 3000)), "all zeros"),
            (np.ones((3, 0)), "zero samples"),
            (np.ones((2, 1)), "single sample"),
            (np.full((2, 2), 0.5), "n <= order"),
            (np.ones((1, 7)), "shorter than one window"),
        ],
        ids=["ones", "zeros", "empty", "one-sample", "tiny", "sub-window"],
    )
    def test_degenerate_flats(self, trace, label):
        detector = PeakDetector()
        fused = detector.detect(trace, 450.0)
        oracle = staged_detect(detector, trace, 450.0)
        assert_reports_identical(fused, oracle, context=label)
        assert fused.count == 0


class TestSingleTraceKernel:
    def test_fused_detect_rejects_bad_channel(self):
        detector = PeakDetector(detection_channel=2)
        with pytest.raises(ValidationError, match="detection_channel"):
            fused_detect(detector, np.ones((2, 50)), 450.0)

    def test_non_contiguous_input_matches_contiguous(self):
        rng = np.random.default_rng(8)
        centers = np.sort(rng.uniform(0.5, 9.5, size=10))
        trace = synthetic_trace(
            centers, rng.uniform(0.003, 0.012, 10), duration=10.0, seed=8
        )
        detector = PeakDetector()
        want = detector.detect(trace, 450.0)
        assert want.count > 0
        for label, layout in [
            ("fortran", np.asfortranarray(trace)),
            ("strided", np.repeat(trace, 2, axis=0)[::2]),
        ]:
            assert not layout.flags.c_contiguous
            assert_reports_identical(
                detector.detect(layout, 450.0), want, context=label
            )
