"""Noise and baseline-drift models."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.physics.noise import QUIET, BaselineDriftModel, NoiseModel


class TestBaselineDrift:
    def test_quiet_drift_is_flat(self):
        drift = QUIET.drift.generate(1000, 450.0, rng=0)
        assert np.allclose(drift, 1.0)

    def test_linear_trend(self):
        model = BaselineDriftModel(
            linear_per_hour=0.36,
            sinusoid_amplitude=0.0,
            random_walk_sigma_per_sqrt_s=0.0,
        )
        drift = model.generate(3600 * 10, 10.0, rng=0)  # one hour at 10 Hz
        assert drift[-1] - drift[0] == pytest.approx(0.36, rel=0.01)

    def test_sinusoid_amplitude(self):
        model = BaselineDriftModel(
            linear_per_hour=0.0,
            sinusoid_amplitude=0.01,
            sinusoid_period_s=10.0,
            random_walk_sigma_per_sqrt_s=0.0,
        )
        drift = model.generate(450 * 20, 450.0, rng=0)
        assert drift.max() == pytest.approx(1.01, abs=1e-4)
        assert drift.min() == pytest.approx(0.99, abs=1e-4)

    def test_random_walk_grows(self):
        model = BaselineDriftModel(
            linear_per_hour=0.0,
            sinusoid_amplitude=0.0,
            random_walk_sigma_per_sqrt_s=1e-3,
        )
        walks = [model.generate(45000, 450.0, rng=i)[-1] - 1.0 for i in range(40)]
        # After 100 s the walk std should be ~1e-3 * 10 = 1e-2.
        assert 0.004 < np.std(walks) < 0.03

    def test_deterministic_with_seed(self):
        model = BaselineDriftModel()
        a = model.generate(500, 450.0, rng=5)
        b = model.generate(500, 450.0, rng=5)
        assert np.allclose(a, b)

    def test_zero_samples(self):
        assert BaselineDriftModel().generate(0, 450.0, rng=0).shape == (0,)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            BaselineDriftModel().generate(-1, 450.0)


class TestNoiseModel:
    def test_white_noise_level(self):
        model = NoiseModel(white_sigma=1e-3, drift=QUIET.drift)
        trace = np.ones((1, 20000))
        noisy = model.apply(trace, 450.0, rng=0)
        assert np.std(noisy) == pytest.approx(1e-3, rel=0.05)

    def test_drift_shared_across_channels(self):
        model = NoiseModel(white_sigma=0.0)
        trace = np.ones((3, 5000))
        noisy = model.apply(trace, 450.0, rng=1)
        assert np.allclose(noisy[0], noisy[1])
        assert np.allclose(noisy[1], noisy[2])

    def test_noise_independent_across_channels(self):
        model = NoiseModel(white_sigma=1e-3, drift=QUIET.drift)
        noisy = model.apply(np.ones((2, 5000)), 450.0, rng=2)
        assert not np.allclose(noisy[0], noisy[1])

    def test_quiet_model_is_identity(self):
        trace = np.ones((2, 1000))
        assert np.allclose(QUIET.apply(trace, 450.0, rng=0), trace)

    def test_one_dimensional_trace_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            NoiseModel().apply(np.ones(100), 450.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(white_sigma=-1e-3)
