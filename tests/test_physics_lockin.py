"""Lock-in amplifier chain: carriers, filtering, decimation."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.physics.lockin import DEFAULT_CARRIERS_HZ, LockInAmplifier
from repro.physics.peaks import PulseTrain, synthesize_pulse_train


class TestConfiguration:
    def test_default_carriers_match_paper(self):
        # §VI-D: 500, 800, 1000, 1200, 1400, 2000, 3000, 4000 kHz.
        expected = tuple(f * 1e3 for f in (500, 800, 1000, 1200, 1400, 2000, 3000, 4000))
        assert DEFAULT_CARRIERS_HZ == expected

    def test_default_rates_match_paper(self):
        lockin = LockInAmplifier()
        assert lockin.output_rate_hz == 450.0
        assert lockin.lowpass_cutoff_hz == 120.0
        assert lockin.excitation_volts == 1.0

    def test_n_channels(self):
        assert LockInAmplifier().n_channels == 8

    def test_channel_index_lookup(self):
        lockin = LockInAmplifier()
        assert lockin.channel_index(500e3) == 0
        assert lockin.channel_index(4000e3) == 7
        with pytest.raises(ValueError):
            lockin.channel_index(123e3)

    def test_duplicate_carriers_rejected(self):
        with pytest.raises(ValueError):
            LockInAmplifier(carrier_frequencies_hz=(500e3, 500e3))

    def test_cutoff_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            LockInAmplifier(lowpass_cutoff_hz=300.0)

    def test_empty_carriers_rejected(self):
        with pytest.raises(ValueError):
            LockInAmplifier(carrier_frequencies_hz=())


class TestDemodulation:
    def test_output_shape_and_rate(self, small_lockin):
        n_internal = int(2.0 * small_lockin.internal_rate_hz)
        trace = np.ones((2, n_internal))
        out = small_lockin.demodulate(trace)
        assert out.shape == (2, small_lockin.output_sample_count(2.0))
        assert out.shape[1] == pytest.approx(900, abs=1)

    def test_baseline_scaled_by_excitation(self):
        lockin = LockInAmplifier(
            carrier_frequencies_hz=(500e3,), excitation_volts=2.0
        )
        trace = np.ones((1, int(lockin.internal_rate_hz)))
        out = lockin.demodulate(trace)
        assert np.allclose(out, 2.0, atol=1e-9)

    def test_dip_survives_filter(self, small_lockin):
        event = PulseTrain(center_s=1.0, width_s=0.02, amplitudes=[0.01, 0.01])
        trace = synthesize_pulse_train(event, 2, small_lockin.internal_rate_hz, 2.0)
        out = small_lockin.demodulate(trace)
        depth = 1.0 - out[0].min()
        assert depth == pytest.approx(0.01, rel=0.05)

    def test_high_frequency_noise_attenuated(self, small_lockin):
        rate = small_lockin.internal_rate_hz
        t = np.arange(int(rate * 2)) / rate
        wiggle = 0.01 * np.sin(2 * np.pi * 400.0 * t)  # well above 120 Hz
        trace = np.vstack([1.0 + wiggle, 1.0 + wiggle])
        out = small_lockin.demodulate(trace)
        assert np.std(out[0]) < 0.002  # > 5x attenuation

    def test_shape_mismatch_rejected(self, small_lockin):
        with pytest.raises(ValidationError, match="expected trace of shape"):
            small_lockin.demodulate(np.ones((3, 100)))

    def test_empty_trace(self, small_lockin):
        out = small_lockin.demodulate(np.ones((2, 0)))
        assert out.shape == (2, 0)
