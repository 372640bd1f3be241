"""Acquisition front-end: events through noise and lock-in to trace."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.hardware.acquisition import AcquiredTrace, AcquisitionFrontEnd
from repro.physics.lockin import LockInAmplifier
from repro.physics.noise import QUIET
from repro.physics.peaks import PulseTrain


@pytest.fixture
def front_end(small_lockin, quiet_noise):
    return AcquisitionFrontEnd(lockin=small_lockin, noise=quiet_noise)


def one_event(depth=0.01):
    return PulseTrain(center_s=1.0, width_s=0.02, amplitudes=[depth, depth / 2])


class TestAcquiredTrace:
    def test_properties(self):
        trace = AcquiredTrace(
            voltages=np.ones((2, 900)),
            sampling_rate_hz=450.0,
            carrier_frequencies_hz=(500e3, 2500e3),
        )
        assert trace.n_channels == 2
        assert trace.n_samples == 900
        assert trace.duration_s == pytest.approx(2.0)

    def test_channel_carrier_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="carriers"):
            AcquiredTrace(
                voltages=np.ones((3, 10)),
                sampling_rate_hz=450.0,
                carrier_frequencies_hz=(500e3,),
            )

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            AcquiredTrace(
                voltages=np.ones(10),
                sampling_rate_hz=450.0,
                carrier_frequencies_hz=(500e3,),
            )


class TestAcquire:
    def test_trace_shape_and_rate(self, front_end):
        trace = front_end.acquire(one_event(), 2.0, rng=0)
        assert trace.n_channels == 2
        assert trace.sampling_rate_hz == 450.0
        assert trace.duration_s == pytest.approx(2.0, abs=0.01)

    def test_quiet_acquisition_preserves_depths(self, front_end):
        trace = front_end.acquire(one_event(0.01), 2.0, rng=0)
        depth0 = 1.0 - trace.voltages[0].min()
        depth1 = 1.0 - trace.voltages[1].min()
        assert depth0 == pytest.approx(0.01, rel=0.05)
        assert depth1 == pytest.approx(0.005, rel=0.05)

    def test_noise_applied(self, small_lockin):
        noisy_front_end = AcquisitionFrontEnd(lockin=small_lockin)
        trace = noisy_front_end.acquire(PulseTrain.empty(2), 2.0, rng=0)
        assert np.std(trace.voltages[0]) > 0

    def test_deterministic_with_seed(self, small_lockin):
        front_end = AcquisitionFrontEnd(lockin=small_lockin)
        a = front_end.acquire(one_event(), 1.0, rng=9)
        b = front_end.acquire(one_event(), 1.0, rng=9)
        assert np.allclose(a.voltages, b.voltages)

    def test_empty_events_flat_baseline(self, front_end):
        trace = front_end.acquire(PulseTrain.empty(2), 1.0, rng=0)
        assert np.allclose(trace.voltages, 1.0, atol=1e-9)

    def test_invalid_duration_rejected(self, front_end):
        with pytest.raises(Exception):
            front_end.acquire(PulseTrain.empty(2), 0.0)
