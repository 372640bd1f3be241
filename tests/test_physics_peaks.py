"""Pulse events and waveform synthesis."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.physics.peaks import (
    PulseEvent,
    events_per_particle,
    pulse_width_fwhm_s,
    synthesize_pulse_train,
    total_event_count,
)


def make_event(center=1.0, width=0.02, amps=(0.01,), **kw):
    return PulseEvent(center_s=center, width_s=width, amplitudes=np.array(amps), **kw)


class TestPulseEvent:
    def test_sigma_fwhm_relation(self):
        event = make_event(width=0.02)
        assert event.sigma_s == pytest.approx(0.02 / 2.3548, rel=1e-3)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            make_event(amps=(-0.01,))

    def test_zero_width_rejected(self):
        with pytest.raises(Exception):
            make_event(width=0.0)


class TestPulseWidth:
    def test_paper_transit_time(self):
        # 45 um sensing length at 2.22 mm/s -> ~20 ms (paper Fig 11).
        width = pulse_width_fwhm_s(45e-6, 2.222e-3)
        assert width == pytest.approx(0.02025, rel=0.01)

    def test_faster_flow_narrower(self):
        assert pulse_width_fwhm_s(45e-6, 4e-3) < pulse_width_fwhm_s(45e-6, 2e-3)


class TestSynthesis:
    def test_baseline_without_events(self):
        trace = synthesize_pulse_train([], 2, 450.0, 1.0)
        assert trace.shape == (2, 450)
        assert np.all(trace == 1.0)

    def test_single_dip_depth_and_location(self):
        event = make_event(center=0.5, width=0.02, amps=(0.01,))
        trace = synthesize_pulse_train([event], 1, 450.0, 1.0)
        index = np.argmin(trace[0])
        assert index == pytest.approx(0.5 * 450, abs=1)
        assert trace[0].min() == pytest.approx(0.99, abs=1e-4)

    def test_multichannel_amplitudes(self):
        event = make_event(amps=(0.01, 0.002))
        trace = synthesize_pulse_train([event], 2, 450.0, 2.0)
        assert 1 - trace[0].min() == pytest.approx(0.01, abs=1e-4)
        assert 1 - trace[1].min() == pytest.approx(0.002, abs=1e-4)

    def test_channel_count_mismatch_rejected(self):
        event = make_event(amps=(0.01,))
        with pytest.raises(ValidationError, match="channel amplitudes"):
            synthesize_pulse_train([event], 3, 450.0, 2.0)
        with pytest.raises(ValidationError, match="n_channels"):
            synthesize_pulse_train([event], 0, 450.0, 2.0)

    def test_overlapping_dips_add(self):
        a = make_event(center=1.0, amps=(0.01,))
        b = make_event(center=1.0, amps=(0.01,))
        trace = synthesize_pulse_train([a, b], 1, 450.0, 2.0)
        assert 1 - trace[0].min() == pytest.approx(0.02, abs=2e-4)

    def test_event_outside_duration_ignored(self):
        event = make_event(center=10.0)
        trace = synthesize_pulse_train([event], 1, 450.0, 1.0)
        assert np.all(trace == 1.0)

    def test_custom_baseline(self):
        event = make_event(amps=(0.01,))
        trace = synthesize_pulse_train([event], 1, 450.0, 2.0, baseline=2.0)
        # Multiplicative: dip depth scales with baseline.
        assert trace[0].min() == pytest.approx(2.0 * 0.99, abs=1e-3)


class TestGroundTruthHelpers:
    def test_total_event_count(self):
        events = [make_event(center=i) for i in range(5)]
        assert total_event_count(events) == 5

    def test_events_per_particle_groups_and_sorts(self):
        events = [
            make_event(center=2.0, particle_index=1),
            make_event(center=1.0, particle_index=0),
            make_event(center=1.5, particle_index=1),
        ]
        groups = events_per_particle(events)
        assert set(groups) == {0, 1}
        assert [e.center_s for e in groups[1]] == [1.5, 2.0]
