"""Pulse events and waveform synthesis."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.physics.peaks import (
    PulseTrain,
    events_per_particle,
    pulse_width_fwhm_s,
    synthesize_pulse_train,
    total_event_count,
)


def make_event(center=1.0, width=0.02, amps=(0.01,), **kw):
    return PulseTrain(center_s=center, width_s=width, amplitudes=amps, **kw)


class TestPulseTrain:
    def test_sigma_fwhm_relation(self):
        event = make_event(width=0.02)
        assert event.sigma_s == pytest.approx(0.02 / 2.3548, rel=1e-3)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            make_event(amps=(-0.01,))

    def test_zero_width_rejected(self):
        with pytest.raises(Exception):
            make_event(width=0.0)

    def test_refusals_are_typed_and_vectorised(self):
        centers = [1.0, 2.0, 3.0]
        with pytest.raises(ValidationError, match="width_s"):
            PulseTrain(centers, [0.02, 0.0, 0.02], (0.01,))
        with pytest.raises(ValidationError, match="width_s"):
            PulseTrain(centers, [0.02, np.nan, 0.02], (0.01,))
        with pytest.raises(ValidationError, match="non-negative"):
            PulseTrain(centers, 0.02, [[0.01], [0.01], [-1e-9]])
        with pytest.raises(ValidationError, match="disagree in shape"):
            PulseTrain(centers, 0.02, [[0.01], [0.01]])
        with pytest.raises(ValidationError, match="disagree in shape"):
            PulseTrain(centers, [0.02, 0.02], (0.01,))
        with pytest.raises(ValidationError, match="1-D"):
            PulseTrain([[1.0]], 0.02, (0.01,))

    def test_columns_broadcast_and_rows_index(self):
        train = PulseTrain([1.0, 2.0], 0.02, (0.01, 0.005), electrode_index=[3, 9])
        assert len(train) == 2 and train.n_channels == 2
        assert train.amplitudes.shape == (2, 2)
        row = train[1]
        assert (row.center_s, row.width_s, row.electrode_index, row.particle_index) == (
            2.0, 0.02, 9, -1
        )
        assert [e.center_s for e in train[::-1]] == [2.0, 1.0]
        assert len(PulseTrain.concatenate([train, train[:1]])) == 3
        assert PulseTrain.empty(5).amplitudes.shape == (0, 5)


class TestPulseWidth:
    def test_paper_transit_time(self):
        # 45 um sensing length at 2.22 mm/s -> ~20 ms (paper Fig 11).
        width = pulse_width_fwhm_s(45e-6, 2.222e-3)
        assert width == pytest.approx(0.02025, rel=0.01)

    def test_faster_flow_narrower(self):
        assert pulse_width_fwhm_s(45e-6, 4e-3) < pulse_width_fwhm_s(45e-6, 2e-3)


class TestSynthesis:
    def test_baseline_without_events(self):
        trace = synthesize_pulse_train(PulseTrain.empty(2), 2, 450.0, 1.0)
        assert trace.shape == (2, 450)
        assert np.all(trace == 1.0)

    def test_single_dip_depth_and_location(self):
        event = make_event(center=0.5, width=0.02, amps=(0.01,))
        trace = synthesize_pulse_train(event, 1, 450.0, 1.0)
        index = np.argmin(trace[0])
        assert index == pytest.approx(0.5 * 450, abs=1)
        assert trace[0].min() == pytest.approx(0.99, abs=1e-4)

    def test_multichannel_amplitudes(self):
        event = make_event(amps=(0.01, 0.002))
        trace = synthesize_pulse_train(event, 2, 450.0, 2.0)
        assert 1 - trace[0].min() == pytest.approx(0.01, abs=1e-4)
        assert 1 - trace[1].min() == pytest.approx(0.002, abs=1e-4)

    def test_channel_count_mismatch_rejected(self):
        event = make_event(amps=(0.01,))
        with pytest.raises(ValidationError, match="channel amplitudes"):
            synthesize_pulse_train(event, 3, 450.0, 2.0)
        with pytest.raises(ValidationError, match="n_channels"):
            synthesize_pulse_train(event, 0, 450.0, 2.0)

    def test_overlapping_dips_add(self):
        pair = make_event(center=[1.0, 1.0], amps=(0.01,))
        trace = synthesize_pulse_train(pair, 1, 450.0, 2.0)
        assert 1 - trace[0].min() == pytest.approx(0.02, abs=2e-4)

    def test_event_outside_duration_ignored(self):
        event = make_event(center=10.0)
        trace = synthesize_pulse_train(event, 1, 450.0, 1.0)
        assert np.all(trace == 1.0)

    def test_custom_baseline(self):
        event = make_event(amps=(0.01,))
        trace = synthesize_pulse_train(event, 1, 450.0, 2.0, baseline=2.0)
        # Multiplicative: dip depth scales with baseline.
        assert trace[0].min() == pytest.approx(2.0 * 0.99, abs=1e-3)


class TestGroundTruthHelpers:
    def test_total_event_count(self):
        events = make_event(center=range(5))
        assert total_event_count(events) == 5

    def test_events_per_particle_groups_and_sorts(self):
        events = make_event(center=[2.0, 1.0, 1.5], particle_index=[1, 0, 1])
        groups = events_per_particle(events)
        assert set(groups) == {0, 1}
        assert [e.center_s for e in groups[1]] == [1.5, 2.0]
