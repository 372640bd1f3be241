"""Edge-case coverage across modules: the paths regular tests skirt."""

import numpy as np
import pytest

from repro._util.errors import ConfigurationError, ValidationError
from repro.crypto.encryptor import EncryptionPlan, SignalEncryptor
from repro.crypto.gains import GainTable
from repro.crypto.key import EpochKey, KeySchedule
from repro.dsp.peakdetect import PeakDetector
from repro.hardware.electrodes import ElectrodeArray, standard_array
from repro.microfluidics.flow import FlowController, FlowSpeedTable
from repro.physics.lockin import LockInAmplifier
from repro.physics.peaks import PulseTrain, synthesize_pulse_train


class TestSingleOutputArray:
    """An n=1 array: the lead is the only electrode."""

    def test_geometry(self):
        array = ElectrodeArray(n_outputs=1)
        assert array.lead_electrode == 1
        assert array.dips_per_particle(1) == 1
        assert array.span_m == 0.0
        assert array.position_order == (1,)

    def test_keygen_on_single_output(self):
        from repro.crypto.keygen import EntropySource, KeyGenerator

        generator = KeyGenerator(n_electrodes=1)
        key = generator.draw_epoch_key(EntropySource(rng=0))
        assert key.active_electrodes == frozenset({1})


class TestDetectorOptions:
    def make_trace(self, n_channels=3):
        events = PulseTrain(
            center_s=5.0,
            width_s=0.02,
            amplitudes=[0.002, 0.01, 0.004][:n_channels],
        )
        return synthesize_pulse_train(events, n_channels, 450.0, 10.0)

    def test_alternate_detection_channel(self):
        trace = self.make_trace()
        # Channel 1 carries the strongest dip; detect there.
        detector = PeakDetector(detection_channel=1)
        report = detector.detect(trace, 450.0)
        assert report.count == 1
        assert report.detection_channel == 1
        assert report.peaks[0].depth == pytest.approx(0.01, rel=0.1)

    def test_threshold_filters_weak_channel(self):
        trace = self.make_trace()
        # On channel 0 the dip is 0.002 — above default threshold; with
        # a raised threshold it disappears.
        strict = PeakDetector(detection_channel=0, depth_threshold=5e-3)
        assert strict.detect(trace, 450.0).count == 0


class TestLockinVariants:
    def test_no_oversampling(self):
        lockin = LockInAmplifier(
            carrier_frequencies_hz=(500e3,), oversample_factor=1
        )
        trace = np.ones((1, 450))
        out = lockin.demodulate(trace)
        assert out.shape == (1, 450)

    def test_invalid_oversample_rejected(self):
        with pytest.raises(ValueError):
            LockInAmplifier(oversample_factor=0)

    def test_output_sample_count_matches_demodulate(self):
        lockin = LockInAmplifier(carrier_frequencies_hz=(500e3,))
        duration = 3.3
        n_internal = int(round(duration * lockin.internal_rate_hz))
        out = lockin.demodulate(np.ones((1, n_internal)))
        assert out.shape[1] == lockin.output_sample_count(duration)


class TestFlowEdge:
    def test_flow_query_exactly_at_switch(self):
        flow = FlowController()
        flow.set_rate(10.0, 0.05)
        assert flow.rate_at(10.0) == pytest.approx(0.05)

    def test_volume_across_unbounded_tail(self):
        flow = FlowController()
        flow.set_rate(5.0, 0.06)
        # Far beyond the last switch, the final rate applies.
        expected = 0.08 * 5 / 60 + 0.06 * 55 / 60
        assert flow.volume_pumped_ul(0.0, 60.0) == pytest.approx(expected)


class TestEncryptorEdge:
    def test_empty_arrivals_empty_events(self, array9):
        key = EpochKey(frozenset({9}), (0,) * 9, 0)
        plan = EncryptionPlan(
            KeySchedule(epoch_duration_s=5.0, epochs=(key,)),
            array9,
            GainTable(),
            FlowSpeedTable(),
        )
        encryptor = SignalEncryptor(carrier_frequencies_hz=(500e3,))
        assert len(encryptor.events_for_arrivals([], plan)) == 0
        assert len(encryptor.plaintext_events([], array9)) == 0

    def test_empty_carriers_rejected(self):
        with pytest.raises(ConfigurationError):
            SignalEncryptor(carrier_frequencies_hz=())


class TestGainTableEdge:
    def test_single_level_table(self):
        table = GainTable(n_levels=1, min_gain=1.0, max_gain=1.0)
        assert table.gain_for_level(0) == 1.0
        assert table.resolution_bits == 1

    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigurationError):
            GainTable(min_gain=4.0, max_gain=0.5)


class TestScheduleEdge:
    def test_single_epoch_schedule(self):
        key = EpochKey(frozenset({1}), (0,) * 9, 0)
        schedule = KeySchedule(epoch_duration_s=60.0, epochs=(key,))
        assert schedule.key_at(59.999) is key
        assert schedule.duration_s == 60.0

    def test_length_bits_zero_resolutions(self):
        key = EpochKey(frozenset({1}), (0,) * 9, 0)
        schedule = KeySchedule(epoch_duration_s=1.0, epochs=(key,) * 4)
        # Only the electrode bitmask contributes.
        assert schedule.length_bits(0, 0) == 4 * 9
