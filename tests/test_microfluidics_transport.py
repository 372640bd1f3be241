"""Transport model: arrivals, losses, expected counts."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.microfluidics import FlowController, TransportModel
from repro.particles import BEAD_3P58, BEAD_7P8, BLOOD_CELL, Sample
from repro.particles.sample import Particle


@pytest.fixture
def transport():
    return TransportModel()


@pytest.fixture
def lossless():
    return TransportModel(
        settling_tau_s_at_7p8um=1e12, adsorption_probability=0.0
    )


class TestExpectedCount:
    def test_expected_count_tracks_pumped_fraction(self, transport):
        sample = Sample.from_concentrations({BEAD_7P8: 1000.0}, volume_ul=1.0)
        flow = FlowController()
        # 60 s at 0.08 uL/min -> 0.08 uL of 1 uL -> 8% of 1000 beads.
        assert transport.expected_count(sample, flow, 60.0) == pytest.approx(80.0)

    def test_expected_count_caps_at_total(self, transport):
        sample = Sample.from_concentrations({BEAD_7P8: 100.0}, volume_ul=0.01)
        flow = FlowController()
        assert transport.expected_count(sample, flow, 3600.0) == sample.total_count


class TestArrivals:
    def test_lossless_arrival_rate(self, lossless, rng):
        sample = Sample.from_concentrations({BEAD_7P8: 2000.0}, volume_ul=1.0)
        flow = FlowController()
        counts = [
            len(lossless.schedule_arrivals(sample, flow, 60.0, rng=np.random.default_rng(i)))
            for i in range(20)
        ]
        expected = lossless.expected_count(sample, flow, 60.0)
        assert np.mean(counts) == pytest.approx(expected, rel=0.1)

    def test_arrivals_sorted_in_time(self, transport, rng):
        sample = Sample.from_concentrations({BLOOD_CELL: 5000.0}, volume_ul=1.0)
        arrivals = transport.schedule_arrivals(sample, FlowController(), 60.0, rng=rng)
        times = [a.time_s for a in arrivals]
        assert times == sorted(times)

    def test_arrival_times_within_duration(self, transport, rng):
        sample = Sample.from_concentrations({BLOOD_CELL: 5000.0}, volume_ul=1.0)
        arrivals = transport.schedule_arrivals(sample, FlowController(), 30.0, rng=rng)
        assert all(0.0 <= a.time_s <= 30.0 for a in arrivals)

    def test_velocity_matches_flow_schedule(self, lossless, rng, channel):
        sample = Sample.from_concentrations({BEAD_7P8: 5000.0}, volume_ul=1.0)
        flow = FlowController(channel=channel)
        flow.set_rate(30.0, 0.16)
        arrivals = lossless.schedule_arrivals(sample, flow, 60.0, rng=rng)
        slow_v = channel.velocity_for_flow_rate(0.08)
        fast_v = channel.velocity_for_flow_rate(0.16)
        for arrival in arrivals:
            expected = slow_v if arrival.time_s < 30.0 else fast_v
            assert arrival.velocity_m_s == pytest.approx(expected)

    def test_faster_flow_more_arrivals(self, lossless):
        sample = Sample.from_concentrations({BEAD_7P8: 3000.0}, volume_ul=1.0)
        slow = FlowController()
        fast = FlowController()
        fast.set_rate(0.0, 0.16)
        n_slow = np.mean([
            len(lossless.schedule_arrivals(sample, slow, 60.0, rng=np.random.default_rng(i)))
            for i in range(10)
        ])
        n_fast = np.mean([
            len(lossless.schedule_arrivals(sample, fast, 60.0, rng=np.random.default_rng(i)))
            for i in range(10)
        ])
        assert n_fast > 1.5 * n_slow

    def test_empty_sample_no_arrivals(self, transport, rng):
        sample = Sample(volume_liters=1e-6, counts={})
        assert transport.schedule_arrivals(sample, FlowController(), 10.0, rng=rng) == []


class TestLosses:
    def test_survival_decreases_with_time(self, transport):
        particle = Particle(BEAD_7P8, BEAD_7P8.diameter_m)
        early = transport.survival_probability(particle, 10.0)
        late = transport.survival_probability(particle, 3000.0)
        assert late < early

    def test_larger_beads_settle_faster(self, transport):
        big = Particle(BEAD_7P8, BEAD_7P8.diameter_m)
        small = Particle(BEAD_3P58, BEAD_3P58.diameter_m)
        t = 1000.0
        assert transport.survival_probability(big, t) < transport.survival_probability(
            small, t
        )

    def test_cells_settle_slower_than_beads(self, transport):
        # Blood cells are near neutrally buoyant.
        cell = Particle(BLOOD_CELL, 7.8e-6)
        bead = Particle(BEAD_7P8, 7.8e-6)
        assert transport.settling_tau_s(cell) > transport.settling_tau_s(bead)

    def test_adsorption_floor(self, transport):
        particle = Particle(BEAD_3P58, BEAD_3P58.diameter_m)
        assert transport.survival_probability(particle, 0.0) == pytest.approx(
            1.0 - transport.adsorption_probability
        )

    def test_losses_reduce_measured_counts(self, rng):
        lossy = TransportModel(
            settling_tau_s_at_7p8um=300.0, adsorption_probability=0.2
        )
        sample = Sample.from_concentrations({BEAD_7P8: 5000.0}, volume_ul=1.0)
        flow = FlowController()
        counts = [
            len(lossy.schedule_arrivals(sample, flow, 60.0, rng=np.random.default_rng(i)))
            for i in range(20)
        ]
        expected = lossy.expected_count(sample, flow, 60.0)
        assert np.mean(counts) < 0.95 * expected

    def test_negative_arrival_time_rejected(self, transport):
        particle = Particle(BEAD_7P8, BEAD_7P8.diameter_m)
        with pytest.raises(ValidationError, match="arrival_time_s"):
            transport.survival_probability(particle, -1.0)
