"""Differential tests: arrival scheduling and template matching against
the scalar oracle in ``tests/_session_oracle.py``.

The shipped paths (one vectorised bisection over every reachable
particle; a bisect window over the time-sorted peaks) must reproduce
the scalar formulations exactly: the same IEEE bytes for every arrival
time and velocity, the same random draws consumed, and the same groups,
tie-breaks and ``DecryptionResult`` fields.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CytoIdentifier, MedSenSession, Sample
from repro._util.units import MICRO
from repro.crypto.decryptor import SignalDecryptor
from repro.crypto.encryptor import EncryptionPlan
from repro.crypto.gains import GainTable
from repro.crypto.key import EpochKey, KeySchedule
from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.hardware.electrodes import standard_array
from repro.microfluidics.flow import FlowController, FlowSpeedTable
from repro.microfluidics.transport import TransportModel, _arrival_times
from repro.particles import BEAD_3P58, BEAD_7P8, BLOOD_CELL, ParticleType

from tests._session_oracle import (
    explain_arrivals_mismatch,
    explain_decryption_mismatch,
    scalar_decrypt,
    scalar_match_groups,
    scalar_schedule_arrivals,
    scalar_time_for_volume,
)

RATES = st.floats(0.01, 0.5, allow_nan=False, allow_infinity=False)
#: A monodisperse species: ``draw_diameter`` takes its ``np.full`` branch.
FIXED_BEAD = ParticleType(
    "bead_5um_fixed", diameter_m=5.0e-6, base_drop=0.002, diameter_cv=0.0
)
SPECIES = (BEAD_3P58, BEAD_7P8, BLOOD_CELL, FIXED_BEAD)


def depth(local: int) -> int:
    """Example count: ``local`` here, more under the ``ci`` profile
    (tests/conftest.py)."""
    return max(local, settings().max_examples)


def fbits(value: float) -> bytes:
    return struct.pack("<d", value)


# ---------------------------------------------------------------------------
# Arrival scheduling
# ---------------------------------------------------------------------------
@st.composite
def flows(draw, max_commands=40):
    """Flow schedules: one segment, many short ones, and repeated
    ``set_rate`` calls at one time (which replace the rate)."""
    flow = FlowController(initial_rate_ul_min=draw(RATES))
    time_s = 0.0
    for _ in range(draw(st.integers(0, max_commands))):
        time_s += draw(st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
        flow.set_rate(time_s, draw(RATES))
    return flow


class TestArrivalTimes:
    @settings(max_examples=depth(60), deadline=None)
    @given(
        flow=flows(),
        duration_s=st.floats(0.5, 300.0),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=12),
    )
    def test_bisection_matches_scalar(self, flow, duration_s, fractions):
        pumped_ul = flow.volume_pumped_ul(0.0, duration_s)
        volumes = [0.0, pumped_ul, float(np.nextafter(pumped_ul, 0.0))]
        volumes += [fraction * pumped_ul for fraction in fractions]
        # Volumes drawn exactly at a pump switch.
        volumes += [
            flow.volume_pumped_ul(0.0, start_s)
            for start_s, _ in flow.segments()
            if start_s <= duration_s
        ]
        times = _arrival_times(flow, np.array(volumes), duration_s)
        for volume, time_s in zip(volumes, times.tolist()):
            expected = scalar_time_for_volume(flow, volume, duration_s)
            assert fbits(time_s) == fbits(expected), (volume, time_s, expected)

    def test_single_segment_and_zero_volume(self):
        flow = FlowController()
        volumes = np.array([0.0, 1e-300, 0.02, flow.volume_pumped_ul(0.0, 30.0)])
        times = _arrival_times(flow, volumes, 30.0)
        assert times[0] == 0.0
        for volume, time_s in zip(volumes.tolist(), times.tolist()):
            assert fbits(time_s) == fbits(scalar_time_for_volume(flow, volume, 30.0))

    def test_rate_set_twice_at_one_time(self):
        flow = FlowController()
        flow.set_rate(2.0, 0.05)
        flow.set_rate(2.0, 0.09)
        flow.set_rate(4.0, 0.04)
        volumes = np.linspace(0.0, flow.volume_pumped_ul(0.0, 10.0), 17)
        times = _arrival_times(flow, volumes, 10.0)
        for volume, time_s in zip(volumes.tolist(), times.tolist()):
            assert fbits(time_s) == fbits(scalar_time_for_volume(flow, volume, 10.0))

    @settings(max_examples=depth(40), deadline=None)
    @given(
        flow=flows(max_commands=25),
        duration_s=st.floats(1.0, 120.0),
        counts=st.dictionaries(st.sampled_from(SPECIES), st.integers(0, 120)),
        volume_ul=st.floats(0.02, 0.5),
        whole_sample=st.one_of(st.none(), st.floats(0.05, 1.0)),
        lossy=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # Every species, the monodisperse one included.
    @example(
        flow=FlowController(), duration_s=60.0,
        counts={species: 40 for species in SPECIES}, volume_ul=0.1,
        whole_sample=None, lossy=True, seed=4,
    )
    # Every parcel is drawn: the sample is no bigger than the pumped volume.
    @example(
        flow=FlowController(), duration_s=60.0,
        counts={BEAD_3P58: 30, FIXED_BEAD: 20, BLOOD_CELL: 50}, volume_ul=0.1,
        whole_sample=1.0, lossy=False, seed=5,
    )
    # One particle, and none.
    @example(
        flow=FlowController(), duration_s=30.0, counts={FIXED_BEAD: 1},
        volume_ul=0.02, whole_sample=0.5, lossy=False, seed=6,
    )
    @example(
        flow=FlowController(), duration_s=30.0, counts={}, volume_ul=0.02,
        whole_sample=None, lossy=False, seed=7,
    )
    def test_schedule_matches_scalar(
        self, flow, duration_s, counts, volume_ul, whole_sample, lossy, seed
    ):
        if whole_sample is not None:
            volume_ul = whole_sample * flow.volume_pumped_ul(0.0, duration_s)
        sample = Sample(volume_liters=volume_ul * MICRO, counts=counts)
        transport = (
            TransportModel(settling_tau_s_at_7p8um=30.0, adsorption_probability=0.2)
            if lossy
            else TransportModel()
        )
        shipped_rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        shipped = transport.schedule_arrivals(sample, flow, duration_s, rng=shipped_rng)
        oracle = scalar_schedule_arrivals(transport, sample, flow, duration_s, oracle_rng)
        assert explain_arrivals_mismatch(shipped, oracle) == ""
        # The same draws were consumed, so acquisition noise drawn next
        # from the same generator is unchanged.
        assert shipped_rng.bit_generator.state == oracle_rng.bit_generator.state
        assert fbits(shipped_rng.random()) == fbits(oracle_rng.random())

    def test_session_flow_schedule(self):
        """A keyed 60 s capture: 2 s epochs of quantised flow levels."""
        table = FlowSpeedTable()
        flow = FlowController()
        for epoch in range(30):
            flow.set_rate(2.0 * epoch, table.rate_for_level((7 * epoch) % 16))
        sample = Sample.from_concentrations(
            {BEAD_3P58: 400.0, BEAD_7P8: 200.0, BLOOD_CELL: 600.0}, volume_ul=0.2
        )
        shipped = TransportModel().schedule_arrivals(sample, flow, 60.0, rng=7)
        oracle = scalar_schedule_arrivals(TransportModel(), sample, flow, 60.0, 7)
        assert len(shipped) > 50
        assert explain_arrivals_mismatch(shipped, oracle) == ""


# ---------------------------------------------------------------------------
# Template matching
# ---------------------------------------------------------------------------
def group_key(groups):
    """Groups by the report indices of their peaks."""
    return [
        (group.epoch_index, group.matched, group.credits, group.template_size)
        for group in groups
    ]


def assert_matches_oracle(decryptor: SignalDecryptor, report: PeakReport) -> None:
    groups, anomalies = decryptor._match_groups(report.as_columns())
    oracle_groups, oracle_anomalies = scalar_match_groups(decryptor, report)
    assert anomalies == oracle_anomalies
    assert group_key(groups) == group_key(oracle_groups)
    mismatch = explain_decryption_mismatch(
        decryptor.decrypt(report), scalar_decrypt(decryptor, report)
    )
    assert mismatch == ""


def make_peak(time_s: float, amplitude: float) -> DetectedPeak:
    return DetectedPeak(
        time_s=time_s,
        depth=amplitude,
        width_s=0.01,
        amplitudes=np.array([amplitude, 0.5 * amplitude]),
        sample_index=int(time_s * 450),
    )


@st.composite
def decrypt_cases(draw):
    """A random plan plus a report built from its templates.

    Each particle's slots are placed exactly, jittered, dropped, merged
    into the previous slot's peak (amplitudes add), duplicated (equal
    timestamps), split into an equal-error pair around the expected
    time, or set at ``tolerance_s`` and one ulp either side.  Anchors
    may sit on epoch boundaries; spurious peaks are sprinkled on top.
    """
    n_outputs = draw(st.sampled_from((2, 3, 5, 9)))
    array = standard_array(n_outputs)
    epoch_s = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))
    n_epochs = draw(st.integers(1, 4))
    electrodes = st.integers(1, n_outputs)
    epochs = tuple(
        EpochKey(
            frozenset(draw(st.sets(electrodes, min_size=1))),
            tuple(draw(st.lists(st.integers(0, 15), min_size=n_outputs, max_size=n_outputs))),
            draw(st.integers(0, 15)),
        )
        for _ in range(n_epochs)
    )
    plan = EncryptionPlan(KeySchedule(epoch_s, epochs), array, GainTable(), FlowSpeedTable())
    decryptor = SignalDecryptor(plan=plan)
    schedule = plan.schedule
    duration_s = schedule.duration_s
    boundaries = [k * epoch_s for k in range(1, n_epochs)]
    anchor_times = st.floats(0.0, duration_s, exclude_max=True)
    if boundaries:
        boundary = st.sampled_from(boundaries)
        anchor_times = st.one_of(
            anchor_times,
            boundary,
            boundary.map(lambda t: float(np.nextafter(t, 0.0))),
        )

    peaks = []
    for _ in range(draw(st.integers(0, 8))):
        t0 = draw(anchor_times)
        epoch = schedule.epochs[schedule.epoch_index_at(min(t0, duration_s * (1 - 1e-12)))]
        velocity = decryptor._velocity_for_epoch(epoch)
        tolerance_s = decryptor.tolerance_fraction * array.transit_time_s(velocity)
        base = draw(st.floats(1e-3, 2e-2))
        previous = None
        for offset_s, electrode in decryptor._gap_template(epoch, velocity):
            gain = plan.gain_table.gain_for_level(epoch.gain_level_for(electrode))
            expected = t0 + offset_s
            mode = draw(
                st.sampled_from(
                    ("exact", "jitter", "drop", "merge", "duplicate", "tie", "edge")
                )
            )
            if mode == "drop":
                continue
            if mode == "merge" and previous is not None:
                peaks[previous] = make_peak(
                    peaks[previous].time_s, peaks[previous].depth + gain * base
                )
                continue
            if mode == "jitter":
                times = [expected + draw(st.floats(-1.5, 1.5)) * tolerance_s]
            elif mode == "duplicate":
                times = [expected, expected]
            elif mode == "tie":
                # A power of two below the tolerance: both sides exact.
                step = 2.0 ** np.floor(np.log2(0.5 * tolerance_s))
                times = [expected - step, expected + step]
            elif mode == "edge":
                edge = expected + draw(st.sampled_from((-1.0, 1.0))) * tolerance_s
                times = [float(np.nextafter(edge, draw(st.sampled_from((-np.inf, np.inf)))))]
                if draw(st.booleans()):
                    times = [edge]
            else:
                times = [expected]
            for time_s in times:
                if time_s >= 0.0:
                    peaks.append(make_peak(time_s, gain * base))
                    previous = len(peaks) - 1
    for _ in range(draw(st.integers(0, 6))):
        peaks.append(make_peak(draw(st.floats(0.0, duration_s)), draw(st.floats(1e-3, 3e-2))))
    order = draw(st.permutations(range(len(peaks))))
    report = PeakReport(tuple(peaks[i] for i in order), duration_s, 450.0, 0)
    return decryptor, report


class TestTemplateMatch:
    @settings(max_examples=depth(300), deadline=None)
    @given(case=decrypt_cases())
    def test_random_reports_match_oracle(self, case):
        decryptor, report = case
        assert_matches_oracle(decryptor, report)

    def _one_slot_plan(self):
        array = standard_array(9)
        # The lead electrode alone: one gap, so one slot at offset 0.
        key = EpochKey(frozenset({array.lead_electrode}), tuple([8] * 9), 8)
        plan = EncryptionPlan(
            KeySchedule(2.0, (key,)), array, GainTable(), FlowSpeedTable()
        )
        decryptor = SignalDecryptor(plan=plan)
        velocity = decryptor._velocity_for_epoch(key)
        tolerance_s = decryptor.tolerance_fraction * array.transit_time_s(velocity)
        assert len(decryptor._gap_template(key, velocity)) == 1
        return decryptor, tolerance_s

    def test_equal_errors_go_to_the_highest_index(self):
        decryptor, _ = self._one_slot_plan()
        first, twin = make_peak(1.0, 0.01), make_peak(1.0, 0.02)
        report = PeakReport((first, twin), 2.0, 450.0, 0)
        groups, anomalies = decryptor._match_groups(report.as_columns())
        # Anchor ``first`` (lowest index); slot 0 goes to ``twin``
        # (equal error, higher index); ``first`` then anchors alone.
        assert [group.matched[0][0] for group in groups] == [1, 0]
        assert anomalies == 0
        assert_matches_oracle(decryptor, report)

    def test_tie_order_does_not_follow_set_layout(self):
        """Twins at sorted indices 15 and 16 are left after a 15-slot group.

        ``set(range(17))`` shrunk to ``{15, 16}`` by one
        ``difference_update`` iterates ``[16, 15]``; the rule is still the
        lowest index as anchor and the highest index for the slot.
        """
        array = standard_array(9)
        key = EpochKey(frozenset({1, 2, 3, 4, 5, 6, 7, 9}), tuple([8] * 9), 8)
        plan = EncryptionPlan(KeySchedule(2.0, (key,)), array, GainTable(), FlowSpeedTable())
        decryptor = SignalDecryptor(plan=plan)
        template = decryptor._gap_template(key, decryptor._velocity_for_epoch(key))
        assert len(template) == 15
        particle = [make_peak(0.2 + offset_s, 0.01) for offset_s, _ in template]
        first, twin = make_peak(1.5, 0.01), make_peak(1.5, 0.02)
        report = PeakReport(tuple(particle) + (first, twin), 2.0, 450.0, 0)
        groups, _ = decryptor._match_groups(report.as_columns())
        assert [index for index, _ in groups[0].matched] == list(range(len(particle)))
        # Anchor ``first``; slot 0 goes to ``twin``; ``first`` then anchors alone.
        n = len(particle)
        assert [group.matched[0][0] for group in groups[1:]] == [n + 1, n]
        assert_matches_oracle(decryptor, report)

    def test_tolerance_edges_to_the_ulp(self):
        decryptor, tolerance_s = self._one_slot_plan()
        anchor = 1.0
        inside = anchor + tolerance_s
        outside = float(np.nextafter(inside, np.inf))
        for time_s in (inside, outside, float(np.nextafter(inside, 0.0))):
            report = PeakReport(
                (make_peak(anchor, 0.01), make_peak(time_s, 0.01)), 2.0, 450.0, 0
            )
            assert_matches_oracle(decryptor, report)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_real_session_report_matches_oracle(self, seed):
        session = MedSenSession(rng=seed)
        identifier = CytoIdentifier(session.config.alphabet, levels=(2, 3))
        session.authenticator.register("patient", identifier)
        blood = Sample.from_concentrations({BLOOD_CELL: 600.0}, volume_ul=10.0, rng=seed)
        result = session.run_diagnostic(blood, identifier, duration_s=30.0, rng=seed)
        controller = session.device.controller
        decryptor = SignalDecryptor(plan=controller._plan, channel=controller.channel)
        assert result.relay.report.count > 50
        assert_matches_oracle(decryptor, result.relay.report)
