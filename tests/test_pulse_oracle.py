"""Columnar pulse path vs the frozen per-event oracle, bit for bit.

``tests/_pulse_oracle.py`` keeps the per-event ``PulseEvent`` path as
it stood before pulse trains became columnar.  Every event column
(centre, width, amplitudes, electrode, particle) and every synthesized
trace must match it in ``tobytes()``: overlapping windows, windows
touching or past the trace edges, windows holding no sample, equal
centres (the stable order), one channel and five, keyed, plaintext and
per-cell encryption, and dead, weak and stuck-on faults.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encryptor import EncryptionPlan, SignalEncryptor
from repro.crypto.gains import GainTable
from repro.crypto.key import EpochKey, KeySchedule
from repro.crypto.keygen import EntropySource
from repro.crypto.percell import PerCellEncryptor, generate_percell_plan
from repro.hardware.electrodes import standard_array
from repro.hardware.faults import FaultModel
from repro.microfluidics.flow import FlowSpeedTable
from repro.microfluidics.transport import ParticleArrival
from repro.particles import BEAD_3P58, BEAD_7P8, BLOOD_CELL
from repro.particles.sample import Particle
from repro.physics.peaks import PulseTrain, synthesize_pulse_train

from tests import _pulse_oracle as oracle

CARRIER_SETS = ((500e3,), (500e3, 1000e3, 2000e3, 2500e3, 3000e3))
TYPES = (BLOOD_CELL, BEAD_7P8, BEAD_3P58)


def assert_train_matches(train: PulseTrain, events, n_channels: int) -> None:
    """Every column of ``train`` equals the oracle events' in bytes."""
    assert len(train) == len(events)
    expected = {
        "center_s": np.array([e.center_s for e in events], dtype=float),
        "width_s": np.array([e.width_s for e in events], dtype=float),
        "amplitudes": np.array(
            [e.amplitudes for e in events], dtype=float
        ).reshape(len(events), n_channels),
        "electrode_index": np.array([e.electrode_index for e in events], dtype=np.int64),
        "particle_index": np.array([e.particle_index for e in events], dtype=np.int64),
    }
    for name, want in expected.items():
        got = getattr(train, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def as_train(events, n_channels: int) -> PulseTrain:
    return PulseTrain(
        [e.center_s for e in events],
        [e.width_s for e in events],
        np.array([e.amplitudes for e in events]).reshape(len(events), n_channels),
        [e.electrode_index for e in events],
        [e.particle_index for e in events],
    )


# --- synthesis ---------------------------------------------------------
@st.composite
def synthesis_cases(draw):
    n_channels = draw(st.sampled_from([1, 5]))
    fs = draw(st.sampled_from([97.3, 450.0, 1800.0]))
    duration = draw(st.floats(0.05, 2.0))
    n_samples = int(round(duration * fs))
    # A small pool of centres makes equal and overlapping dips likely;
    # exact sample times, the two edges and points past them are in it.
    pool = draw(
        st.lists(
            st.one_of(
                st.floats(-0.3, duration + 0.3),
                st.integers(0, max(n_samples - 1, 0)).map(lambda i: i / fs),
                st.sampled_from([0.0, duration, -1e-9, (n_samples - 1) / fs]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    n_events = draw(st.integers(0, 24))
    centers = [draw(st.sampled_from(pool)) for _ in range(n_events)]
    # Widths from far below one sample period (windows with no sample)
    # to wider than the trace.
    widths = [
        draw(st.one_of(st.floats(1e-7, 1e-3), st.floats(1e-3, 0.1), st.floats(0.1, 3.0)))
        for _ in range(n_events)
    ]
    amplitudes = [
        [draw(st.one_of(st.just(0.0), st.floats(0.0, 0.05))) for _ in range(n_channels)]
        for _ in range(n_events)
    ]
    baseline = draw(st.sampled_from([1.0, 2.5]))
    return n_channels, fs, duration, centers, widths, amplitudes, baseline


class TestSynthesis:
    @settings(max_examples=max(200, settings().max_examples), deadline=None)
    @given(case=synthesis_cases())
    def test_trace_bit_identical(self, case):
        n_channels, fs, duration, centers, widths, amplitudes, baseline = case
        events = [
            oracle.PulseEvent(center_s=c, width_s=w, amplitudes=np.array(a))
            for c, w, a in zip(centers, widths, amplitudes)
        ]
        train = PulseTrain(centers, widths, np.array(amplitudes).reshape(-1, n_channels))
        want = oracle.synthesize_pulse_train(events, n_channels, fs, duration, baseline)
        got = synthesize_pulse_train(train, n_channels, fs, duration, baseline)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_blocks_keep_the_event_order(self, monkeypatch):
        # Many equal-centre dips across several blocks still subtract in
        # event order.
        import repro.physics.peaks as peaks

        monkeypatch.setattr(peaks, "_BLOCK_EVENTS", 3)
        rng = np.random.default_rng(3)
        centers = np.repeat(rng.uniform(0.0, 1.0, 4), 5)
        widths = rng.uniform(0.005, 0.2, centers.size)
        amplitudes = rng.uniform(0.0, 0.02, (centers.size, 2))
        events = [
            oracle.PulseEvent(center_s=c, width_s=w, amplitudes=a)
            for c, w, a in zip(centers, widths, amplitudes)
        ]
        want = oracle.synthesize_pulse_train(events, 2, 450.0, 1.0)
        got = synthesize_pulse_train(PulseTrain(centers, widths, amplitudes), 2, 450.0, 1.0)
        assert got.tobytes() == want.tobytes()


# --- event generation --------------------------------------------------
@st.composite
def keyed_cases(draw):
    array = standard_array(draw(st.sampled_from([5, 9])))
    carriers = draw(st.sampled_from(CARRIER_SETS))
    epoch_s = draw(st.sampled_from([0.5, 2.0, 10.0]))
    n_epochs = draw(st.integers(1, 4))
    table = FlowSpeedTable()
    epochs = tuple(
        EpochKey(
            frozenset(
                draw(st.sets(st.integers(1, array.n_outputs), min_size=1, max_size=array.n_outputs))
            ),
            tuple(draw(st.integers(0, 15)) for _ in range(array.n_outputs)),
            draw(st.integers(0, 15)),
        )
        for _ in range(n_epochs)
    )
    plan = EncryptionPlan(
        KeySchedule(epoch_duration_s=epoch_s, epochs=epochs), array, GainTable(), table
    )
    arrivals = draw(arrival_lists(epoch_s * n_epochs))
    return carriers, plan, arrivals


@st.composite
def arrival_lists(draw, horizon_s):
    # Pooled times and velocities make equal centres (ties) likely.
    times = draw(st.lists(st.floats(0.0, horizon_s * 0.999), min_size=1, max_size=4))
    velocities = draw(st.lists(st.floats(5e-4, 6e-3), min_size=1, max_size=3))
    arrivals = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(TYPES))
        diameter = kind.diameter_m * draw(st.floats(0.8, 1.2))
        arrivals.append(
            ParticleArrival(
                draw(st.sampled_from(times)),
                Particle(kind, diameter),
                draw(st.sampled_from(velocities)),
            )
        )
    return arrivals


@st.composite
def fault_models(draw, n_outputs):
    electrodes = st.sets(st.integers(1, n_outputs), max_size=3)
    dead = draw(electrodes)
    stuck = draw(electrodes) - dead
    return FaultModel(
        dead_electrodes=dead,
        weak_electrodes=draw(electrodes),
        stuck_on_electrodes=stuck,
        weak_attenuation=draw(st.floats(0.0, 1.0)),
    )


class TestEventGeneration:
    @settings(max_examples=max(100, settings().max_examples), deadline=None)
    @given(case=keyed_cases())
    def test_keyed_and_plaintext_columns_bit_identical(self, case):
        carriers, plan, arrivals = case
        encryptor = SignalEncryptor(carrier_frequencies_hz=carriers)
        assert_train_matches(
            encryptor.events_for_arrivals(arrivals, plan),
            oracle.events_for_arrivals(encryptor, arrivals, plan),
            len(carriers),
        )
        assert_train_matches(
            encryptor.plaintext_events(arrivals, plan.array),
            oracle.plaintext_events(encryptor, arrivals, plan.array),
            len(carriers),
        )

    @settings(max_examples=max(100, settings().max_examples), deadline=None)
    @given(case=keyed_cases(), data=st.data())
    def test_faulted_columns_and_trace_bit_identical(self, case, data):
        carriers, plan, arrivals = case
        model = data.draw(fault_models(plan.array.n_outputs))
        encryptor = SignalEncryptor(carrier_frequencies_hz=carriers)
        want = oracle.apply_to_events(
            model,
            oracle.events_for_arrivals(encryptor, arrivals, plan),
            plan.array,
            arrivals=arrivals,
            carriers=carriers,
        )
        got = model.apply_to_events(
            encryptor.events_for_arrivals(arrivals, plan),
            plan.array,
            arrivals=arrivals,
            carriers=carriers,
        )
        assert_train_matches(got, want, len(carriers))
        duration = plan.schedule.duration_s + 0.5
        assert (
            synthesize_pulse_train(got, len(carriers), 450.0, duration).tobytes()
            == oracle.synthesize_pulse_train(want, len(carriers), 450.0, duration).tobytes()
        )

    @settings(max_examples=max(60, settings().max_examples), deadline=None)
    @given(
        carriers=st.sampled_from(CARRIER_SETS),
        n_outputs=st.sampled_from([5, 9]),
        seed=st.integers(0, 2**16),
        arrivals=arrival_lists(20.0),
    )
    def test_percell_columns_bit_identical(self, carriers, n_outputs, seed, arrivals):
        array = standard_array(n_outputs)
        plan = generate_percell_plan(max(len(arrivals), 1), array, EntropySource(rng=seed))
        encryptor = PerCellEncryptor(carrier_frequencies_hz=carriers)
        assert_train_matches(
            encryptor.events_for_arrivals(arrivals, plan),
            oracle.percell_events_for_arrivals(encryptor, arrivals, plan),
            len(carriers),
        )

    @pytest.mark.parametrize("n_channels", [1, 5])
    def test_unsorted_input_train_is_resorted_like_the_oracle(self, n_channels):
        # ``apply_to_events`` sorts whatever it is given, stably.
        rng = np.random.default_rng(n_channels)
        events = [
            oracle.PulseEvent(
                center_s=float(c), width_s=0.01, amplitudes=rng.uniform(0, 0.01, n_channels),
                electrode_index=int(e), particle_index=i,
            )
            for i, (c, e) in enumerate(zip(rng.choice([1.0, 2.0, 3.0], 12), rng.integers(1, 10, 12)))
        ]
        model = FaultModel(dead_electrodes={2}, weak_electrodes={3, 4})
        array = standard_array(9)
        assert_train_matches(
            model.apply_to_events(as_train(events, n_channels), array),
            oracle.apply_to_events(model, events, array),
            n_channels,
        )
