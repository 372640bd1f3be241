"""Differential tests: the block-vectorised relay CSV encoder against the
row-at-a-time ``%`` oracle in ``tests/_csv_oracle.py``.

:meth:`CsvRecordingModel.encode` must produce the oracle's bytes on
every input: rounding-carry boundaries, cells near a ``.5`` tie, signed
zeros, subnormals, magnitudes past the fast path, non-finite cells,
block edges, non-default precisions, timestamps that land on ties, and
every real capture behind the session golden digests.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.recording import BLOCK_ROWS, FAST_PATH_LIMIT, CsvRecordingModel
from repro.guard.fuzz import default_targets

from tests._csv_oracle import explain_mismatch, oracle_encode
from tests.test_session_golden import GOLDEN, recorded_arrivals  # noqa: F401 (fixture)

MODEL = CsvRecordingModel()


def assert_identical(trace, rate=450.0, model=MODEL):
    expected = oracle_encode(model, trace, rate)
    got = model.encode(trace, rate)
    assert got == expected, explain_mismatch(expected, got)


def nudge(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` representable doubles up (or down)."""
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, np.inf if ulps > 0 else -np.inf))
    return value


def neighbours(value: float):
    """``value``, ``-value`` and each one's neighbours up to 2 ulps away."""
    return [sign * nudge(value, ulps) for sign in (1.0, -1.0) for ulps in range(-2, 3)]


def column(values):
    """One channel, one row per value."""
    return np.asarray(values, dtype=float)[np.newaxis]


class TestExplicitCells:
    @pytest.mark.parametrize(
        "boundary", [9.9999995, 99.9999995, 0.0000005, 0.9999995, 999.9999995]
    )
    def test_rounding_carry_boundaries(self, boundary):
        assert_identical(column(neighbours(boundary)))

    def test_cells_near_a_tie(self):
        # 2.5e-6 is the double just above 0.0000025, so % rounds it up,
        # but its scaled product is exactly 2.5 and rint rounds to even:
        # only the fallback gets this cell right.
        assert "%.6f" % 2.5e-6 == "0.000003" and np.rint(2.5e-6 * 1e6) == 2.0
        values = []
        for integer in (0, 1, 2, 123456, 2147483000):
            for delta in (0.0, 1e-7, 5e-7, 9.9e-7, 1.1e-6, 1e-5, 0.25):
                for sign in (1.0, -1.0):
                    values.append(sign * (integer + 0.5 + delta) / 1e6)
                    values.append(sign * (integer + 0.5 - delta) / 1e6)
        values.append(2.5e-6)
        assert_identical(column(values))

    def test_signed_zeros_and_tiny_negatives(self):
        values = [-0.0, 0.0, -1e-9, -4.9e-7, -5e-7, -5.0000001e-7, -1e-300, -5e-324]
        assert_identical(column(values))
        assert MODEL.encode(column([-0.0, -1e-9]), 450.0) == (
            b"0.0000,-0.000000\n0.0022,-0.000000\n"
        )

    def test_extremes_and_non_finite(self):
        limit = FAST_PATH_LIMIT / 1e6
        values = [5e-324, 1e-310, 1e300, -1e300, 1.7976931348623157e308]
        values += neighbours(limit) + neighbours(np.nextafter(limit, 0.0))
        values += [np.nan, np.inf, -np.inf, 2147.483647, 2147.4836475, 4294.967296]
        assert_identical(column(values))

    def test_non_finite_cells_emit_no_runtime_warning(self):
        trace = column([np.inf, -np.inf, np.nan, 1e300, -1e300, 1.7976931348623157e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = MODEL.encode(trace, 450.0)
        assert got == oracle_encode(MODEL, trace, 450.0)

    def test_one_channel_and_no_channels(self):
        rng = np.random.default_rng(1)
        assert_identical(rng.normal(0.0, 3.0, (1, 300)))
        assert_identical(np.empty((0, 5)))


class TestBlocks:
    @pytest.mark.parametrize(
        "n_samples",
        [0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3],
    )
    def test_sample_counts(self, n_samples):
        rng = np.random.default_rng(n_samples)
        trace = rng.normal(0.0, 0.05, (3, n_samples)) + 0.9
        assert_identical(trace)

    def test_fallback_rows_at_block_edges(self):
        rng = np.random.default_rng(7)
        n_samples = 2 * BLOCK_ROWS + 5
        trace = rng.normal(0.0, 0.05, (4, n_samples))
        for row in (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, n_samples - 1):
            trace[row % 4, row] = (row + 0.5) / 1e6
        trace[2, 100:110] = np.nan
        trace[:, 5000] = np.inf
        assert_identical(trace)

    def test_every_row_falls_back(self):
        assert_identical(np.full((2, 40), 2.5e-6))


class TestPrecisionAndRates:
    @pytest.mark.parametrize(
        "decimals,timestamp_decimals",
        [(1, 1), (2, 3), (3, 2), (9, 6), (12, 1), (17, 12), (25, 4), (320, 2)],
    )
    def test_non_default_decimals(self, decimals, timestamp_decimals):
        model = CsvRecordingModel(decimals=decimals, timestamp_decimals=timestamp_decimals)
        rng = np.random.default_rng(decimals)
        trace = rng.normal(0.0, 2.0, (3, 64))
        trace[0, :8] = [0.25, 0.35, -0.05, 9.95, 1e-15, 1.5e-17, 4e-22, -0.0]
        assert_identical(trace, rate=450.0, model=model)
        assert_identical(trace, rate=20000.0, model=model)

    def test_inexact_power_of_ten(self):
        # 10^25 is not a double, so |x|·10^25 is rounded twice and can
        # land on the wrong side of a tie.  These cells (found by search)
        # fool a bare rint: the first three lie past FAST_PATH_LIMIT, the
        # last three within TIE_WINDOW of a tie but not within 1e-9.
        model = CsvRecordingModel(decimals=25)
        past_limit = [8.744679256535925e-11, 9.970074316393395e-11, 9.074760761749845e-11]
        near_tie = [9.596082315e-17, 5.236898725e-17, 9.486926635e-17]
        for x in past_limit + near_tie:
            assert np.rint(x * 1e25) != int(("%.25f" % x).replace(".", ""))
        assert_identical(column(past_limit + near_tie), model=model)

    @pytest.mark.parametrize(
        "rate", [450, 450.0, 20000.0, 2000.0, 60000.0, 3.0, 7.0, 1 / 3, 0.1, 1e-300, 1e300]
    )
    def test_rates_with_timestamps_near_ties(self, rate):
        # 20 kHz puts every odd row's timestamp on a .5 tie at 4 decimals.
        assert_identical(np.linspace(-1.0, 1.0, 2 * 300).reshape(2, 300), rate=rate)


def tie_cells(decimals: int):
    """Cells within a few 1e-6 of a ``.5`` tie at ``decimals``."""
    return st.builds(
        lambda integer, delta, sign: sign * (integer + 0.5 + delta) / 10**decimals,
        st.integers(0, 2**31),
        st.floats(-3e-6, 3e-6),
        st.sampled_from([1.0, -1.0]),
    )


def carry_cells(decimals: int):
    """Cells a few ulps from a rounding carry such as ``9.9999995``."""
    return st.builds(
        lambda exponent, ulps, sign: sign
        * nudge(10.0**exponent - 0.5 / 10**decimals, ulps),
        st.integers(-3, 4),
        st.integers(-2, 2),
        st.sampled_from([1.0, -1.0]),
    )


@st.composite
def traces(draw):
    # Past 22 decimals 10^d is not a double (see test_inexact_power_of_ten).
    decimals = draw(st.integers(1, 26))
    timestamp_decimals = draw(st.integers(1, 6))
    n_channels = draw(st.integers(1, 5))
    n_samples = draw(st.integers(0, 12))
    cell = st.one_of(
        st.floats(-3000.0, 3000.0),
        st.floats(allow_nan=True, allow_infinity=True),
        tie_cells(decimals),
        carry_cells(decimals),
        st.sampled_from([0.0, -0.0, 5e-324, -1e-9, FAST_PATH_LIMIT / 10**decimals]),
    )
    n_cells = n_channels * n_samples
    values = draw(st.lists(cell, min_size=n_cells, max_size=n_cells))
    rate = draw(
        st.one_of(
            st.floats(1e-3, 1e6),
            # 2·10^d / odd: timestamps land exactly on .5 ties.
            st.builds(
                lambda odd: 2 * 10**timestamp_decimals / odd,
                st.integers(0, 50).map(lambda k: 2 * k + 1),
            ),
        )
    )
    model = CsvRecordingModel(decimals=decimals, timestamp_decimals=timestamp_decimals)
    return model, np.array(values, dtype=float).reshape(n_channels, n_samples), rate


# The ``ci`` profile (tests/conftest.py) raises the example count.
@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(case=traces())
def test_encode_matches_oracle(case):
    model, trace, rate = case
    assert_identical(trace, rate=rate, model=model)


# ---------------------------------------------------------------------------
# Real captures
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scenario,run,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_real_captures_match_oracle(scenario, run, digest, recorded_arrivals, monkeypatch):
    """Every capture the session golden scenarios relay encodes to the
    oracle's bytes, and the scenario's pinned digest is unchanged."""
    encoded = []
    original = CsvRecordingModel.encode

    def checked(self, trace, sampling_rate_hz):
        payload = original(self, trace, sampling_rate_hz)
        expected = oracle_encode(self, trace, sampling_rate_hz)
        assert payload == expected, f"{scenario}: {explain_mismatch(expected, payload)}"
        encoded.append(len(payload))
        return payload

    monkeypatch.setattr(CsvRecordingModel, "encode", checked)
    assert run(recorded_arrivals, monkeypatch) == digest
    assert encoded


def test_fuzz_seed_matches_oracle():
    target = next(t for t in default_targets() if t.name == "csv_trace_decode")
    trace = np.linspace(0.0, 1.0, 64).reshape(2, 32)
    assert target.seeds == (oracle_encode(CsvRecordingModel(), trace, 450.0),)
