"""Differential oracle: the robust-baseline kernel against its frozen form.

``repro.dsp.detrend.fit_baseline_rows`` is shared by every detect path
(fused one-shot, windowed stream, staged oracle), so the fused-vs-staged
differential cannot see it drift: both sides would drift together.  This
suite pins the kernel itself against the plain formulation frozen in
``tests/_fit_oracle.py`` and asserts ``tobytes()`` equality of the
baselines: real detect windows recorded from captures, hypothesis-drawn
shapes from one row to past the row tile and from ``order + 1`` to
~5000 samples, and rows that converge at iteration 0, 1 or never, stay
constant, hold ±inf or NaN, overflow, or leave too few samples kept.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dsp.detrend as detrend
from repro.core.device import MedSenDevice
from repro.dsp import PeakDetector, WindowedPeakDetector
from repro.dsp.detrend import _ROW_BLOCK, _median, fit_baseline_rows
from repro.particles import BEAD_3P58, BEAD_7P8, BLOOD_CELL
from repro.particles.sample import Sample

from tests._fit_oracle import fit_baseline_rows as frozen_fit_baseline_rows

#: Samples per chunk of the streamed capture (the gateway's default).
CHUNK = 2048

ROW_KINDS = (
    "drift",
    "single_dip",
    "zeros",
    "constant",
    "quantised",
    "nonfinite",
    "huge",
    "outliers",
)


def assert_identical(segments, order, n_iterations=3):
    # Non-finite rows raise floating-point warnings in both kernels.
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = fit_baseline_rows(segments, order, n_iterations)
        want = frozen_fit_baseline_rows(segments, order, n_iterations)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (
        f"baselines differ: shape {segments.shape}, order {order}, "
        f"n_iterations {n_iterations}"
    )


def make_row(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One synthetic row of the named kind."""
    x = np.linspace(-1.0, 1.0, n)
    drift = 1.0 + rng.normal(0.0, 0.05) * x + rng.normal(0.0, 0.05) * x * x
    if kind == "drift":
        row = drift + rng.normal(0.0, 1e-3, n)
        dips = rng.random(n) < rng.uniform(0.0, 0.1)
        row[dips] -= rng.uniform(0.005, 0.2, int(dips.sum()))
        return row
    if kind == "single_dip":
        row = drift.copy()
        centre = int(rng.integers(0, n))
        row[centre : centre + max(n // 50, 1)] -= 0.1
        return row
    if kind == "zeros":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, rng.choice([1.0, -3.5, 1e-300, 7e10]))
    if kind == "quantised":
        # Few distinct levels: median ties and masks that stop moving.
        row = np.round(drift + rng.normal(0.0, 0.02, n), 1)
        row[rng.random(n) < 0.05] -= 0.5
        return row
    if kind == "nonfinite":
        row = drift + rng.normal(0.0, 1e-3, n)
        cells = rng.integers(0, n, int(rng.integers(1, 4)))
        row[cells] = rng.choice([np.nan, np.inf, -np.inf], cells.shape[0])
        return row
    if kind == "huge":
        # Magnitudes whose moments, residuals or robust scale overflow.
        row = drift + rng.normal(0.0, 0.5, n)
        with np.errstate(over="ignore"):
            row *= 10.0 ** rng.integers(290, 309)
        return np.where(rng.random(n) < 0.5, row, -row)
    if kind == "outliers":
        # Most samples far below: the refit keeps too few samples.
        row = drift.copy()
        row[rng.random(n) < 0.9] -= 50.0
        return row
    raise AssertionError(kind)


@st.composite
def synthetic_batches(draw):
    order = draw(st.integers(min_value=0, max_value=3))
    rows = draw(st.integers(min_value=1, max_value=20))
    n = draw(
        st.one_of(
            st.integers(min_value=order + 1, max_value=order + 8),
            st.integers(min_value=order + 1, max_value=600),
            st.integers(min_value=600, max_value=5000),
        )
    )
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=rows, max_size=rows))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_iterations = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(seed)
    segments = np.vstack([make_row(kind, n, rng) for kind in kinds])
    return segments, order, n_iterations


@pytest.fixture(scope="module")
def real_windows():
    """Every window the detect paths fit on two real encrypted captures.

    One capture runs through one-shot detection (the session and fleet
    path), the other is fed to the windowed detector in gateway-sized
    chunks (the stream path); each ``fit_baseline_rows`` argument is
    recorded as the path passed it.
    """
    recorded = []
    kernel = detrend.fit_baseline_rows

    def recording(segments, order, n_iterations=3):
        recorded.append(np.array(segments, dtype=float))
        return kernel(segments, order, n_iterations)

    captures = []
    for seed in (3, 8):
        sample = Sample.from_concentrations(
            {BLOOD_CELL: 1500.0, BEAD_3P58: 150.0, BEAD_7P8: 100.0},
            volume_ul=5.0,
            rng=seed,
        )
        captures.append(
            MedSenDevice(rng=seed).run_capture(sample, 30.0, encrypt=True, rng=seed).trace
        )
    detrend.fit_baseline_rows = recording
    try:
        session, stream = captures
        PeakDetector().detect(session.voltages, session.sampling_rate_hz)
        windowed = WindowedPeakDetector(stream.n_channels, stream.sampling_rate_hz)
        for lo in range(0, stream.n_samples, CHUNK):
            windowed.feed(stream.voltages[:, lo : lo + CHUNK])
        windowed.finish()
    finally:
        detrend.fit_baseline_rows = kernel
    return recorded


class TestRealWindows:
    def test_recorded_detect_windows(self, real_windows):
        assert len(real_windows) >= 10
        assert any(window.shape[1] == 4500 for window in real_windows)
        for window in real_windows:
            assert_identical(window, 2)

    @settings(max_examples=max(40, settings().max_examples), deadline=None)
    @given(data=st.data())
    def test_row_and_column_slices(self, real_windows, data):
        # Rows restacked from several windows (1 to 20, across the row
        # tile) and column ranges that make the kept count odd or even.
        width = min(window.shape[1] for window in real_windows)
        order = data.draw(st.integers(min_value=0, max_value=3), label="order")
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(real_windows) - 1),
                    st.integers(min_value=0, max_value=real_windows[0].shape[0] - 1),
                ),
                min_size=1,
                max_size=20,
            ),
            label="rows",
        )
        lo = data.draw(st.integers(min_value=0, max_value=width - order - 1), label="lo")
        hi = data.draw(st.integers(min_value=lo + order + 1, max_value=width), label="hi")
        n_iterations = data.draw(st.integers(min_value=1, max_value=4), label="iterations")
        segments = np.vstack([real_windows[w][r, lo:hi] for w, r in rows])
        assert_identical(segments, order, n_iterations)


class TestSyntheticRows:
    @settings(max_examples=max(80, settings().max_examples), deadline=None)
    @given(batch=synthetic_batches())
    def test_byte_identical(self, batch):
        segments, order, n_iterations = batch
        assert_identical(segments, order, n_iterations)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_every_kind_across_the_row_tile(self, order):
        rng = np.random.default_rng(order)
        for n in (order + 1, order + 2, 97, 4500, 4501):
            segments = np.vstack(
                [make_row(kind, n, rng) for kind in ROW_KINDS * 2 + ("drift",)]
            )
            assert segments.shape[0] > _ROW_BLOCK
            for n_iterations in (1, 3):
                assert_identical(segments, order, n_iterations)


class TestConvergence:
    def fit_count(self, monkeypatch, row, n_iterations=3):
        """Fits the kernel solves for one row: iterations it runs."""
        calls = []
        solve = detrend._solve_rows

        def counting(gram, rhs):
            calls.append(gram.shape[0])
            return solve(gram, rhs)

        monkeypatch.setattr(detrend, "_solve_rows", counting)
        with np.errstate(all="ignore"):
            fit_baseline_rows(row[np.newaxis, :], 2, n_iterations)
        monkeypatch.undo()
        return len(calls)

    def test_rows_stop_at_iteration_zero_one_and_never(self, monkeypatch):
        rng = np.random.default_rng(21)
        n = 4500
        x = np.linspace(-1.0, 1.0, n)
        flat_dip = 1.0 + 0.01 * x
        flat_dip[2000:2040] -= 0.1
        cases = {
            # No sample below the fit.
            "zeros": (np.zeros(n), 1),
            "nan": (np.where(x > 0.5, np.nan, 1.0), 1),
            # Too few samples would be kept.
            "outliers": (np.where(np.arange(n) % 100 == 0, 1.0, -50.0), 1),
            # The dip is dropped once, then the mask stops moving.
            "single_dip": (flat_dip, 2),
            # Noisy rows keep moving their mask until the last fit.
            "never": (make_row("drift", n, rng), 3),
        }
        for name, (row, fits) in cases.items():
            assert self.fit_count(monkeypatch, row) == fits, name
            for n_iterations in (1, 2, 3, 5):
                assert_identical(row[np.newaxis, :], 2, n_iterations)
        batch = np.vstack([row for row, _ in cases.values()])
        assert_identical(batch, 2)

    def test_singular_systems_take_the_row_fallback(self, monkeypatch):
        # The stacked solve raising (a singular system in the stack)
        # sends every row through the per-row fallback, and rows whose
        # own solve raises through lstsq: the same systems reach it in
        # both kernels.
        solve = np.linalg.solve

        def singular(gram, rhs):
            if gram.ndim == 3 or int(gram[0, 0]) % 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(gram, rhs)

        monkeypatch.setattr(np.linalg, "solve", singular)
        rng = np.random.default_rng(4)
        segments = np.vstack([make_row("drift", 801, rng) for _ in range(6)])
        for order in (0, 2):
            assert_identical(segments, order)


class TestMedian:
    @settings(max_examples=max(200, settings().max_examples), deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, 1.0, 2.5]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_equals_numpy_median(self, values):
        array = np.abs(np.asarray(values, dtype=float))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = np.median(array)
        got = _median(array.copy())
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_nan_anywhere_gives_nan(self):
        for size in (1, 2, 5, 6):
            for where in range(size):
                values = np.arange(size, dtype=float)
                values[where] = np.nan
                assert np.isnan(_median(values))

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 4499, 4500])
    def test_window_sized_rows_with_ties(self, size):
        rng = np.random.default_rng(size)
        for scale in (0.02, 1.0, 1e300):
            array = np.abs(np.round(rng.normal(0.0, 1.0, size), 1)) * scale
            want = np.median(array)
            got = _median(array.copy())
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_even_counts_take_the_largest_value_below_the_middle(self):
        # After a partition at the upper middle index, the lower middle
        # value is the largest element before it; the element at the
        # index just before it differs on ~1% of arrays this size.
        rng = np.random.default_rng(17)
        for _ in range(600):
            array = rng.random(2 * int(rng.integers(150, 2500)))
            want = np.median(array)
            got = _median(array.copy())
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
