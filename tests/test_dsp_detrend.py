"""Detrending: the §VI-C piecewise second-order recipe."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.dsp.detrend import (
    DetrendConfig,
    _fit_baseline,
    _solve_rows,
    fit_baseline_rows,
    global_polynomial_detrend,
    piecewise_polynomial_detrend,
    residual_drift,
)
from repro.physics.peaks import PulseEvent, synthesize_pulse_train


def drifting_signal(n=45000, fs=450.0, seed=0):
    """Baseline with the paper's drift phenomena plus a few dips."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    baseline = 1.0 + 0.002 * t / t[-1] + 0.001 * np.sin(2 * np.pi * t / 40.0)
    events = [
        PulseEvent(center_s=c, width_s=0.02, amplitudes=np.array([0.01]))
        for c in np.linspace(5, t[-1] - 5, 12)
    ]
    dips = synthesize_pulse_train(events, 1, fs, n / fs)[0]
    return baseline * dips + rng.normal(0, 1e-4, n), events


class TestPiecewiseDetrend:
    def test_flat_signal_unchanged(self):
        signal = np.ones(9000)
        detrended = piecewise_polynomial_detrend(signal, 450.0)
        assert np.allclose(detrended, 1.0, atol=1e-9)

    def test_baseline_mean_is_one(self):
        # Paper: "The baseline of the detrended sub-sequences has a
        # mean value of one."
        signal, _ = drifting_signal()
        detrended = piecewise_polynomial_detrend(signal, 450.0)
        assert np.median(detrended) == pytest.approx(1.0, abs=2e-4)

    def test_removes_drift(self):
        signal, _ = drifting_signal()
        assert residual_drift(piecewise_polynomial_detrend(signal, 450.0), 450.0) < 2e-4

    def test_preserves_dip_depths(self):
        signal, events = drifting_signal()
        detrended = piecewise_polynomial_detrend(signal, 450.0)
        dips = 1.0 - detrended
        fs = 450.0
        for event in events:
            index = int(event.center_s * fs)
            window = dips[index - 5 : index + 6]
            assert window.max() == pytest.approx(0.01, rel=0.15)

    def test_robust_to_dense_peaks(self):
        # A compound dip must not drag the baseline down (the robust
        # refit exists for this).
        fs = 450.0
        events = [
            PulseEvent(center_s=1.0 + i * 0.022, width_s=0.01, amplitudes=np.array([0.014]))
            for i in range(17)
        ]
        signal = synthesize_pulse_train(events, 1, fs, 5.0)[0]
        detrended = piecewise_polynomial_detrend(signal, fs)
        # No phantom dips outside the true event window.
        outside = np.concatenate([1.0 - detrended[: int(0.8 * fs)], 1.0 - detrended[int(1.6 * fs) :]])
        assert outside.max() < 5e-4

    def test_short_signal_handled(self):
        signal = np.ones(10)
        assert piecewise_polynomial_detrend(signal, 450.0).shape == (10,)

    def test_empty_signal(self):
        assert piecewise_polynomial_detrend(np.array([]), 450.0).shape == (0,)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            piecewise_polynomial_detrend(np.ones((2, 100)), 450.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            DetrendConfig(window_s=-1.0)
        with pytest.raises(ValidationError):
            DetrendConfig(overlap_fraction=0.95)
        with pytest.raises(ValidationError):
            DetrendConfig(order=-1)


class TestGlobalDetrendAblation:
    """§VI-C: global low-order under-fits; piecewise wins."""

    def test_global_second_order_underfits_long_record(self):
        signal, _ = drifting_signal(n=90000)
        piecewise = residual_drift(piecewise_polynomial_detrend(signal, 450.0), 450.0)
        global2 = residual_drift(global_polynomial_detrend(signal, 2), 450.0)
        assert piecewise < global2

    @pytest.mark.filterwarnings("ignore:The fit may be poorly conditioned")
    def test_high_order_plain_global_deforms_peaks(self):
        # The paper's over-fitting concern applies to the plain
        # least-squares fit (robust=False); a dense cluster of dips
        # drags a high-order polynomial into the signal.
        fs = 450.0
        events = [
            PulseEvent(center_s=5.0 + i * 0.05, width_s=0.02, amplitudes=np.array([0.012]))
            for i in range(30)
        ]
        signal = synthesize_pulse_train(events, 1, fs, 50.0)[0]
        high = global_polynomial_detrend(signal, 40, robust=False)
        piecewise = piecewise_polynomial_detrend(signal, fs)

        def depth_error(detrended):
            dips = 1.0 - detrended
            errors = []
            for event in events:
                index = int(event.center_s * fs)
                errors.append(abs(dips[index - 5 : index + 6].max() - 0.012))
            return float(np.mean(errors))

        assert depth_error(piecewise) < depth_error(high)

    def test_global_invalid_inputs(self):
        with pytest.raises(ValidationError):
            global_polynomial_detrend(np.ones((2, 2)), 2)
        with pytest.raises(ValidationError):
            global_polynomial_detrend(np.ones(10), -1)


class TestResidualDrift:
    def test_zero_for_flat(self):
        assert residual_drift(np.ones(4500), 450.0) == 0.0

    def test_positive_for_drifting(self):
        t = np.linspace(0, 1, 4500)
        assert residual_drift(1.0 + 0.01 * t, 450.0) > 1e-3


class TestFitBaselineRows:
    """The shared per-row-independent kernel behind every detect path."""

    def test_agrees_with_legacy_polyfit_reference(self):
        # Same robust recipe through masked normal equations vs polyfit:
        # the two agree to floating-point reconstruction error.
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(30, 3000))
            segments = 1.0 + 0.01 * rng.standard_normal((3, n))
            segments[:, n // 2 : n // 2 + 5] -= 0.05
            kernel = fit_baseline_rows(segments, 2)
            legacy = np.vstack([_fit_baseline(segments[r], 2) for r in range(3)])
            np.testing.assert_allclose(kernel, legacy, rtol=1e-9, atol=1e-12)

    def test_rows_independent_of_batch_composition(self):
        # The bit-identity keystone: a row's baseline must not depend
        # on which other rows share the call (or how many).
        rng = np.random.default_rng(11)
        segments = 1.0 + 0.01 * rng.standard_normal((20, 500))
        segments[:, 100:110] -= 0.04
        full = fit_baseline_rows(segments, 2)
        for row in (0, 7, 19):
            alone = fit_baseline_rows(segments[row : row + 1], 2)
            assert alone[0].tobytes() == full[row].tobytes()
        halves = np.vstack(
            [fit_baseline_rows(segments[:11], 2), fit_baseline_rows(segments[11:], 2)]
        )
        assert halves.tobytes() == full.tobytes()

    def test_strided_input_matches_contiguous(self):
        rng = np.random.default_rng(3)
        wide = 1.0 + 0.01 * rng.standard_normal((4, 1000))
        view = wide[::2]  # non-contiguous rows
        assert not view.flags.c_contiguous
        assert (
            fit_baseline_rows(view, 2).tobytes()
            == fit_baseline_rows(np.ascontiguousarray(view), 2).tobytes()
        )

    def test_degenerate_shapes(self):
        assert fit_baseline_rows(np.empty((0, 10)), 2).shape == (0, 10)
        assert fit_baseline_rows(np.empty((3, 0)), 2).shape == (3, 0)
        short = fit_baseline_rows(np.full((2, 2), 5.0), 2)
        np.testing.assert_array_equal(short, np.full((2, 2), 5.0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_baseline_rows(np.ones(10), 2)
        with pytest.raises(ValidationError):
            fit_baseline_rows(np.ones((2, 10)), -1)

    def test_solve_rows_singular_fallback(self):
        # A singular system in the stack must not raise, and must not
        # change its batch-mates' answers (per-row independence).
        good = np.array([[2.0, 0.0], [0.0, 3.0]])
        singular = np.zeros((2, 2))
        rhs = np.array([[4.0, 9.0], [1.0, 1.0]])
        gram = np.stack([good, singular])
        out = _solve_rows(gram, rhs)
        alone = _solve_rows(good[np.newaxis], rhs[0][np.newaxis])
        assert out[0].tobytes() == alone[0].tobytes()
        assert np.isfinite(out[1]).all()  # lstsq fallback, not an exception

    def test_many_distinct_lengths_bound_the_grid_cache(self):
        from repro.dsp.detrend import _GRID_CACHE, _GRID_CACHE_MAX

        rng = np.random.default_rng(9)
        for n in range(10, 10 + _GRID_CACHE_MAX + 20):
            fit_baseline_rows(1.0 + 0.01 * rng.standard_normal((1, n)), 2)
        assert len(_GRID_CACHE) <= _GRID_CACHE_MAX
