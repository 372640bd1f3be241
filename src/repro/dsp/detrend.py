"""Baseline detrending (paper §VI-C).

The acquired signal drifts slowly (fluid concentration, temperature).
The paper's recipe, reproduced exactly:

1. Partition the sequence into overlapping sub-sequences.
2. Fit a **second-order polynomial** to each sub-sequence.
3. Divide the sub-sequence by the fit ("detrended and normalized by
   dividing the subsection of data by the fitted polynomial").
4. Blend the overlapping detrended sections back together; the result
   has a baseline with mean value one, and peak detection thresholds
   ``1 - detrended``.

The paper justifies second order empirically: a *global* second-order
fit under-fits long records, high global orders over-fit and deform
peaks.  :func:`global_polynomial_detrend` implements the global variant
so that comparison can be reproduced; the ablation itself lives in
``tests/test_dsp_detrend.py`` (``TestGlobalDetrendAblation``).
"""

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro._util.errors import ValidationError
from repro._util.validation import check_in_range, check_positive


@dataclass(frozen=True)
class DetrendConfig:
    """Parameters of the piecewise polynomial detrend.

    Parameters
    ----------
    window_s:
        Sub-sequence length in seconds.
    overlap_fraction:
        Fractional overlap between consecutive windows (0 = disjoint).
    order:
        Polynomial order (paper: 2).
    """

    window_s: float = 10.0
    overlap_fraction: float = 0.5
    order: int = 2

    def __post_init__(self) -> None:
        check_positive("window_s", self.window_s)
        check_in_range("overlap_fraction", self.overlap_fraction, 0.0, 0.9)
        if self.order < 0:
            raise ValidationError(f"order must be >= 0, got {self.order}")


def _fit_baseline(window: np.ndarray, order: int, n_iterations: int = 3) -> np.ndarray:
    """Robust polynomial baseline of one window (scalar reference).

    Peaks are dips *below* the baseline; a plain least-squares fit is
    dragged down by them (and its edges curl up/down in compensation,
    producing phantom peaks).  We therefore iterate: fit, then exclude
    samples sitting far below the fit, and refit on the remainder, so
    the polynomial tracks the drifting baseline rather than the signal.

    This is the legacy per-row polyfit formulation, retained as the
    numerical reference for :func:`fit_baseline_rows` (which agrees to
    ~1e-12 relative at the paper's order 2) and as the engine of the
    ablation in :func:`global_polynomial_detrend`.  The ablation needs
    the scalar fit: at its order 40 the normal equations of
    :func:`fit_baseline_rows` are ill-conditioned, and on the ablation's
    50 s trace the two plain fits differ by up to ~3e-3 relative.
    Detection — one-shot (fused), windowed streaming, and the
    staged test oracle — runs on :func:`fit_baseline_rows`.
    """
    n = window.shape[0]
    if n <= order:
        return np.full(n, float(np.mean(window)) if n else 1.0)
    x = np.linspace(-1.0, 1.0, n)
    keep = np.ones(n, dtype=bool)
    baseline = np.empty(n)
    for _ in range(max(n_iterations, 1)):
        coefficients = np.polynomial.polynomial.polyfit(x[keep], window[keep], order)
        baseline = np.polynomial.polynomial.polyval(x, coefficients)
        residual = window - baseline
        negative = residual[residual < 0]
        if negative.size == 0:
            break
        # Robust scale from the median absolute residual of the kept set.
        scale = 1.4826 * np.median(np.abs(residual[keep])) + 1e-15
        new_keep = residual > -2.5 * scale
        # Never discard so much that the fit becomes degenerate.
        if new_keep.sum() <= order + 1 or np.array_equal(new_keep, keep):
            break
        keep = new_keep
    return baseline


# Per-(length, order) fit grid: the x axis, its powers up to 2*order
# (built by repeated multiplication, never ``**``), and the full-mask
# moments.  Every call shares them, so they are read-only.  Bounded so
# hypothesis-style workloads with many distinct window lengths cannot
# grow it without limit.
_GRID_CACHE: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_GRID_CACHE_MAX = 128

#: Rows per kernel tile.  The masked reductions allocate (rows, n)
#: temporaries; tiling keeps them cache-resident for many-row inputs.
#: Tiling is invisible to the output: each row's arithmetic is
#: independent of the other rows, so any row partition produces
#: bitwise-identical baselines.
_ROW_BLOCK = 8


def _fit_grid(n: int, order: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    key = (n, order)
    cached = _GRID_CACHE.get(key)
    if cached is None:
        x = np.linspace(-1.0, 1.0, n)
        powers = np.empty((2 * order + 1, n))
        powers[0] = 1.0
        for p in range(1, 2 * order + 1):
            np.multiply(powers[p - 1], x, out=powers[p])
        full_moments = powers.sum(axis=1)
        for shared in (x, powers, full_moments):
            shared.setflags(write=False)
        if len(_GRID_CACHE) >= _GRID_CACHE_MAX:
            _GRID_CACHE.pop(next(iter(_GRID_CACHE)))
        cached = (x, powers, full_moments)
        _GRID_CACHE[key] = cached
    return cached


#: Per-length cache of the triangular blend taper, shared by the
#: one-shot, fused and streaming detrends.  Entries are read-only.
_TAPER_CACHE: Dict[int, np.ndarray] = {}
_TAPER_CACHE_MAX = 128


def blend_taper(length: int) -> np.ndarray:
    """Triangular weights ``min(i + 1, length - i)`` blending one window."""
    taper = _TAPER_CACHE.get(length)
    if taper is None:
        taper = np.minimum(
            np.arange(1, length + 1), np.arange(length, 0, -1)
        ).astype(float)
        taper.setflags(write=False)
        if len(_TAPER_CACHE) >= _TAPER_CACHE_MAX:
            _TAPER_CACHE.pop(next(iter(_TAPER_CACHE)))
        _TAPER_CACHE[length] = taper
    return taper


def fit_baseline_rows(
    segments: np.ndarray, order: int, n_iterations: int = 3
) -> np.ndarray:
    """Robust polynomial baselines of every row of ``(rows, n)`` at once.

    Same recipe as :func:`_fit_baseline` — iterate fit / discard
    far-below-fit samples / refit — but solved through masked normal
    equations so one call fits the whole matrix: the Gram moments and
    right-hand sides are full-length masked reductions, the per-row
    ``(order+1)``-square systems are solved as one stacked
    :func:`numpy.linalg.solve`, and the polynomial is evaluated with an
    in-place Horner pass.

    The arithmetic of each row is **independent of which other rows
    share the call**: the input is copied to a canonical contiguous
    layout, every reduction runs over that row's full length (masked
    samples contribute exact zeros), and the stacked solve factorises
    each small system separately.  That per-row independence is what
    lets the fused one-shot path, the windowed-streaming path and the
    staged test oracle share this kernel while staying bit-identical to
    each other.

    Work that is exact to skip is skipped: iteration 0 has unit weights
    (``1.0 * v == v``), so it multiplies by neither the weights nor the
    all-ones power, and the robust scale comes from :func:`_median`
    rather than :func:`numpy.median`.  The baselines are byte-identical
    to the plain formulation kept in ``tests/_fit_oracle.py``.
    """
    segments = np.ascontiguousarray(np.asarray(segments, dtype=float))
    if segments.ndim != 2:
        raise ValidationError(f"segments must be 2-D (rows, n), got {segments.shape}")
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    rows, n = segments.shape
    if n == 0 or rows == 0:
        return np.empty((rows, n))
    if n <= order:
        return np.repeat(segments.mean(axis=1)[:, np.newaxis], n, axis=1)
    if rows > _ROW_BLOCK:
        baseline = np.empty((rows, n))
        for lo in range(0, rows, _ROW_BLOCK):
            baseline[lo : lo + _ROW_BLOCK] = fit_baseline_rows(
                segments[lo : lo + _ROW_BLOCK], order, n_iterations
            )
        return baseline
    x, powers, full_moments = _fit_grid(n, order)
    d = order + 1
    hankel = np.add.outer(np.arange(d), np.arange(d))
    baseline = np.empty((rows, n))
    # Two (rows, n) scratch buffers; an iteration uses their first
    # ``n_active`` rows, which stay C-contiguous.
    product_buffer = np.empty((rows, n))
    weight_buffer = np.empty((rows, n))
    # Rows still iterating; converged rows keep their last baseline.
    active = np.arange(rows)
    seg_active = segments
    keep_active = None  # every sample is kept at iteration 0
    last = max(n_iterations, 1) - 1
    for iteration in range(last + 1):
        n_active = active.shape[0]
        product = product_buffer[:n_active]
        if iteration == 0:
            # Unit weights: the moments are the cached full-mask ones
            # and the weighted segments are the segments themselves.
            moments = np.repeat(full_moments[np.newaxis, :], n_active, axis=0)
            weighted = seg_active
        else:
            weights = weight_buffer[:n_active]
            np.copyto(weights, keep_active)
            moments = np.empty((n_active, 2 * order + 1))
            moments[:, 0] = weights.sum(axis=1)
            for p in range(1, 2 * order + 1):
                moments[:, p] = np.multiply(weights, powers[p], out=product).sum(axis=1)
            weighted = np.multiply(weights, seg_active, out=weights)
        rhs = np.empty((n_active, d))
        rhs[:, 0] = weighted.sum(axis=1)
        for j in range(1, d):
            rhs[:, j] = np.multiply(weighted, powers[j], out=product).sum(axis=1)
        coefficients = _solve_rows(moments[:, hankel], rhs)
        fitted = baseline if n_active == rows else np.empty((n_active, n))
        _horner(coefficients, x, fitted)
        if fitted is not baseline:
            baseline[active] = fitted
        if iteration == last:
            break
        residual = np.subtract(seg_active, fitted, out=product)
        converged = ~(residual < 0).any(axis=1)
        magnitude = np.abs(residual, out=weight_buffer[:n_active])
        still = []
        new_keep = []
        for row in range(n_active):
            if converged[row]:
                continue
            kept = magnitude[row] if iteration == 0 else magnitude[row][keep_active[row]]
            scale = 1.4826 * _median(kept) + 1e-15
            refit = residual[row] > -2.5 * scale
            count = np.count_nonzero(refit)
            # Never discard so much that the fit becomes degenerate.
            if count <= order + 1:
                continue
            # Unchanged mask: at iteration 0 every sample was kept.
            if count == kept.shape[0] and (
                iteration == 0 or np.array_equal(refit, keep_active[row])
            ):
                continue
            still.append(row)
            new_keep.append(refit)
        if not still:
            break
        active = active[still]
        seg_active = seg_active[still]
        keep_active = np.array(new_keep)
    return baseline


def _horner(coefficients: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """Evaluate each row's polynomial over ``x`` into ``out``, in place."""
    d = coefficients.shape[1]
    if d == 1:
        out[...] = coefficients
        return
    np.multiply(x, coefficients[:, -1:], out=out)
    out += coefficients[:, -2:-1]
    for j in range(d - 3, -1, -1):
        out *= x
        out += coefficients[:, j : j + 1]


def _median(values: np.ndarray) -> float:
    """:func:`numpy.median` of a 1-D float array, reordering it in place.

    The median's inputs are order statistics, which are values, not
    positions: numpy's ``_median`` partitions at the middle index (or
    the two middle indices) and ``-1``, takes ``(a + b) / 2`` of the
    middle pair, and returns NaN when the largest element is NaN.  One
    partition at the upper middle index, the maximum below it for the
    lower middle value, and a NaN-propagating maximum give the same
    numbers in about half the time.  ``values`` must not be empty, and
    must not hold ``-0.0`` (whose place among zeros a partition does
    not fix); the kernel passes absolute values.
    """
    size = values.shape[0]
    half = size // 2
    values.partition(half)
    top = float(values.max())
    if math.isnan(top):
        return top
    if size % 2:
        return float(values[half])
    return (float(values[:half].max()) + float(values[half])) / 2


def _solve_rows(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked small-system solve with a per-row singularity fallback.

    ``numpy.linalg.solve`` raises if *any* stacked system is singular,
    which would let one degenerate row change the other rows' code
    path.  The fallback therefore re-solves row by row — each row's
    result depends only on its own system either way.
    """
    try:
        return np.linalg.solve(gram, rhs[:, :, np.newaxis])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for row in range(rhs.shape[0]):
            try:
                out[row] = np.linalg.solve(
                    gram[row], rhs[row][:, np.newaxis]
                )[:, 0]
            except np.linalg.LinAlgError:
                out[row] = np.linalg.lstsq(gram[row], rhs[row], rcond=None)[0]
        return out


def blend_window(
    segments: np.ndarray,
    order: int,
    accumulated: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Fit, normalise and taper one window, adding it into the blend.

    ``segments`` is the window's ``(rows, length)`` raw columns;
    ``accumulated`` and ``weights`` are views of the same columns of the
    running blend and its taper sum, updated in place.  The one-shot,
    fused and streaming detrends all blend through this one step, so
    they run the same arithmetic on the same operands.
    """
    baselines = fit_baseline_rows(segments, order)
    # Guard against a degenerate fit crossing zero.
    safe = np.where(np.abs(baselines) > 1e-12, baselines, 1e-12)
    detrended = np.divide(segments, safe, out=safe)
    taper = blend_taper(segments.shape[1])
    detrended *= taper
    accumulated += detrended
    weights += taper


def piecewise_polynomial_detrend(
    signal: np.ndarray,
    sampling_rate_hz: float,
    config: DetrendConfig = DetrendConfig(),
) -> np.ndarray:
    """Detrend ``signal`` with overlapping second-order fits.

    Returns the normalised signal (baseline ~ 1.0).  Overlapping windows
    are blended with triangular weights, which minimises the fit error
    at the window ends exactly as the paper prescribes ("detrended with
    overlap sections to minimize the error of the fitted polynomial at
    both ends").
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValidationError(f"signal must be 1-D, got shape {signal.shape}")
    return piecewise_polynomial_detrend_rows(
        signal[np.newaxis, :], sampling_rate_hz, config
    )[0]


def piecewise_polynomial_detrend_rows(
    signals: np.ndarray,
    sampling_rate_hz: float,
    config: DetrendConfig = DetrendConfig(),
) -> np.ndarray:
    """Detrend every row of a ``(rows, samples)`` matrix in one pass.

    The window partitioning, taper weights, blending and normalisation
    are computed once and applied to all rows with array arithmetic,
    and the robust polynomial fits of a window run as one
    :func:`fit_baseline_rows` call over every row.  That kernel's
    arithmetic is per-row independent, so every row's result is
    bit-identical to :func:`piecewise_polynomial_detrend` on that row
    alone — the property the fused path (:mod:`repro.dsp.fused`)
    relies on to match this staged formulation bit for bit.
    """
    signals = np.asarray(signals, dtype=float)
    if signals.ndim != 2:
        raise ValidationError(f"signals must be 2-D (rows, samples), got {signals.shape}")
    check_positive("sampling_rate_hz", sampling_rate_hz)
    n_rows, n = signals.shape
    if n == 0 or n_rows == 0:
        return signals.copy()

    window = max(int(round(config.window_s * sampling_rate_hz)), config.order + 2)
    window = min(window, n)
    step = max(int(round(window * (1.0 - config.overlap_fraction))), 1)

    accumulated = np.zeros_like(signals)
    weights = np.zeros(n)
    start = 0
    while True:
        stop = min(start + window, n)
        blend_window(
            signals[:, start:stop],
            config.order,
            accumulated[:, start:stop],
            weights[start:stop],
        )
        if stop >= n:
            break
        start += step
    return accumulated / weights


def global_polynomial_detrend(
    signal: np.ndarray,
    order: int,
    robust: bool = True,
) -> np.ndarray:
    """Single global polynomial fit over the whole record.

    Provided for the §VI-C ablation: low orders under-fit long records
    (residual drift), and — with ``robust=False``, the plain
    least-squares fit the paper discusses — high orders over-fit and
    deform peaks.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValidationError(f"signal must be 1-D, got shape {signal.shape}")
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    baseline = _fit_baseline(signal, order, n_iterations=3 if robust else 1)
    safe = np.where(np.abs(baseline) > 1e-12, baseline, 1e-12)
    return signal / safe


def residual_drift(detrended: np.ndarray, sampling_rate_hz: float, block_s: float = 5.0) -> float:
    """RMS deviation of the block-median baseline from 1.0.

    A quality metric for detrending: block medians are insensitive to
    peaks, so residual deviation measures uncorrected drift rather than
    signal content.
    """
    detrended = np.asarray(detrended, dtype=float)
    check_positive("sampling_rate_hz", sampling_rate_hz)
    check_positive("block_s", block_s)
    block = max(int(round(block_s * sampling_rate_hz)), 1)
    n_blocks = max(detrended.shape[0] // block, 1)
    medians = [
        float(np.median(detrended[i * block : (i + 1) * block]))
        for i in range(n_blocks)
        if detrended[i * block : (i + 1) * block].size
    ]
    if not medians:
        return 0.0
    deviations = np.asarray(medians) - 1.0
    return float(np.sqrt(np.mean(deviations**2)))
