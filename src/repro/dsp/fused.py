"""Fused DSP hot path (the Fig 14 bottleneck, vectorised).

The staged pipeline the paper describes — lock-in demod output →
piecewise detrend → ``1 - x`` → threshold → per-peak measurement —
historically ran stage-at-a-time, materialising a fresh array at every
stage and measuring each detected peak in a Python loop.  This module
is the same pipeline as *one fused pass over one trace*:

* :func:`fused_dips` — detrend and invert every channel while
  materialising exactly one ``(n_channels, n_samples)`` dips buffer:
  the detrend blend accumulates into the output buffer, and the
  normalisation and ``1 - x`` inversion run in place on it.
* :func:`fused_detect` — the single-trace hot path behind
  :meth:`~repro.dsp.peakdetect.PeakDetector.detect`, and therefore
  behind the cloud server and the sharded fleet.  Per-peak
  depth/width/amplitude measurement is vectorised
  :func:`scipy.signal.peak_widths` plus one clipped window-max gather
  (no per-peak Python loop).

Bit-identity contract
---------------------

The fused pass must be *exactly* equal — same ``PeakReport`` tuples,
bit-identical amplitudes — to the staged pipeline kept in
``tests/_dsp_oracle.py``
(:func:`~repro.dsp.detrend.piecewise_polynomial_detrend_rows` followed
by the oracle's per-peak ``report_from_dips`` loop).  That holds by
construction:

* both paths fit window baselines with the shared, per-row-independent
  :func:`~repro.dsp.detrend.fit_baseline_rows` kernel;
* the fused blend applies the same elementwise ufuncs to the same
  operands, merely writing into a pre-allocated buffer instead of
  allocating per stage (IEEE elementwise results do not depend on the
  destination);
* the window-max amplitude gather clamps its index window to the trace
  edges, so each peak's gathered multiset equals the staged slice's
  (duplicated edge samples cannot change a max).

``tests/test_dsp_fused_differential.py`` enforces the contract against
the staged oracle over seeded trace families and hypothesis-generated
shapes; ``benchmarks/bench_dsp.py`` records the speedup in the
``BENCH_dsp.json`` trajectory.
"""

from typing import TYPE_CHECKING, Dict

import numpy as np
from scipy import signal as sp_signal

from repro._util.errors import ValidationError
from repro._util.validation import check_positive
from repro.dsp.detrend import DetrendConfig, fit_baseline_rows
from repro.dsp.peakdetect import DetectedPeak, PeakReport

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.dsp.peakdetect import PeakDetector

__all__ = ["fused_detect", "fused_dips"]

#: Per-length cache of the triangular blend taper (values identical to
#: the staged path's per-window recomputation).
_TAPER_CACHE: Dict[int, np.ndarray] = {}
_TAPER_CACHE_MAX = 128


def _taper(length: int) -> np.ndarray:
    taper = _TAPER_CACHE.get(length)
    if taper is None:
        taper = np.minimum(
            np.arange(1, length + 1), np.arange(length, 0, -1)
        ).astype(float)
        if len(_TAPER_CACHE) >= _TAPER_CACHE_MAX:
            _TAPER_CACHE.pop(next(iter(_TAPER_CACHE)))
        _TAPER_CACHE[length] = taper
    return taper


# ---------------------------------------------------------------------------
# Fused pass
# ---------------------------------------------------------------------------
def fused_dips(
    data: np.ndarray, sampling_rate_hz: float, config: DetrendConfig
) -> np.ndarray:
    """Detrend + invert every row into one buffer (``1 - detrended``).

    Identical arithmetic to the staged
    ``1.0 - piecewise_polynomial_detrend_rows(...)`` — the same
    baseline fits, taper blend, normalisation and inversion — but the
    blend accumulates directly into the returned buffer and the final
    two stages run in place on it, so the whole detrend→invert chain
    materialises exactly one ``(rows, samples)`` array.
    """
    data = np.asarray(data, dtype=float)
    check_positive("sampling_rate_hz", sampling_rate_hz)
    n_rows, n = data.shape
    if n == 0 or n_rows == 0:
        return 1.0 - data.copy()
    window = max(
        int(round(config.window_s * sampling_rate_hz)), config.order + 2
    )
    window = min(window, n)
    step = max(int(round(window * (1.0 - config.overlap_fraction))), 1)

    dips = np.zeros((n_rows, n))
    weights = np.zeros(n)
    start = 0
    while True:
        stop = min(start + window, n)
        segments = data[:, start:stop]
        baselines = fit_baseline_rows(segments, config.order)
        safe = np.where(np.abs(baselines) > 1e-12, baselines, 1e-12)
        detrended = segments / safe
        taper = _taper(stop - start)
        np.multiply(detrended, taper, out=detrended)
        dips[:, start:stop] += detrended
        weights[start:stop] += taper
        if stop >= n:
            break
        start += step
    np.divide(dips, weights, out=dips)
    np.subtract(1.0, dips, out=dips)
    return dips


def _measure_trace(
    dips: np.ndarray,
    sampling_rate_hz: float,
    depth_threshold: float,
    distance: int,
    detection_channel: int,
) -> PeakReport:
    """Threshold one trace's dips and measure every peak, vectorised.

    Mirrors the staged oracle's ``report_from_dips`` exactly, with the
    per-peak Python loop replaced by one clipped window-max gather:
    peak ``p``'s staged amplitude is ``dips[:, max(p-h,0):min(p+h+1,n)]
    .max(axis=1)``; gathering ``clip(p-h .. p+h, 0, n-1)`` instead
    yields the same multiset per channel (edge clamping only repeats
    samples), hence a bit-identical max.
    """
    n_samples = dips.shape[1]
    duration_s = n_samples / sampling_rate_hz
    detection = dips[detection_channel]
    indices, properties = sp_signal.find_peaks(
        detection, height=depth_threshold, distance=distance
    )
    if indices.size == 0:
        return PeakReport((), duration_s, sampling_rate_hz, detection_channel)
    widths_samples = sp_signal.peak_widths(detection, indices, rel_height=0.5)[0]
    half_window = max(distance // 2, 1)
    offsets = np.arange(-half_window, half_window + 1)[:, np.newaxis]
    gather = np.clip(indices[np.newaxis, :] + offsets, 0, n_samples - 1)
    # (n_channels, window, n_peaks) -> max over the window axis.
    amplitudes = dips[:, gather].max(axis=1)
    times_s = indices / sampling_rate_hz
    widths_s = widths_samples / sampling_rate_hz
    heights = properties["peak_heights"]
    peaks = tuple(
        DetectedPeak(
            time_s=times_s[j],
            depth=float(heights[j]),
            width_s=float(widths_s[j]),
            amplitudes=amplitudes[:, j].copy(),
            sample_index=int(indices[j]),
        )
        for j in range(indices.shape[0])
    )
    return PeakReport(peaks, duration_s, sampling_rate_hz, detection_channel)


def fused_detect(
    detector: "PeakDetector", trace: np.ndarray, sampling_rate_hz: float
) -> PeakReport:
    """Detrend, invert, threshold and measure one trace in one pass.

    ``trace`` is ``(n_channels, n_samples)``.  It is normalised to a
    C-contiguous float64 array first, so the kernel sees one memory
    layout whatever the caller passed (a strided slice, Fortran order).
    """
    trace = np.ascontiguousarray(trace, dtype=float)
    if trace.ndim != 2:
        raise ValidationError(
            f"trace must be 2-D (channels, samples), got {trace.shape}"
        )
    check_positive("sampling_rate_hz", sampling_rate_hz)
    sampling_rate_hz = float(sampling_rate_hz)
    if detector.detection_channel >= trace.shape[0]:
        raise ValidationError(
            f"detection_channel {detector.detection_channel} out of range "
            f"for {trace.shape[0]}-channel trace"
        )
    if trace.shape[1] == 0:
        return PeakReport((), 0.0, sampling_rate_hz, detector.detection_channel)
    dips = fused_dips(trace, sampling_rate_hz, detector.detrend)
    distance = max(int(round(detector.min_separation_s * sampling_rate_hz)), 1)
    return _measure_trace(
        dips,
        sampling_rate_hz,
        detector.depth_threshold,
        distance,
        detector.detection_channel,
    )
