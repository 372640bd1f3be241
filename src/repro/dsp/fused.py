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
  (no per-peak Python loop), and the report it returns holds those
  measurements as :class:`~repro.dsp.peakdetect.PeakColumns` (no
  per-peak object either).

Bit-identity contract
---------------------

The fused pass must be *exactly* equal — same peaks, bit-identical
amplitudes — to the staged pipeline kept in
``tests/_dsp_oracle.py``
(:func:`~repro.dsp.detrend.piecewise_polynomial_detrend_rows` followed
by the oracle's per-peak ``report_from_dips`` loop).  That holds by
construction:

* both paths fit, normalise and taper every window through the shared
  :func:`~repro.dsp.detrend.blend_window` step, whose
  :func:`~repro.dsp.detrend.fit_baseline_rows` kernel is
  per-row independent;
* the fused pass merely blends into its output buffer and runs the
  normalisation and inversion in place on it (IEEE elementwise results
  do not depend on the destination);
* the window-max amplitude gather clamps its index window to the trace
  edges, so each peak's gathered multiset equals the staged slice's
  (duplicated edge samples cannot change a max).

``tests/test_dsp_fused_differential.py`` enforces the contract against
the staged oracle over seeded trace families and hypothesis-generated
shapes; ``benchmarks/bench_dsp.py`` records the speedup in the
``BENCH_dsp.json`` trajectory.
"""

from typing import TYPE_CHECKING

import numpy as np
from scipy import signal as sp_signal

from repro._util.errors import ValidationError
from repro._util.validation import check_positive
from repro.dsp.detrend import DetrendConfig, blend_window
from repro.dsp.peakdetect import PeakColumns, PeakReport

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.dsp.peakdetect import PeakDetector

__all__ = ["fused_detect", "fused_dips"]


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
        blend_window(
            data[:, start:stop], config.order, dips[:, start:stop], weights[start:stop]
        )
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
    n_channels, n_samples = dips.shape
    duration_s = n_samples / sampling_rate_hz
    detection = dips[detection_channel]
    indices, properties = sp_signal.find_peaks(
        detection, height=depth_threshold, distance=distance
    )
    indices = indices.astype(np.int64, copy=False)
    if indices.size == 0:
        return PeakReport.from_columns(
            _empty_columns(n_channels), duration_s, sampling_rate_hz, detection_channel
        )
    widths_samples = sp_signal.peak_widths(detection, indices, rel_height=0.5)[0]
    half_window = max(distance // 2, 1)
    offsets = np.arange(-half_window, half_window + 1)[:, np.newaxis]
    gather = np.clip(indices[np.newaxis, :] + offsets, 0, n_samples - 1)
    # (n_channels, window, n_peaks) -> max over the window axis, then
    # one (n_peaks, n_channels) row per peak.
    amplitudes = np.ascontiguousarray(dips[:, gather].max(axis=1).T)
    columns = PeakColumns(
        time_s=indices / sampling_rate_hz,
        depth=properties["peak_heights"],
        width_s=widths_samples / sampling_rate_hz,
        amplitudes=amplitudes,
        sample_index=indices,
    )
    return PeakReport.from_columns(
        columns, duration_s, sampling_rate_hz, detection_channel
    )


def _empty_columns(n_channels: int) -> PeakColumns:
    empty = np.empty(0)
    return PeakColumns(
        empty, empty, empty, np.empty((0, n_channels)), np.empty(0, dtype=np.int64)
    )


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
        return PeakReport.from_columns(
            _empty_columns(trace.shape[0]), 0.0, sampling_rate_hz, detector.detection_channel
        )
    dips = fused_dips(trace, sampling_rate_hz, detector.detrend)
    distance = max(int(round(detector.min_separation_s * sampling_rate_hz)), 1)
    return _measure_trace(
        dips,
        sampling_rate_hz,
        detector.depth_threshold,
        distance,
        detector.detection_channel,
    )
