"""Staged-pipeline oracle for differential DSP tests.

The fused pass (:mod:`repro.dsp.fused`) claims *exact* equality — same
``PeakReport`` structure, bit-identical floats — with the staged
formulation it replaced: detrend the whole trace
(:func:`piecewise_polynomial_detrend_rows`), invert (``1 - x``), then
threshold and measure each peak in a Python loop
(:func:`report_from_dips`).  This module is that staged path, kept as
an executable reference, plus the strict comparators the differential
suites (``test_dsp_fused_differential.py``,
``test_dsp_fused_properties.py``, ``test_dsp_golden.py``) and
``benchmarks/bench_dsp.py`` assert with.

Convention: any future change to the hot path must keep
``staged_detect`` (the oracle) and ``PeakDetector.detect`` (the
shipped path) in exact agreement — change both or neither.  The golden
digests in ``test_dsp_golden.py`` additionally pin the *absolute*
output for the paper-figure traces.
"""

import hashlib
import struct

import numpy as np
from scipy import signal as sp_signal

from repro.dsp.detrend import piecewise_polynomial_detrend_rows
from repro.dsp.peakdetect import DetectedPeak, PeakDetector, PeakReport


def staged_detect(
    detector: PeakDetector, trace: np.ndarray, sampling_rate_hz: float
) -> PeakReport:
    """The retained stage-at-a-time pipeline (the differential oracle)."""
    trace = np.asarray(trace, dtype=float)
    if trace.shape[1] == 0:
        return PeakReport((), 0.0, sampling_rate_hz, detector.detection_channel)
    dips = 1.0 - piecewise_polynomial_detrend_rows(
        trace, sampling_rate_hz, detector.detrend
    )
    return report_from_dips(detector, dips, sampling_rate_hz)


def report_from_dips(
    detector: PeakDetector, dips: np.ndarray, sampling_rate_hz: float
) -> PeakReport:
    """Threshold one trace's positive-dip matrix and measure peak by peak."""
    n_samples = dips.shape[1]
    duration_s = n_samples / sampling_rate_hz
    detection = dips[detector.detection_channel]
    distance = max(int(round(detector.min_separation_s * sampling_rate_hz)), 1)
    indices, properties = sp_signal.find_peaks(
        detection, height=detector.depth_threshold, distance=distance
    )
    if indices.size == 0:
        return PeakReport((), duration_s, sampling_rate_hz, detector.detection_channel)

    widths_samples = sp_signal.peak_widths(detection, indices, rel_height=0.5)[0]
    peaks = []
    half_window = max(distance // 2, 1)
    for index, height, width in zip(indices, properties["peak_heights"], widths_samples):
        lo = max(index - half_window, 0)
        hi = min(index + half_window + 1, n_samples)
        amplitudes = dips[:, lo:hi].max(axis=1)
        peaks.append(
            DetectedPeak(
                time_s=index / sampling_rate_hz,
                depth=float(height),
                width_s=float(width / sampling_rate_hz),
                amplitudes=amplitudes,
                sample_index=int(index),
            )
        )
    return PeakReport(tuple(peaks), duration_s, sampling_rate_hz, detector.detection_channel)


# ---------------------------------------------------------------------------
# Strict comparison
# ---------------------------------------------------------------------------
def explain_report_mismatch(actual: PeakReport, expected: PeakReport) -> str:
    """First difference between two reports, or '' if bit-identical.

    Floats are compared through their IEEE-754 bytes (``==`` would call
    0.0 and -0.0 equal and NaN unequal to itself); amplitude arrays
    must match in dtype, shape and raw buffer.
    """

    def fbits(value: float) -> bytes:
        return struct.pack("<d", float(value))

    if actual.count != expected.count:
        return f"peak count {actual.count} != {expected.count}"
    for name in ("duration_s", "sampling_rate_hz"):
        if fbits(getattr(actual, name)) != fbits(getattr(expected, name)):
            return (
                f"{name}: {getattr(actual, name)!r} != "
                f"{getattr(expected, name)!r}"
            )
    if actual.detection_channel != expected.detection_channel:
        return (
            f"detection_channel {actual.detection_channel} != "
            f"{expected.detection_channel}"
        )
    for index, (peak, other) in enumerate(zip(actual.peaks, expected.peaks)):
        if peak.sample_index != other.sample_index:
            return (
                f"peak {index}: sample_index {peak.sample_index} != "
                f"{other.sample_index}"
            )
        for name in ("time_s", "depth", "width_s"):
            if fbits(getattr(peak, name)) != fbits(getattr(other, name)):
                return (
                    f"peak {index}: {name} {getattr(peak, name)!r} != "
                    f"{getattr(other, name)!r}"
                )
        if peak.amplitudes.dtype != other.amplitudes.dtype:
            return (
                f"peak {index}: amplitude dtype {peak.amplitudes.dtype} != "
                f"{other.amplitudes.dtype}"
            )
        if peak.amplitudes.shape != other.amplitudes.shape:
            return (
                f"peak {index}: amplitude shape {peak.amplitudes.shape} != "
                f"{other.amplitudes.shape}"
            )
        if peak.amplitudes.tobytes() != other.amplitudes.tobytes():
            return (
                f"peak {index}: amplitudes differ "
                f"({peak.amplitudes!r} vs {other.amplitudes!r})"
            )
    return ""


def assert_reports_identical(
    actual: PeakReport, expected: PeakReport, context: str = ""
) -> None:
    """Bitwise report equality, failing with the first differing field."""
    mismatch = explain_report_mismatch(actual, expected)
    if mismatch:
        prefix = f"{context}: " if context else ""
        raise AssertionError(f"{prefix}fused vs oracle mismatch — {mismatch}")


def report_digest(report: PeakReport) -> str:
    """SHA-256 over the packed report fields (the golden-pin format).

    Every float is serialised as its little-endian IEEE-754 bytes, so
    the digest moves iff some output bit moves.
    """
    hasher = hashlib.sha256()
    hasher.update(
        struct.pack(
            "<qddq",
            report.count,
            float(report.duration_s),
            float(report.sampling_rate_hz),
            report.detection_channel,
        )
    )
    for peak in report.peaks:
        hasher.update(
            struct.pack(
                "<dddq",
                float(peak.time_s),
                float(peak.depth),
                float(peak.width_s),
                int(peak.sample_index),
            )
        )
        hasher.update(
            np.ascontiguousarray(peak.amplitudes, dtype="<f8").tobytes()
        )
    return hasher.hexdigest()
