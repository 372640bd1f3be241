"""Peak detection on detrended traces (paper §VI-C).

"Peak detection is achieved by setting a minimum threshold on the data
section of one minus the detrended subsequence."  We detrend each
channel, form ``1 - detrended`` (dips become positive peaks), and apply
:func:`scipy.signal.find_peaks` with a depth threshold and a minimum
separation.  Each detected peak records its timestamp, depth, FWHM and
its per-carrier amplitude vector, which is everything the decryptor and
the authentication classifier consume.

:meth:`PeakDetector.detect` and :meth:`PeakDetector.detect_batch` run
on the fused columnar pass in :mod:`repro.dsp.fused`; the staged
formulation is retained here (:meth:`PeakDetector._report_from_dips`)
as the differential-test oracle (``tests/_dsp_oracle.py``).
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np
from scipy import signal as sp_signal

from repro._util.validation import check_positive
from repro.dsp.detrend import DetrendConfig


@dataclass(frozen=True)
class DetectedPeak:
    """One peak found on the encrypted (or plaintext) trace.

    ``amplitudes`` is the fractional dip depth per acquisition channel
    measured at this peak's sample index; ``depth`` is the depth on the
    detection channel.
    """

    time_s: float
    depth: float
    width_s: float
    amplitudes: np.ndarray
    sample_index: int

    def __post_init__(self) -> None:
        amplitudes = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        object.__setattr__(self, "amplitudes", amplitudes)


@dataclass(frozen=True)
class PeakReport:
    """Everything the analysis side returns to the controller.

    The report deliberately contains *only* ciphertext-domain facts:
    encoded peak count, timestamps, depths, widths and channel
    amplitudes (paper §IV-A: "returns encoded peak count, with
    associated time-stamps, amplitudes and widths").
    """

    peaks: Tuple[DetectedPeak, ...]
    duration_s: float
    sampling_rate_hz: float
    detection_channel: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "peaks", tuple(self.peaks))

    @property
    def count(self) -> int:
        """Encoded (ciphertext) peak count."""
        return len(self.peaks)

    def peaks_between(self, start_s: float, end_s: float) -> List[DetectedPeak]:
        """Peaks with ``start_s <= time < end_s`` (epoch slicing)."""
        return [p for p in self.peaks if start_s <= p.time_s < end_s]

    def times(self) -> np.ndarray:
        """All peak timestamps as an array."""
        return np.asarray([p.time_s for p in self.peaks])


@dataclass(frozen=True)
class PeakDetector:
    """Detrend-threshold-measure peak extraction.

    Parameters
    ----------
    depth_threshold:
        Minimum fractional dip depth to call a peak.  The quietest
        natural peak (a 3.58 µm bead at the lowest cipher gain, 0.5x)
        dips ~0.1-0.2 %, so the default sits well below that but above
        the noise floor.
    min_separation_s:
        Minimum spacing between reported peaks.
    detection_channel:
        Channel used for finding peaks (amplitudes are then sampled on
        every channel).  The lowest carrier has the strongest response
        for all particle types, so it is the default.
    """

    depth_threshold: float = 8e-4
    min_separation_s: float = 6e-3
    detection_channel: int = 0
    detrend: DetrendConfig = DetrendConfig()

    def __post_init__(self) -> None:
        check_positive("depth_threshold", self.depth_threshold)
        check_positive("min_separation_s", self.min_separation_s)
        if self.detection_channel < 0:
            raise ValueError("detection_channel must be >= 0")

    # ------------------------------------------------------------------
    def detect(self, trace: np.ndarray, sampling_rate_hz: float) -> PeakReport:
        """Find peaks in a ``(n_channels, n_samples)`` voltage trace.

        Runs the fused columnar pass (:func:`repro.dsp.fused.fused_detect`),
        which is bit-identical to the staged detrend → ``1 - x`` →
        :meth:`_report_from_dips` formulation it replaced.
        """
        trace = self._validate(trace, sampling_rate_hz)
        return _fused.fused_detect(self, trace, sampling_rate_hz)

    def detect_batch(
        self,
        traces: Sequence[np.ndarray],
        sampling_rates_hz: Union[float, Sequence[float]],
    ) -> List[PeakReport]:
        """Find peaks in many traces with one fused columnar pass.

        Traces sharing a shape and sampling rate are stacked into one
        columnar :class:`~repro.dsp.fused.TraceBatch` and carried
        through detrend → ``1 - x`` → threshold → measurement in a
        single pass (:func:`repro.dsp.fused.fused_detect_many`),
        amortising the window bookkeeping over the whole batch.
        Reports come back in input order and are bit-identical to
        calling :meth:`detect` on each trace alone — the serving
        stack's batcher depends on that equivalence.
        """
        if np.isscalar(sampling_rates_hz):
            rates = [float(sampling_rates_hz)] * len(traces)
        else:
            rates = [float(rate) for rate in sampling_rates_hz]
        if len(rates) != len(traces):
            raise ValueError(
                f"{len(traces)} traces but {len(rates)} sampling rates"
            )
        validated = [
            self._validate(trace, rate) for trace, rate in zip(traces, rates)
        ]
        return _fused.fused_detect_many(self, validated, rates)

    # ------------------------------------------------------------------
    def _validate(self, trace: np.ndarray, sampling_rate_hz: float) -> np.ndarray:
        trace = np.asarray(trace, dtype=float)
        if trace.ndim != 2:
            raise ValueError(f"trace must be 2-D (channels, samples), got {trace.shape}")
        check_positive("sampling_rate_hz", sampling_rate_hz)
        if self.detection_channel >= trace.shape[0]:
            raise ValueError(
                f"detection_channel {self.detection_channel} out of range for "
                f"{trace.shape[0]}-channel trace"
            )
        return trace

    def _report_from_dips(self, dips: np.ndarray, sampling_rate_hz: float) -> PeakReport:
        """Threshold one trace's positive-dip matrix into a report."""
        n_samples = dips.shape[1]
        duration_s = n_samples / sampling_rate_hz
        detection = dips[self.detection_channel]
        distance = max(int(round(self.min_separation_s * sampling_rate_hz)), 1)
        indices, properties = sp_signal.find_peaks(
            detection, height=self.depth_threshold, distance=distance
        )
        if indices.size == 0:
            return PeakReport((), duration_s, sampling_rate_hz, self.detection_channel)

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
        return PeakReport(tuple(peaks), duration_s, sampling_rate_hz, self.detection_channel)


# Imported at the bottom: repro.dsp.fused needs DetectedPeak/PeakReport
# from this module, so the cycle is broken by binding the fused module
# only after those classes exist.
import repro.dsp.fused as _fused  # noqa: E402
