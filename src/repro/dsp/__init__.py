"""Cloud-side signal processing (paper §VI-C).

The untrusted analysis side sees only the encrypted trace; everything it
can legitimately do is here:

* :mod:`~repro.dsp.detrend` — remove slow baseline drift by fitting
  second-order polynomials to overlapping sub-sequences and normalising
  by the fit (the paper's empirically optimal scheme; global low-order
  fits under-fit, high-order fits deform peaks — the global variant is
  kept for that ablation, which ``tests/test_dsp_detrend.py`` runs).
* :mod:`~repro.dsp.peakdetect` — threshold the detrended signal and
  extract each peak's timestamp, depth, width and per-carrier
  amplitudes.
* :mod:`~repro.dsp.features` — per-peak feature vectors at selected
  carrier frequencies (the Figure 16 scatter axes).
* :mod:`~repro.dsp.recording` — CSV capture-size and zip-compression
  model for the §VII-B data-volume accounting.
* :mod:`~repro.dsp.windowed` — chunked windowed detrend + peak
  detection with explicit carry-over state, bit-identical to the
  one-shot path (the streaming workload's DSP core).
* :mod:`~repro.dsp.fused` — the fused single-trace detrend → invert →
  threshold → measure pass that :meth:`PeakDetector.detect` runs on
  (see ``docs/dsp.md``; proven bit-identical to the staged formulation
  by ``tests/test_dsp_fused_differential.py``).
"""

from repro.dsp.detrend import (
    DetrendConfig,
    fit_baseline_rows,
    global_polynomial_detrend,
    piecewise_polynomial_detrend,
)
from repro.dsp.features import FeatureExtractor, PeakFeatures
from repro.dsp.peakdetect import DetectedPeak, PeakDetector, PeakReport
from repro.dsp.fused import fused_detect, fused_dips
from repro.dsp.recording import CsvRecordingModel, compressed_size_bytes
from repro.dsp.windowed import (
    ExactPeakStream,
    StreamingDetrender,
    WindowedPeakDetector,
)

__all__ = [
    "StreamingDetrender",
    "ExactPeakStream",
    "WindowedPeakDetector",
    "DetrendConfig",
    "fit_baseline_rows",
    "global_polynomial_detrend",
    "piecewise_polynomial_detrend",
    "FeatureExtractor",
    "PeakFeatures",
    "DetectedPeak",
    "PeakDetector",
    "PeakReport",
    "fused_detect",
    "fused_dips",
    "CsvRecordingModel",
    "compressed_size_bytes",
]
