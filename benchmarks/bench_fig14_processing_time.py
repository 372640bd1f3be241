"""Figure 14: peak-analysis time vs sample size, computer vs phone.

Paper bars (seconds)::

    samples   computer   Nexus 5
    240607    0.110      0.452
    481214    0.215      0.810
    962428    0.343      1.554

We *measure* our own detrend+detect pipeline at exactly those sample
counts on this machine (the "computer" series) and *model* the phone
with the calibrated Nexus 5 fit.  Shape assertions: time grows
sublinearly-with-overhead in sample count exactly like the paper's
series (monotone, less than proportional doubling), and the phone is
~3-6x slower at every size, with the absolute gap widening.
"""

import time

import numpy as np
import pytest

from benchmarks._harness import print_table
from repro.dsp.peakdetect import PeakDetector
from repro.mobile.perf import (
    COMPUTER_I7,
    FIG14_COMPUTER_TIMES_S,
    FIG14_PHONE_TIMES_S,
    FIG14_SAMPLE_SIZES,
    NEXUS5,
)
from repro.physics.noise import NoiseModel

FS = 450.0


def make_capture(n_samples: int, seed: int = 0) -> np.ndarray:
    """A single-channel capture with a realistic peak density."""
    from repro.experiments import make_fig14_capture

    return make_fig14_capture(n_samples, FS, seed)


@pytest.fixture(scope="module")
def captures():
    return {n: make_capture(n) for n in FIG14_SAMPLE_SIZES}


@pytest.mark.parametrize("n_samples", FIG14_SAMPLE_SIZES)
def test_fig14_detection_scales(benchmark, captures, n_samples):
    detector = PeakDetector()
    trace = captures[n_samples]
    report = benchmark(lambda: detector.detect(trace, FS))
    assert report.count > 0


def test_fig14_shape_comparison(benchmark, captures):
    detector = PeakDetector()

    def measure_all():
        times = []
        for n_samples in FIG14_SAMPLE_SIZES:
            start = time.perf_counter()
            detector.detect(captures[n_samples], FS)
            times.append(time.perf_counter() - start)
        return times

    measured = benchmark.pedantic(measure_all, rounds=1, iterations=1)

    rows = []
    for n, paper_pc, paper_phone, ours in zip(
        FIG14_SAMPLE_SIZES, FIG14_COMPUTER_TIMES_S, FIG14_PHONE_TIMES_S, measured
    ):
        rows.append(
            [
                n,
                f"{paper_pc:.3f}",
                f"{ours:.3f}",
                f"{paper_phone:.3f}",
                f"{NEXUS5.processing_time_s(n):.3f}",
            ]
        )
    print_table(
        "Figure 14 — peak-analysis time (s)",
        ["samples", "paper computer", "our computer", "paper phone", "phone model"],
        rows,
    )

    # Shape: monotone growth with sample count.
    assert measured[0] < measured[1] < measured[2]
    # Roughly linear-with-overhead: doubling samples less than triples time.
    assert measured[2] < 3.0 * measured[1] + 0.05
    # Phone/computer ratio: the paper's motivation for cloud offload.
    for n in FIG14_SAMPLE_SIZES:
        ratio = COMPUTER_I7.speedup_over(NEXUS5, n)
        assert 3.0 < ratio < 6.0
    # The absolute gap widens with sample size (crossover direction).
    gaps = [
        NEXUS5.processing_time_s(n) - COMPUTER_I7.processing_time_s(n)
        for n in FIG14_SAMPLE_SIZES
    ]
    assert gaps[0] < gaps[1] < gaps[2]
