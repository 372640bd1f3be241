"""DSP hot path: fused pass vs the legacy staged pipeline.

The paper's Fig 14 names trace processing as the end-to-end latency
bottleneck.  PR 10 replaced the stage-at-a-time path — a per-row
``_fit_baseline`` Python loop inside every detrend window, fresh
arrays per stage, and a per-peak measurement loop — with the fused
pass in :mod:`repro.dsp.fused`.  This bench re-runs the *retained*
legacy formulation (the per-row polyfit loop plus the oracle's per-peak
``report_from_dips`` loop) against the shipped fused path on the same
seeded traces, asserting the headline claim: **at least 2x on the
single-trace hot path**.

Because the speedup is only meaningful if the answers match, the bench
also differentially checks the fused reports against the staged oracle
in ``tests/_dsp_oracle.py`` (which shares the new kernel) with the test
suite's IEEE-bytes comparator, and gates on zero mismatches; the legacy
path agrees to ~1e-12 but not bitwise (polyfit vs masked normal
equations), so it is timed, not diffed.

Run standalone (``PYTHONPATH=src:. python benchmarks/bench_dsp.py
[--quick]``) or under pytest.
"""

import argparse
import sys
import time
from typing import Callable

import numpy as np

from benchmarks._harness import print_table
from repro.dsp import PeakDetector, PeakReport
from repro.dsp.detrend import DetrendConfig, _fit_baseline
from tests._dsp_oracle import explain_report_mismatch, report_from_dips, staged_detect

SPEEDUP_FLOOR = 2.0

#: Synthetic clinic capture: 5 carriers, bead-mix dips over slow drift.
N_CHANNELS = 5
SAMPLING_RATE_HZ = 2000.0


# ---------------------------------------------------------------------------
# Legacy staged pipeline (pre-fused formulation, reproduced verbatim)
# ---------------------------------------------------------------------------
def legacy_detrend_rows(
    signals: np.ndarray, sampling_rate_hz: float, config: DetrendConfig
) -> np.ndarray:
    """The pre-PR-10 ``piecewise_polynomial_detrend_rows``: window
    bookkeeping vectorised, but one ``_fit_baseline`` polyfit call per
    row per window."""
    n_rows, n = signals.shape
    window = max(int(round(config.window_s * sampling_rate_hz)), config.order + 2)
    window = min(window, n)
    step = max(int(round(window * (1.0 - config.overlap_fraction))), 1)
    accumulated = np.zeros_like(signals)
    weights = np.zeros(n)
    start = 0
    while True:
        stop = min(start + window, n)
        segments = signals[:, start:stop]
        baselines = np.vstack(
            [_fit_baseline(segments[row], config.order) for row in range(n_rows)]
        )
        safe = np.where(np.abs(baselines) > 1e-12, baselines, 1e-12)
        detrended = segments / safe
        length = stop - start
        taper = np.minimum(
            np.arange(1, length + 1), np.arange(length, 0, -1)
        ).astype(float)
        accumulated[:, start:stop] += detrended * taper
        weights[start:stop] += taper
        if stop >= n:
            break
        start += step
    return accumulated / weights


def legacy_detect(
    detector: PeakDetector, trace: np.ndarray, sampling_rate_hz: float
) -> PeakReport:
    """Stage-at-a-time detect: legacy detrend loop + per-peak loop."""
    dips = 1.0 - legacy_detrend_rows(trace, sampling_rate_hz, detector.detrend)
    return report_from_dips(detector, dips, sampling_rate_hz)


# ---------------------------------------------------------------------------
# Workload + identity check
# ---------------------------------------------------------------------------
def make_trace(duration_s: float, seed: int) -> np.ndarray:
    """Seeded bead-mix capture: drift + per-channel dips + noise."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * SAMPLING_RATE_HZ))
    t = np.arange(n) / SAMPLING_RATE_HZ
    drift = 1.0 + 0.04 * (t / max(duration_s, 1e-9)) + 0.015 * np.sin(
        2 * np.pi * t / 23.0
    )
    trace = np.repeat(drift[np.newaxis, :], N_CHANNELS, axis=0)
    trace += 0.002 * rng.standard_normal((N_CHANNELS, n))
    n_events = max(int(duration_s * 2.5), 1)
    centers = rng.integers(0, n, size=n_events)
    for center in centers:
        width = int(rng.integers(6, 30))
        depth = rng.uniform(0.002, 0.02)
        lo, hi = max(center - width, 0), min(center + width, n)
        pulse = depth * np.hanning(2 * width)[: hi - lo]
        rolloff = 1.0 - 0.35 * np.arange(N_CHANNELS) / max(N_CHANNELS - 1, 1)
        trace[:, lo:hi] -= rolloff[:, np.newaxis] * pulse[np.newaxis, :]
    return trace


def time_best(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall clock in seconds (min is robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# Bench
# ---------------------------------------------------------------------------
def run_bench(quick: bool) -> dict:
    detector = PeakDetector()
    duration_s = 10.0 if quick else 30.0
    repeats = 3 if quick else 5
    trace = make_trace(duration_s, seed=2016)

    legacy_s = time_best(
        lambda: legacy_detect(detector, trace, SAMPLING_RATE_HZ), repeats
    )
    fused_s = time_best(
        lambda: detector.detect(trace, SAMPLING_RATE_HZ), repeats
    )
    speedup = legacy_s / fused_s

    n_diff = 4 if quick else 8
    mismatches = 0
    peak_count = 0
    for i in range(n_diff):
        diff_trace = make_trace(duration_s / 2, seed=4000 + i)
        fused = detector.detect(diff_trace, SAMPLING_RATE_HZ)
        oracle = staged_detect(detector, diff_trace, SAMPLING_RATE_HZ)
        peak_count += fused.count
        if explain_report_mismatch(fused, oracle):
            mismatches += 1

    return {
        "speedup": speedup,
        "legacy_ms": legacy_s * 1e3,
        "fused_ms": fused_s * 1e3,
        "mismatches": mismatches,
        "n_diff": n_diff,
        "peak_count": peak_count,
    }


def collect(quick: bool = True) -> dict:
    """``medsen-bench/v1`` metrics for ``python -m repro bench``.

    The single-trace speedup and the differential mismatch count are
    gated: both are within-run comparisons on one host, so a slow CI
    runner cancels out of the ratio and cannot create a mismatch.
    Absolute wall-clocks ride along ungated for the trajectory.
    """
    results = run_bench(quick)
    return {
        "single_trace_speedup": {
            "value": round(results["speedup"], 3),
            "unit": "ratio",
            "direction": "higher",
            "tolerance": 0.40,
            "gate": True,
        },
        "speedup_floor_met": {
            "value": 1.0 if results["speedup"] >= SPEEDUP_FLOOR else 0.0,
            "unit": "bool",
            "direction": "near",
            "tolerance": 0.0,
            "gate": True,
        },
        "oracle_mismatches": {
            "value": float(results["mismatches"]),
            "unit": "count",
            "direction": "near",
            "tolerance": 0.0,
            "gate": True,
        },
        "legacy_ms_per_trace": {
            "value": round(results["legacy_ms"], 3),
            "unit": "ms",
            "direction": "lower",
            "tolerance": 0.5,
            "gate": False,
        },
        "fused_ms_per_trace": {
            "value": round(results["fused_ms"], 3),
            "unit": "ms",
            "direction": "lower",
            "tolerance": 0.5,
            "gate": False,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="short traces and fewer repeats (CI)",
    )
    args = parser.parse_args(argv)

    results = run_bench(args.quick)
    print_table(
        f"DSP hot path ({N_CHANNELS} channels @ {SAMPLING_RATE_HZ:.0f} Hz)",
        ["path", "ms/trace"],
        [
            ["legacy staged", f"{results['legacy_ms']:.1f}"],
            ["fused", f"{results['fused_ms']:.1f}"],
        ],
    )
    print(
        f"single-trace speedup: {results['speedup']:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    print(
        f"differential check: {results['mismatches']} mismatches over "
        f"{results['n_diff']} traces ({results['peak_count']} peaks)"
    )
    if results["mismatches"]:
        print("FAIL: fused path diverged from the staged oracle")
        return 1
    if results["speedup"] < SPEEDUP_FLOOR:
        print("FAIL: fused path did not reach the speedup floor")
        return 1
    print("PASS")
    return 0


def test_fused_hot_path_doubles_legacy_throughput():
    """The tentpole claim: >= 2x single-trace detect, answers identical."""
    results = run_bench(quick=True)
    print(
        f"legacy {results['legacy_ms']:.1f} ms, fused "
        f"{results['fused_ms']:.1f} ms -> {results['speedup']:.2f}x"
    )
    assert results["mismatches"] == 0
    assert results["speedup"] >= SPEEDUP_FLOOR


if __name__ == "__main__":
    sys.exit(main())
