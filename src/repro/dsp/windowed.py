"""Chunked windowed peak detection with exact carry-over state.

The streaming layer (:mod:`repro.stream`) feeds a trace to the cloud in
chunks.  The contract that makes streaming *safe* — resumable after a
relay disconnect, rate-adaptable under congestion — is that the chunk
split is **invisible to the outcome**: concatenating the streamed
results must be bit-identical to running the one-shot
:class:`~repro.dsp.peakdetect.PeakDetector` on the full trace.  This
module provides that, in three layers:

* :class:`StreamingDetrender` — the piecewise polynomial detrend of
  :func:`~repro.dsp.detrend.piecewise_polynomial_detrend_rows`,
  restructured as a feed/finish pipeline.  A window of the baseline
  grid is fitted the moment its samples are all present, using the same
  float operations in the same order as the one-shot function, so the
  finalized columns it emits are bit-identical to the corresponding
  columns of the one-shot output.
* :class:`ExactPeakStream` — an incremental reimplementation of the
  exact subset of :func:`scipy.signal.find_peaks` /
  :func:`scipy.signal.peak_widths` semantics that the one-shot
  measurement (:mod:`repro.dsp.fused`) relies on (local maxima with
  plateau midpoints, height filter, distance selection, prominence
  bases with ``wlen=-1``, half-prominence width interpolation).  It
  consumes finalized dip columns and emits peaks as soon as their
  outcome is provably fixed, keeping only a bounded carry-over: a
  retained tail of recent columns, a monotone-stack summary of the
  trimmed history, and per-peak descending-minima records.
* :class:`WindowedPeakDetector` — the two glued together behind the
  chunk-facing ``feed``/``finish`` API the session layer uses.

Carry-over invariants (why trimming is safe)
--------------------------------------------

Let ``thr`` be the depth threshold and ``gmin`` the running minimum of
all finalized detection samples.  The retained tail may be cut at a
column ``c`` only when ``x[c] <= 0.5 * (thr + gmin)``.  Any future peak
``p`` passing the height filter has ``x[p] >= thr``, so its
half-prominence level is at least ``0.5 * (x[p] + lmin) >= 0.5 * (thr +
gmin) >= x[c]`` whenever its left minimum ``lmin`` comes from the
trimmed region — meaning the left width crossing always lies inside the
retained tail.  The prominence *value* of the trimmed region is
preserved exactly by the monotone stack (each entry is a value and the
minimum of the segment it folded), which answers "minimum left of the
tail until the first sample exceeding ``h``" without the samples.
The cut also stays at or before the start of every candidate's
amplitude window, including candidates the local-maxima scan has yet
to reach, whose windows start at most half a window before the scan
position.

Known measure-zero caveat: scipy's distance selection breaks *exact*
peak-height ties with an unstable global argsort; this implementation
sorts per connected component.  Two bit-equal heights inside one
component closer than ``distance`` may therefore resolve differently —
impossible to hit with continuous-valued noise, and irrelevant for any
distance-1 configuration.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._util.errors import ConfigurationError, ValidationError
from repro._util.validation import check_positive
from repro.dsp.detrend import (
    DetrendConfig,
    fit_baseline_rows,
    piecewise_polynomial_detrend_rows,
)
from repro.dsp.peakdetect import DetectedPeak, PeakDetector, PeakReport

__all__ = [
    "StreamingDetrender",
    "ExactPeakStream",
    "WindowedPeakDetector",
]


class StreamingDetrender:
    """Feed/finish form of the piecewise polynomial detrend.

    Emits columns of ``accumulated / weights`` exactly as the one-shot
    :func:`piecewise_polynomial_detrend_rows` would compute them: a
    baseline window is processed the moment its raw samples are all
    buffered, and a column is finalized once no future window can touch
    it (every window at or past the next grid start begins after it).
    Streams shorter than one nominal window fall back to the one-shot
    function over the whole buffer, because the one-shot path clamps
    the window (and therefore the grid step) to the trace length.
    """

    def __init__(
        self,
        n_channels: int,
        sampling_rate_hz: float,
        config: DetrendConfig = DetrendConfig(),
    ) -> None:
        if n_channels < 1:
            raise ValidationError(f"n_channels must be >= 1, got {n_channels}")
        check_positive("sampling_rate_hz", sampling_rate_hz)
        self.n_channels = int(n_channels)
        self.sampling_rate_hz = float(sampling_rate_hz)
        self.config = config
        self._window = max(
            int(round(config.window_s * sampling_rate_hz)), config.order + 2
        )
        self._step = max(
            int(round(self._window * (1.0 - config.overlap_fraction))), 1
        )
        self._buffer = np.empty((self.n_channels, 0), dtype=float)
        self._acc = np.empty((self.n_channels, 0), dtype=float)
        self._weights = np.empty(0, dtype=float)
        self._base = 0  # absolute index of the first buffered column
        self._seen = 0  # total raw samples fed
        self._next_start = 0  # next unprocessed baseline-window start
        self._last_stop = 0  # stop of the last processed window
        self._n_windows = 0
        self._finished = False

    @property
    def buffered(self) -> int:
        """Columns currently held in the carry-over buffer."""
        return self._seen - self._base

    def feed(self, block: np.ndarray) -> np.ndarray:
        """Buffer raw columns; return newly finalized detrended columns."""
        if self._finished:
            raise ConfigurationError("StreamingDetrender already finished")
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self.n_channels:
            raise ValidationError(
                f"block must be ({self.n_channels}, k), got {block.shape}"
            )
        if block.shape[1] == 0:
            return np.empty((self.n_channels, 0), dtype=float)
        self._buffer = np.concatenate([self._buffer, block], axis=1)
        self._acc = np.concatenate(
            [self._acc, np.zeros_like(block)], axis=1
        )
        self._weights = np.concatenate(
            [self._weights, np.zeros(block.shape[1])]
        )
        self._seen += block.shape[1]
        emitted: List[np.ndarray] = []
        while self._next_start + self._window <= self._seen:
            emitted.append(self._process_window(self._next_start))
        if not emitted:
            return np.empty((self.n_channels, 0), dtype=float)
        return np.concatenate(emitted, axis=1)

    def _accumulate(self, start: int, stop: int) -> None:
        """Fit and blend one baseline window, as the one-shot loop does."""
        lo = start - self._base
        hi = stop - self._base
        segments = self._buffer[:, lo:hi]
        baselines = fit_baseline_rows(segments, self.config.order)
        safe = np.where(np.abs(baselines) > 1e-12, baselines, 1e-12)
        detrended = segments / safe
        length = stop - start
        taper = np.minimum(
            np.arange(1, length + 1), np.arange(length, 0, -1)
        ).astype(float)
        self._acc[:, lo:hi] += detrended * taper
        self._weights[lo:hi] += taper
        self._last_stop = stop
        self._n_windows += 1

    def _process_window(self, start: int) -> np.ndarray:
        self._accumulate(start, start + self._window)
        # Columns before the next grid start are final: every future
        # window begins at or past it.
        cut = start + self._step
        n_cols = cut - self._base
        out = self._acc[:, :n_cols] / self._weights[:n_cols]
        self._acc = self._acc[:, n_cols:]
        self._weights = self._weights[n_cols:]
        self._buffer = self._buffer[:, n_cols:]
        self._base = cut
        self._next_start = cut
        return out

    def finish(self) -> np.ndarray:
        """Process the clamped tail windows; return remaining columns."""
        if self._finished:
            raise ConfigurationError("StreamingDetrender already finished")
        self._finished = True
        n = self._seen
        if n == 0:
            return np.empty((self.n_channels, 0), dtype=float)
        if self._n_windows == 0:
            # Shorter than one nominal window: the one-shot path would
            # have clamped window (and step) to the trace length, so
            # reproduce it wholesale.
            return piecewise_polynomial_detrend_rows(
                self._buffer, self.sampling_rate_hz, self.config
            )
        while self._last_stop < n:
            start = self._next_start
            stop = min(start + self._window, n)
            self._accumulate(start, stop)
            self._next_start = start + self._step
        return self._acc / self._weights


class _MonotoneStack:
    """Summary of trimmed history for left prominence walks.

    Entries are ``(value, segment_min)`` in chronological order, with
    strictly decreasing values oldest to newest: pushing ``v`` folds
    every newer entry whose value is ``<= v`` (a left walk that passes
    ``v`` would have passed them too).  ``query(h)`` returns the
    minimum over the suffix of history a walk bounded by barrier value
    ``> h`` can reach, and whether a barrier exists at all.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[Tuple[float, float]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def extend(self, values: np.ndarray) -> None:
        """Push ``values`` in order, leaving the entries that pushing
        them one at a time would leave, float bits included.

        A NaN compares false both ways, so it is an entry that folds
        nothing and that nothing later folds: it splits the batch into
        runs that are pushed independently.
        """
        start = 0
        for stop in np.flatnonzero(np.isnan(values)).tolist():
            self._extend_run(values[start:stop])
            nan = float(values[stop])
            self._entries.append((nan, nan))
            start = stop + 1
        self._extend_run(values[start:])

    def _extend_run(self, run: np.ndarray) -> None:
        if run.shape[0] == 0:
            return
        # Survivors are the strict suffix maxima: any later value that
        # is >= folds an entry.  Each survivor folds the run since the
        # previous survivor.
        later_max = np.maximum.accumulate(run[::-1])[::-1]
        ends = np.flatnonzero(np.append(run[:-1] > later_max[1:], True))
        starts = np.concatenate(([0], ends[:-1] + 1))
        mins = np.minimum.reduceat(run, starts)
        # One-at-a-time folding keeps the newest of equal minima (the
        # sign of a zero), so take that element rather than ``mins``.
        at_min = np.flatnonzero(run == np.repeat(mins, ends - starts + 1))
        newest = at_min[np.searchsorted(at_min, ends, side="right") - 1]
        values = run[ends].tolist()
        seg_mins = run[newest].tolist()
        # Only the first survivor, the run maximum, reaches older entries.
        entries = self._entries
        while entries and entries[-1][0] <= values[0]:
            seg_mins[0] = min(seg_mins[0], entries.pop()[1])
        entries.extend(zip(values, seg_mins))

    def query(self, h: float) -> Tuple[float, bool]:
        """Min over reachable trimmed history; True if a barrier stops it."""
        best = np.inf
        for value, seg_min in reversed(self._entries):
            if value <= h:
                best = min(best, seg_min)
            else:
                return best, True
        return best, False


class ExactPeakStream:
    """Incremental exact peak extraction over finalized dip columns.

    Mirrors, operation for operation, what the one-shot measurement
    (:mod:`repro.dsp.fused`) computes with scipy on the full dips
    matrix.  ``feed`` accepts ``(n_channels, k)`` blocks of
    finalized dips; ``finish`` returns the :class:`PeakReport`.
    """

    def __init__(
        self,
        n_channels: int,
        sampling_rate_hz: float,
        depth_threshold: float,
        min_separation_s: float,
        detection_channel: int,
        trim_margin: int = 4096,
    ) -> None:
        self.n_channels = int(n_channels)
        self.sampling_rate_hz = float(sampling_rate_hz)
        self.threshold = float(depth_threshold)
        self.distance = max(int(round(min_separation_s * sampling_rate_hz)), 1)
        self.half_window = max(self.distance // 2, 1)
        self.channel = int(detection_channel)
        if not 0 <= self.channel < self.n_channels:
            raise ConfigurationError(
                f"detection_channel {detection_channel} out of range for "
                f"{n_channels} channels"
            )
        self._trim_threshold = max(4 * self.distance, int(trim_margin))
        self._tail = np.empty((self.n_channels, 0), dtype=float)
        self._tail_base = 0  # absolute index of tail column 0
        self._n = 0  # finalized samples so far
        self._gmin = np.inf  # min over all finalized detection samples
        self._stack = _MonotoneStack()
        self._scan_i = 1  # next local-maxima scan position
        self._pending: List[dict] = []  # open distance component
        self._open: List[dict] = []  # survivors awaiting right finalization
        self._amp_jobs: List[dict] = []  # peaks awaiting amplitude windows
        self._complete: List[dict] = []  # fully measured peaks
        self._finished = False

    # -- introspection --------------------------------------------------
    @property
    def n_fed(self) -> int:
        return self._n

    @property
    def peaks_emitted(self) -> int:
        return len(self._complete)

    def carry_state(self) -> Dict[str, int]:
        """Size of every piece of carry-over (bounded-memory evidence)."""
        return {
            "retained_columns": self._tail.shape[1],
            "stack_entries": len(self._stack),
            "pending_candidates": len(self._pending),
            "open_peaks": len(self._open),
            "amplitude_jobs": len(self._amp_jobs),
        }

    # -- feeding --------------------------------------------------------
    def feed(self, dips_block: np.ndarray) -> int:
        """Consume finalized dip columns; return newly completed peaks."""
        if self._finished:
            raise ConfigurationError("ExactPeakStream already finished")
        block = np.asarray(dips_block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self.n_channels:
            raise ValidationError(
                f"dips block must be ({self.n_channels}, k), got {block.shape}"
            )
        if block.shape[1] == 0:
            return 0
        before = len(self._complete)
        old_n = self._n
        self._tail = np.concatenate([self._tail, block], axis=1)
        self._n += block.shape[1]
        detection = block[self.channel]
        self._gmin = min(self._gmin, float(detection.min()))
        self._feed_open_peaks(old_n)
        self._scan()
        self._maybe_close_component(at_finish=False)
        self._resolve_amplitudes(at_finish=False)
        self._trim()
        return len(self._complete) - before

    def finish(self) -> PeakReport:
        """Finalize every open structure and assemble the report."""
        if self._finished:
            raise ConfigurationError("ExactPeakStream already finished")
        self._finished = True
        n = self._n
        duration_s = n / self.sampling_rate_hz
        if n == 0:
            return PeakReport((), 0.0, self.sampling_rate_hz, self.channel)
        self._scan()
        self._maybe_close_component(at_finish=True)
        self._resolve_amplitudes(at_finish=True)
        # Peaks whose right walk hit the end of the trace: the walk
        # stops at the array edge, so the right minimum seen so far is
        # the right base minimum.
        for peak in self._open:
            prom = peak["h"] - max(peak["lmin"], peak["rmin"])
            self._finalize_peak(peak, prom)
        self._open = []
        done = sorted(
            (p for p in self._complete), key=lambda peak: peak["p"]
        )
        peaks = tuple(
            DetectedPeak(
                time_s=peak["p"] / self.sampling_rate_hz,
                depth=float(peak["h"]),
                width_s=float(peak["width"] / self.sampling_rate_hz),
                amplitudes=peak["amps"],
                sample_index=int(peak["p"]),
            )
            for peak in done
        )
        return PeakReport(peaks, duration_s, self.sampling_rate_hz, self.channel)

    # -- local maxima scan ----------------------------------------------
    def _scan(self) -> None:
        L, base = self._n, self._tail_base
        if self._scan_i >= L - 1:
            return
        x = self._tail[self.channel]
        region = x[self._scan_i - 1 - base : L - base]
        if region.shape[0] >= 3 and not np.any(region[1:] == region[:-1]):
            # Tie-free fast path: strict interior maxima, and the
            # plateau machinery can neither defer nor skip anything.
            interior = region[1:-1]
            mask = (
                (region[:-2] < interior)
                & (interior > region[2:])
                & (self.threshold <= interior)
            )
            for rel in np.nonzero(mask)[0]:
                self._candidate(self._scan_i + rel)
            self._scan_i = L - 1
            return
        # Scalar path, mirroring scipy's _local_maxima_1d: a plateau
        # whose right edge is not yet visible defers the scan.
        i = self._scan_i
        while i < L - 1:
            xi = x[i - base]
            if x[i - 1 - base] < xi:
                ahead = i + 1
                while ahead < L and x[ahead - base] == xi:
                    ahead += 1
                if ahead == L:
                    break  # plateau reaches the available end: defer
                if x[ahead - base] < xi:
                    self._candidate((i + ahead - 1) // 2)
                    i = ahead
            i += 1
        self._scan_i = i

    # -- candidates and distance selection ------------------------------
    def _candidate(self, p: int) -> None:
        x = self._tail[self.channel]
        h = float(x[p - self._tail_base])
        if not self.threshold <= h:
            return
        if self._pending and p - self._pending[-1]["p"] >= self.distance:
            self._close_component()
        records, lmin = self._left_package(p, h)
        lo = max(p - self.half_window, 0)
        peak = {
            "p": p,
            "h": h,
            "lmin": lmin,
            "lrecords": records,
            "lo": lo,
            "amps": None,
            "width": None,
            "dead": False,
        }
        self._pending.append(peak)
        self._amp_jobs.append(peak)

    def _left_package(
        self, p: int, h: float
    ) -> Tuple[List[Tuple[int, float, float]], float]:
        """Walk left from ``p`` as scipy's prominence walk would.

        The walk is array passes with the scalar walk's comparisons: the
        nearest sample ``> h`` is the barrier, and below it a record is
        a sample strictly below ``h`` and everything nearer the peak.
        Returns the strictly-descending running-minima records
        ``(pos, value, next_value)`` found inside the retained tail and
        the left minimum (folding in the trimmed-history stack when the
        walk falls off the tail without meeting a barrier).
        """
        x = self._tail[self.channel]
        base = self._tail_base
        left = x[: p - base]
        barrier = np.flatnonzero(left > h)
        start = int(barrier[-1]) + 1 if barrier.shape[0] else 0
        walk = left[start:][::-1]
        # fmin, unlike minimum, skips NaN as the scalar ``v < cur`` does.
        running = np.fmin.accumulate(np.concatenate(([h], walk)))
        at = (p - base - 1) - np.flatnonzero(walk < running[:-1])
        records = list(
            zip((at + base).tolist(), x[at].tolist(), x[at + 1].tolist())
        )
        cur = records[-1][1] if records else h
        if barrier.shape[0]:
            return records, cur  # barrier stops the walk
        trimmed_min, _ = self._stack.query(h)
        return records, min(cur, trimmed_min)

    def _maybe_close_component(self, at_finish: bool) -> None:
        if not self._pending:
            return
        if at_finish or self._scan_i - self._pending[-1]["p"] >= self.distance:
            self._close_component()

    def _close_component(self) -> None:
        pending, self._pending = self._pending, []
        if len(pending) == 1:
            keep = [True]
        else:
            keep = self._select_by_distance(pending)
        for peak, kept in zip(pending, keep):
            if not kept:
                peak["dead"] = True
                continue
            peak["rmin"] = peak["h"]
            peak["rrecords"] = []
            # Backlog: detection samples finalized since the peak.
            start = peak["p"] + 1
            if start < self._n:
                x = self._tail[self.channel]
                seg = x[start - self._tail_base : self._n - self._tail_base]
                if not self._feed_right(peak, seg, start, peak["h"]):
                    self._open.append(peak)
            else:
                self._open.append(peak)

    def _select_by_distance(self, pending: List[dict]) -> List[bool]:
        """scipy's _select_by_peak_distance on one closed component."""
        positions = [peak["p"] for peak in pending]
        priority = np.asarray([peak["h"] for peak in pending])
        size = len(positions)
        keep = [True] * size
        order = np.argsort(priority)
        for rank in range(size - 1, -1, -1):
            j = int(order[rank])
            if not keep[j]:
                continue
            k = j - 1
            while k >= 0 and positions[j] - positions[k] < self.distance:
                keep[k] = False
                k -= 1
            k = j + 1
            while k < size and positions[k] - positions[j] < self.distance:
                keep[k] = False
                k += 1
        return keep

    # -- right-side tracking --------------------------------------------
    def _feed_open_peaks(self, block_start: int) -> None:
        if not self._open:
            return
        x = self._tail[self.channel]
        base = self._tail_base
        seg = x[block_start - base : self._n - base]
        prev = (
            float(x[block_start - 1 - base]) if block_start > base else None
        )
        survivors = []
        for peak in self._open:
            prev_val = prev if prev is not None else peak["h"]
            if not self._feed_right(peak, seg, block_start, prev_val):
                survivors.append(peak)
        self._open = survivors

    def _feed_right(
        self, peak: dict, seg: np.ndarray, seg_start: int, prev_val: float
    ) -> bool:
        """Advance one peak's right walk over ``seg``; True if finalized."""
        h = peak["h"]
        above = seg > h
        limit = int(np.argmax(above)) if above.any() else seg.shape[0]
        sub = seg[:limit]
        if sub.shape[0]:
            # Running minimum carried across blocks: a record is a sample
            # strictly below everything since the peak, not merely below
            # the minimum of this block's prefix.
            running = np.minimum.accumulate(
                np.concatenate(([peak["rmin"]], sub))
            )
            for rel in np.nonzero(sub < running[:-1])[0]:
                pos = seg_start + int(rel)
                value = float(sub[rel])
                before = float(sub[rel - 1]) if rel > 0 else prev_val
                peak["rrecords"].append((pos, value, before))
                peak["rmin"] = value
                if value < peak["lmin"]:
                    # The right base can only sink lower: the max of the
                    # two base minima is pinned to lmin, so prominence —
                    # and the crossing, which is at or before this
                    # record — are already decided.
                    self._finalize_peak(peak, h - peak["lmin"])
                    return True
        if limit < seg.shape[0]:
            self._finalize_peak(peak, h - max(peak["lmin"], peak["rmin"]))
            return True
        return False

    # -- finalization ---------------------------------------------------
    def _finalize_peak(self, peak: dict, prominence: float) -> None:
        h = peak["h"]
        level = h - prominence * 0.5
        p = peak["p"]
        if level < h:
            left_ip = self._cross(peak["lrecords"], level, left=True)
            right_ip = self._cross(peak["rrecords"], level, left=False)
        else:
            # Zero prominence: both half-height walks stop on the peak
            # sample itself.
            left_ip = float(p)
            right_ip = float(p)
        peak["width"] = right_ip - left_ip
        if peak["amps"] is not None:
            self._complete.append(peak)

    @staticmethod
    def _cross(
        records: List[Tuple[int, float, float]], level: float, left: bool
    ) -> float:
        for pos, value, neighbour in records:
            if value <= level:
                ip = float(pos)
                if value < level:
                    if left:
                        ip += (level - value) / (neighbour - value)
                    else:
                        ip -= (level - value) / (neighbour - value)
                return ip
        raise AssertionError(
            "half-prominence crossing missing from carry-over records; "
            "the trim invariant was violated"
        )

    # -- amplitudes ------------------------------------------------------
    def _resolve_amplitudes(self, at_finish: bool) -> None:
        if not self._amp_jobs:
            return
        remaining = []
        for peak in self._amp_jobs:
            if peak["dead"]:
                continue
            hi = peak["p"] + self.half_window + 1
            if hi <= self._n or at_finish:
                hi = min(hi, self._n)
                lo = peak["lo"] - self._tail_base
                peak["amps"] = self._tail[:, lo : hi - self._tail_base].max(
                    axis=1
                )
                if peak["width"] is not None:
                    self._complete.append(peak)
            else:
                remaining.append(peak)
        self._amp_jobs = remaining

    # -- trimming --------------------------------------------------------
    def _trim(self) -> None:
        if self._tail.shape[1] <= self._trim_threshold:
            return
        # A candidate the scan has yet to find sits at or after
        # ``_scan_i``, and its amplitude window starts half a window
        # before it.
        bound = self._scan_i - self.half_window
        for peak in self._pending:
            bound = min(bound, peak["lo"], peak["p"])
        for peak in self._amp_jobs:
            bound = min(bound, peak["lo"])
        if bound <= self._tail_base:
            return
        if not np.isfinite(self._gmin):
            return
        cut_level = 0.5 * (self.threshold + self._gmin)
        x = self._tail[self.channel]
        window = x[1 : bound - self._tail_base + 1]
        eligible = np.nonzero(window <= cut_level)[0]
        if eligible.shape[0] == 0:
            return
        cut = self._tail_base + 1 + int(eligible[-1])
        self._stack.extend(x[: cut - self._tail_base])
        self._tail = self._tail[:, cut - self._tail_base :]
        self._tail_base = cut


class WindowedPeakDetector:
    """Chunk-facing exact streaming detector.

    ``feed`` raw ``(n_channels, k)`` voltage chunks, then ``finish`` for
    a :class:`PeakReport` bit-identical to
    ``PeakDetector.detect(full_trace, fs)`` — regardless of how the
    trace was split into chunks.
    """

    def __init__(
        self,
        n_channels: int,
        sampling_rate_hz: float,
        detector: Optional[PeakDetector] = None,
    ) -> None:
        self.detector = detector if detector is not None else PeakDetector()
        if self.detector.detection_channel >= n_channels:
            raise ConfigurationError(
                f"detection_channel {self.detector.detection_channel} out of "
                f"range for {n_channels}-channel stream"
            )
        self.n_channels = int(n_channels)
        self.sampling_rate_hz = float(sampling_rate_hz)
        self._detrender = StreamingDetrender(
            n_channels, sampling_rate_hz, self.detector.detrend
        )
        self._peaks = ExactPeakStream(
            n_channels,
            sampling_rate_hz,
            self.detector.depth_threshold,
            self.detector.min_separation_s,
            self.detector.detection_channel,
        )
        self.n_samples = 0
        self._finished = False

    @property
    def peaks_emitted(self) -> int:
        return self._peaks.peaks_emitted

    def carry_state(self) -> Dict[str, int]:
        state = self._peaks.carry_state()
        state["detrend_buffered"] = self._detrender.buffered
        return state

    def feed(self, chunk: np.ndarray) -> int:
        """Consume one chunk; return the number of newly final peaks."""
        if self._finished:
            raise ConfigurationError("WindowedPeakDetector already finished")
        chunk = np.asarray(chunk, dtype=float)
        if chunk.ndim != 2 or chunk.shape[0] != self.n_channels:
            raise ValidationError(
                f"chunk must be ({self.n_channels}, k), got {chunk.shape}"
            )
        self.n_samples += chunk.shape[1]
        columns = self._detrender.feed(chunk)
        if columns.shape[1] == 0:
            return 0
        return self._peaks.feed(1.0 - columns)

    def finish(self) -> PeakReport:
        """Flush the carry-over and return the full-trace report."""
        if self._finished:
            raise ConfigurationError("WindowedPeakDetector already finished")
        self._finished = True
        columns = self._detrender.finish()
        if columns.shape[1]:
            self._peaks.feed(1.0 - columns)
        return self._peaks.finish()
