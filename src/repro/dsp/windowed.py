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
  retained tail of recent columns and a monotone-stack summary of the
  trimmed history.  Each feed measures its peaks with the same scipy C
  walks the one-shot runs: one ``peak_prominences`` call for every
  newly selected and every still-open peak, one ``peak_widths`` call
  for the peaks that became final, and one clipped amplitude gather.
  Peaks are arrays throughout, and ``finish`` returns a column-backed
  :class:`~repro.dsp.peakdetect.PeakReport` (no per-peak objects).
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

A peak already selected whose right base is still open (no wall, and
no right sample below its left minimum yet) is not protected by the
cut.  Its crossing lies at or right of the last sample left of ``p`` at
or below ``h - (h - lmin) * 0.5``; while the cut leaves that sample in
the tail, the per-feed scipy walks measure it exactly.  So the cut
stops at the last eligible column at or before that sample, as long as
the tail it leaves stays within the trim margin.  Only a peak open
longer than that is cut past: the cut first moves it to records, its
left walk as strictly descending minima ``(pos, value, next_value)``,
and its right walk extended block by block the same way until it is
final.  The records are what bound memory on a peak that never closes.

Known measure-zero caveat: scipy's distance selection breaks *exact*
peak-height ties with an unstable global argsort; this implementation
sorts per connected component.  Two bit-equal heights inside one
component closer than ``distance`` may therefore resolve differently —
impossible to hit with continuous-valued noise, and irrelevant for any
distance-1 configuration.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import signal as sp_signal

from repro._util.errors import ConfigurationError, ValidationError
from repro._util.validation import check_positive
from repro.dsp.detrend import (
    DetrendConfig,
    blend_window,
    piecewise_polynomial_detrend_rows,
)
from repro.dsp.peakdetect import PeakColumns, PeakDetector, PeakReport

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
        blend_window(
            self._buffer[:, lo:hi],
            self.config.order,
            self._acc[:, lo:hi],
            self._weights[lo:hi],
        )
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


class _Peaks:
    """Selected peaks as parallel arrays.

    ``i`` is each peak's index in selection order (which is position
    order), ``p`` its absolute position, ``h`` its height and ``lmin``
    its left base minimum (NaN until first measured).
    """

    __slots__ = ("i", "p", "h", "lmin")

    def __init__(
        self, i: np.ndarray, p: np.ndarray, h: np.ndarray, lmin: np.ndarray
    ) -> None:
        self.i, self.p, self.h, self.lmin = i, p, h, lmin

    def __len__(self) -> int:
        return self.i.shape[0]

    def columns(self) -> Tuple[np.ndarray, ...]:
        return (self.i, self.p, self.h, self.lmin)

    def take(self, mask: np.ndarray) -> "_Peaks":
        return _Peaks(*(column[mask] for column in self.columns()))

    def join(self, other: "_Peaks") -> "_Peaks":
        return _Peaks(*map(np.concatenate, zip(self.columns(), other.columns())))


_NO_POSITIONS = np.empty(0, dtype=np.intp)
_NO_PEAKS = _Peaks(_NO_POSITIONS, _NO_POSITIONS, np.empty(0), np.empty(0))


def _last_true(mask: np.ndarray) -> int:
    """Index of the last True in a 1-D boolean array, or -1."""
    if mask.shape[0] == 0:
        return -1
    k = mask.shape[0] - 1 - int(np.argmax(mask[::-1]))
    return k if mask[k] else -1


class ExactPeakStream:
    """Incremental exact peak extraction over finalized dip columns.

    Mirrors, operation for operation, what the one-shot measurement
    (:mod:`repro.dsp.fused`) computes with scipy on the full dips
    matrix.  ``feed`` accepts ``(n_channels, k)`` blocks of
    finalized dips; ``finish`` returns a column-backed
    :class:`PeakReport`.  Peaks are arrays from selection on: the
    positions and heights of every selected peak in selection order,
    and each width and amplitude row as it is measured, scattered back
    by selection index when ``finish`` emits the columns.
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
        self._offsets = np.arange(-self.half_window, self.half_window + 1)[
            :, np.newaxis
        ]
        self._tail = np.empty((self.n_channels, 0), dtype=float)
        self._tail_base = 0  # absolute index of tail column 0
        self._n = 0  # finalized samples so far
        self._gmin = np.inf  # min over all finalized detection samples
        self._stack = _MonotoneStack()
        self._scan_i = 1  # next local-maxima scan position
        # The open distance component: candidate positions and heights.
        self._pending_p = _NO_POSITIONS
        self._pending_h = np.empty(0)
        self._open = _NO_PEAKS  # measured on the tail, right base open
        self._carried: List[dict] = []  # right base open, measured by records
        self._amp_p = _NO_POSITIONS  # selected, awaiting amplitude windows
        # Every selected peak in selection order, and its measurements.
        self._n_selected = 0
        self._n_amped = 0  # amplitudes go in selection order
        self._positions: List[np.ndarray] = []
        self._heights: List[np.ndarray] = []
        self._amplitudes: List[np.ndarray] = []  # (k, n_channels) per gather
        self._width_of: List[np.ndarray] = []  # selection indices ...
        self._widths: List[np.ndarray] = []  # ... and their widths (samples)
        #: Open peaks a trim moved to the record carry-over so far.
        self.record_fallbacks = 0
        self._finished = False

    # -- introspection --------------------------------------------------
    @property
    def n_fed(self) -> int:
        return self._n

    @property
    def peaks_emitted(self) -> int:
        """Peaks whose width and amplitudes are both measured."""
        # The first ``_n_amped`` selected peaks have amplitudes; of
        # those, the open and carried ones still lack a width.
        amped = self._n_amped
        unmeasured = int(np.count_nonzero(self._open.i < amped)) + sum(
            peak["i"] < amped for peak in self._carried
        )
        return amped - unmeasured

    def carry_state(self) -> Dict[str, int]:
        """Size of every piece of carry-over (bounded-memory evidence)."""
        return {
            "retained_columns": self._tail.shape[1],
            "stack_entries": len(self._stack),
            "pending_candidates": self._pending_p.shape[0],
            "open_peaks": len(self._open) + len(self._carried),
            "amplitude_jobs": self._amp_p.shape[0],
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
        before = self.peaks_emitted
        old_n = self._n
        self._tail = np.concatenate([self._tail, block], axis=1)
        self._n += block.shape[1]
        # fmin skips NaN, so a NaN cannot hide the block's minimum from
        # the trim's cut level.
        block_min = float(np.fmin.reduce(block[self.channel]))
        if block_min < self._gmin:
            self._gmin = block_min
        self._feed_carried(old_n)
        self._measure(self._select(self._scan(), at_finish=False), at_finish=False)
        self._trim()
        return self.peaks_emitted - before

    def finish(self) -> PeakReport:
        """Finalize every open structure and assemble the report."""
        if self._finished:
            raise ConfigurationError("ExactPeakStream already finished")
        self._finished = True
        n = self._n
        duration_s = n / self.sampling_rate_hz
        if n == 0:
            return PeakReport((), 0.0, self.sampling_rate_hz, self.channel)
        self._measure(self._select(self._scan(), at_finish=True), at_finish=True)
        # Carried peaks whose right walk hit the end of the trace: the
        # walk stops at the array edge, so the right minimum seen so far
        # is the right base minimum.
        for peak in self._carried:
            prom = peak["h"] - max(peak["lmin"], peak["rmin"])
            self._finalize_from_records(peak, prom)
        self._carried = []
        return PeakReport.from_columns(
            self._columns(), duration_s, self.sampling_rate_hz, self.channel
        )

    def _columns(self) -> PeakColumns:
        """Every peak's measurements as report columns, in position order.

        Selection order is position order, and by now every selected
        peak has its amplitudes (gathered in that order) and exactly one
        width (scattered back by selection index).
        """
        n = self._n_selected
        if n == 0:
            empty = np.empty(0)
            return PeakColumns(
                empty, empty, empty, np.empty((0, self.n_channels)), _NO_POSITIONS
            )
        positions = np.concatenate(self._positions)
        width_of = np.concatenate(self._width_of)
        if not np.array_equal(np.sort(width_of), np.arange(n)):
            raise AssertionError("a selected peak lacks its one width")
        widths = np.empty(n)
        widths[width_of] = np.concatenate(self._widths)
        return PeakColumns(
            time_s=positions / self.sampling_rate_hz,
            depth=np.concatenate(self._heights),
            width_s=widths / self.sampling_rate_hz,
            amplitudes=np.concatenate(self._amplitudes),
            sample_index=positions,
        )

    # -- local maxima scan ----------------------------------------------
    def _scan(self) -> np.ndarray:
        """Advance the local-maxima scan; return the new candidates."""
        L, base = self._n, self._tail_base
        if self._scan_i >= L - 1:
            return _NO_POSITIONS
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
            found = np.flatnonzero(mask) + self._scan_i
            self._scan_i = L - 1
            return found
        # Scalar path, mirroring scipy's _local_maxima_1d: a plateau
        # whose right edge is not yet visible defers the scan.
        found = []
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
                    found.append((i + ahead - 1) // 2)
                    i = ahead
            i += 1
        self._scan_i = i
        return np.asarray(found, dtype=np.intp)

    # -- candidates and distance selection ------------------------------
    def _select(self, found: np.ndarray, at_finish: bool) -> _Peaks:
        """Add the candidates passing the height filter to the open
        distance component; return the peaks selected from every
        component that closed.

        Candidates form one component while each is nearer than
        ``distance`` to the one before.  A component closes at a wider
        gap, once the scan is ``distance`` past its last candidate, or
        when the trace ends.
        """
        heights = self._tail[self.channel, found - self._tail_base]
        passing = self.threshold <= heights
        p = np.concatenate((self._pending_p, found[passing]))
        h = np.concatenate((self._pending_h, heights[passing]))
        starts = np.flatnonzero(np.diff(p) >= self.distance) + 1
        if p.shape[0] and (at_finish or self._scan_i - p[-1] >= self.distance):
            closed = p.shape[0]
        else:
            closed = int(starts[-1]) if starts.shape[0] else 0
            starts = starts[:-1]
        self._pending_p, self._pending_h = p[closed:], h[closed:]
        if closed == 0:
            return _NO_PEAKS
        p, h = p[:closed], h[:closed]
        edges = np.concatenate(([0], starts, [closed]))
        keep = np.ones(closed, dtype=bool)
        for k in np.flatnonzero(np.diff(edges) > 1).tolist():
            lo, hi = int(edges[k]), int(edges[k + 1])
            keep[lo:hi] = self._select_by_distance(p[lo:hi], h[lo:hi])
        p, h = p[keep], h[keep]
        i = np.arange(self._n_selected, self._n_selected + p.shape[0])
        self._n_selected += p.shape[0]
        self._positions.append(p)
        self._heights.append(h)
        self._amp_p = np.concatenate((self._amp_p, p))
        return _Peaks(i, p, h, np.full(p.shape[0], np.nan))

    def _select_by_distance(
        self, positions: np.ndarray, priority: np.ndarray
    ) -> List[bool]:
        """scipy's _select_by_peak_distance on one closed component."""
        positions = positions.tolist()
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

    # -- per-feed measurement -------------------------------------------
    def _measure(self, new: _Peaks, at_finish: bool) -> None:
        """Measure the newly selected and the open peaks on the tail."""
        peaks, self._open = self._open.join(new), _NO_PEAKS
        if len(peaks):
            self._measure_widths(peaks, len(new), at_finish)
        self._gather_amplitudes(at_finish)

    def _measure_widths(self, peaks: _Peaks, n_new: int, at_finish: bool) -> None:
        """Finalize the widths of ``peaks`` (the last ``n_new`` are new).

        One :func:`scipy.signal.peak_prominences` call walks every
        peak's bases over the tail's detection row; a new peak whose
        left walk met no wall (a sample failing ``x <= h``) before the
        tail's start folds in the trimmed history.  A peak is final
        once its right walk met a wall, or its right minimum sank below
        its left minimum (the base maximum is then pinned to the left
        minimum), or the trace ended; one
        :func:`scipy.signal.peak_widths` call measures every final peak
        with its true prominence.  The trim invariant keeps each width
        walk's crossing inside the tail, so the walk bounded by the
        tail's bases stops where the full-trace walk does.  The other
        peaks stay open.
        """
        x = self._tail[self.channel]
        pos = peaks.p - self._tail_base
        heights = x[pos]
        _, lbases, rbases = sp_signal.peak_prominences(x, pos)
        lmin = x[lbases]
        n_old = len(peaks) - n_new
        lmin[:n_old] = peaks.lmin[:n_old]
        if n_new and len(self._stack):
            # NaN-propagating maximum left of each new peak: the maxima
            # of the segments between peaks, then their running maximum.
            fresh = pos[n_old:]
            starts = np.concatenate(([0], fresh[:-1]))
            reach = np.maximum.accumulate(np.maximum.reduceat(x[: fresh[-1]], starts))
            no_wall = reach <= heights[n_old:]
            for k in (np.flatnonzero(no_wall) + n_old).tolist():
                trimmed_min, _ = self._stack.query(float(heights[k]))
                lmin[k] = min(float(lmin[k]), trimmed_min)
        rmin = x[rbases]
        if at_finish:
            final = np.ones(len(peaks), dtype=bool)
        else:
            # NaN-propagating maximum right of each peak (segment maxima
            # between peaks, then their running maximum from the end):
            # a wall lies right of p iff it fails ``<= h``.
            ahead = np.maximum.reduceat(x, pos + 1)
            wall = ~(np.maximum.accumulate(ahead[::-1])[::-1] <= heights)
            final = wall | (rmin < lmin)
            self._open = _Peaks(peaks.i, peaks.p, peaks.h, lmin).take(~final)
        done = np.flatnonzero(final)
        if done.shape[0]:
            # ``max(left_min, right_min)`` as scipy's walk takes it.
            floor = np.where(rmin[done] > lmin[done], rmin[done], lmin[done])
            _, level, left_ips, right_ips = sp_signal.peak_widths(
                x,
                pos[done],
                rel_height=0.5,
                prominence_data=(
                    heights[done] - floor,
                    lbases[done],
                    rbases[done],
                ),
            )
            self._width_of.append(peaks.i[done])
            self._widths.append(
                self._absolute_widths(
                    x, level, left_ips, right_ips, lbases[done], rbases[done]
                )
            )

    def _absolute_widths(
        self,
        x: np.ndarray,
        level: np.ndarray,
        left_ips: np.ndarray,
        right_ips: np.ndarray,
        lbases: np.ndarray,
        rbases: np.ndarray,
    ) -> np.ndarray:
        """Re-interpolate scipy's half-height crossings at absolute indices.

        scipy's walks ran in tail coordinates, where ``i + frac`` rounds
        differently than at the absolute ``i`` the one-shot walk uses.
        Each crossing lies next to the sample its walk stopped on (a
        fraction that rounds up to the next sample lands on a sample
        still above ``level``), so the crossing is recomputed there with
        the walk's own float operations.  Left crossings come first;
        ``inward`` is the step from the stopping sample towards the
        peak.
        """
        k = level.shape[0]
        inward = np.repeat(np.array([1, -1]), k)
        level = np.concatenate((level, level))
        at = np.concatenate((np.floor(left_ips), np.ceil(right_ips)))
        at = at.astype(np.intp)
        at -= inward * (level < x[at])
        if np.any(inward * (at - np.concatenate((lbases, rbases))) < 0):
            raise AssertionError(
                "half-prominence crossing outside the retained tail; "
                "the trim invariant was violated"
            )
        ip = (at + self._tail_base).astype(float)
        below = np.flatnonzero(x[at] < level)
        if below.shape[0]:
            i, h, step = at[below], level[below], inward[below]
            ip[below] += step * ((h - x[i]) / (x[i + step] - x[i]))
        return ip[k:] - ip[:k]

    def _gather_amplitudes(self, at_finish: bool) -> None:
        """One clipped window-max gather, as the one-shot measures it.

        A peak's window is complete once ``p + half_window < n``; the
        waiting positions are sorted, so the ready ones are a prefix.
        """
        waiting = self._amp_p
        if at_finish:
            k = waiting.shape[0]
        else:
            k = int(np.searchsorted(waiting, self._n - self.half_window))
        if k == 0:
            return
        pos, self._amp_p = waiting[:k], waiting[k:]
        gather = np.clip(pos + self._offsets, 0, self._n - 1) - self._tail_base
        self._amplitudes.append(self._tail[:, gather].max(axis=1).T)
        self._n_amped += k

    # -- record carry-over ----------------------------------------------
    def _crossing_bounds(self) -> np.ndarray:
        """Per open peak, where its left half-height crossing can lie.

        The crossing lies at or right of the last sample left of ``p``
        at or below ``h - (h - lmin) * 0.5`` (the lowest half-height the
        right base can still give).  Returns that sample's position, or
        ``_tail_base - 1`` when the tail holds none.
        """
        x = self._tail[self.channel]
        base = self._tail_base
        bounds = np.empty(len(self._open), dtype=np.intp)
        for k, (p, h, lmin) in enumerate(
            zip(
                self._open.p.tolist(),
                self._open.h.tolist(),
                self._open.lmin.tolist(),
            )
        ):
            lowest = h - (h - lmin) * 0.5
            bounds[k] = base + _last_true(x[: p - base] <= lowest)
        return bounds

    def _carry_by_records(self, cut: int, crossings: np.ndarray) -> None:
        """Move the open peaks whose crossing bound a cut at ``cut`` loses.

        Such a peak keeps its left walk as descending-minima records
        and extends its right walk block by block.
        """
        lost = crossings < cut
        if not lost.any():
            return
        x = self._tail[self.channel]
        base = self._tail_base
        carried = self._open.take(lost)
        self._open = self._open.take(~lost)
        for i, p, h, lmin in zip(
            carried.i.tolist(),
            carried.p.tolist(),
            carried.h.tolist(),
            carried.lmin.tolist(),
        ):
            self.record_fallbacks += 1
            peak = {"i": i, "p": p, "h": h, "lmin": lmin, "rmin": h, "rrecords": []}
            peak["lrecords"], _ = self._left_package(p, h)
            if not self._feed_right(peak, x[p + 1 - base : self._n - base], p + 1, h):
                self._carried.append(peak)

    def _left_package(
        self, p: int, h: float
    ) -> Tuple[List[Tuple[int, float, float]], float]:
        """Walk left from ``p`` as scipy's prominence walk would.

        The walk is array passes with the scalar walk's comparisons: the
        nearest sample failing ``x <= h`` (taller, or NaN) is the
        barrier, and below it a record is a sample strictly below ``h``
        and everything nearer the peak.  Returns the strictly-descending
        running-minima records ``(pos, value, next_value)`` found inside
        the retained tail and the left minimum (folding in the
        trimmed-history stack when the walk falls off the tail without
        meeting a barrier).
        """
        x = self._tail[self.channel]
        base = self._tail_base
        left = x[: p - base]
        barrier = np.flatnonzero(~(left <= h))
        start = int(barrier[-1]) + 1 if barrier.shape[0] else 0
        walk = left[start:][::-1]
        running = np.minimum.accumulate(np.concatenate(([h], walk)))
        at = (p - base - 1) - np.flatnonzero(walk < running[:-1])
        records = list(
            zip((at + base).tolist(), x[at].tolist(), x[at + 1].tolist())
        )
        cur = records[-1][1] if records else h
        if barrier.shape[0]:
            return records, cur  # barrier stops the walk
        trimmed_min, _ = self._stack.query(h)
        return records, min(cur, trimmed_min)

    def _feed_carried(self, block_start: int) -> None:
        if not self._carried:
            return
        x = self._tail[self.channel]
        base = self._tail_base
        seg = x[block_start - base : self._n - base]
        prev = (
            float(x[block_start - 1 - base]) if block_start > base else None
        )
        survivors = []
        for peak in self._carried:
            prev_val = prev if prev is not None else peak["h"]
            if not self._feed_right(peak, seg, block_start, prev_val):
                survivors.append(peak)
        self._carried = survivors

    def _feed_right(
        self, peak: dict, seg: np.ndarray, seg_start: int, prev_val: float
    ) -> bool:
        """Advance one peak's right walk over ``seg``; True if finalized."""
        h = peak["h"]
        wall = ~(seg <= h)
        limit = int(np.argmax(wall)) if wall.any() else seg.shape[0]
        sub = seg[:limit]
        # A record is a sample strictly below the right minimum so far.
        if sub.shape[0] and sub.min() < peak["rmin"]:
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
                    self._finalize_from_records(peak, h - peak["lmin"])
                    return True
        if limit < seg.shape[0]:
            prom = h - max(peak["lmin"], peak["rmin"])
            self._finalize_from_records(peak, prom)
            return True
        return False

    def _finalize_from_records(self, peak: dict, prominence: float) -> None:
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
        self._width_of.append(np.array([peak["i"]]))
        self._widths.append(np.array([right_ip - left_ip]))

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

    # -- trimming --------------------------------------------------------
    def _trim(self) -> None:
        if self._tail.shape[1] <= self._trim_threshold:
            return
        # A candidate the scan has yet to find sits at or after
        # ``_scan_i``; every candidate's amplitude window starts half a
        # window before it.
        bound = self._scan_i
        for waiting in (self._pending_p, self._amp_p):
            if waiting.shape[0]:
                bound = min(bound, int(waiting[0]))
        bound -= self.half_window
        base = self._tail_base
        if bound <= base:
            return
        if not np.isfinite(self._gmin):
            return
        cut_level = 0.5 * (self.threshold + self._gmin)
        x = self._tail[self.channel]
        # Column ``base + 1 + k`` is eligible iff ``eligible[k]``.
        eligible = x[1 : bound - base + 1] <= cut_level
        last = _last_true(eligible)
        if last < 0:
            return
        cut = base + 1 + last
        crossings = self._crossing_bounds()
        lost = crossings[crossings < cut]
        if lost.shape[0]:
            # Stop the cut at the open peaks' crossing bounds, so they
            # stay on the batched walks, while the tail it leaves stays
            # within the trim margin; past that, records bound memory.
            last = _last_true(eligible[: int(lost.min()) - base])
            if last >= 0 and self._n - (base + 1 + last) <= self._trim_threshold:
                cut = base + 1 + last
        self._carry_by_records(cut, crossings)
        self._stack.extend(x[: cut - base])
        self._tail = self._tail[:, cut - base :]
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
