"""The exact peak stream's array passes against their scalar loops.

``ExactPeakStream._left_package`` (the left prominence walk) and
``_MonotoneStack.extend`` (trimmed columns folded into the stack) are
numpy passes that must reproduce the per-sample loops kept in
``tests/_stream_oracle.py`` exactly: the same records, the same entries,
the same float bits (``repr`` tells ``-0.0`` from ``0.0``).  Draws lean
on the cases that separate ``<`` from ``<=``: ties, plateaus, signed
zeros, NaN, and barriers at either end of the tail.  Whole streams
with a tiny trim margin then trim and walk many times per trace and
must still match one-shot detection.  The keystream is checked to be
exactly one SHAKE-256 call over ``key || nonce``.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal._peak_finding_utils import PeakPropertyWarning

from repro._util.rng import ensure_rng
from repro.crypto.keyshare import keystream
from repro.dsp import PeakDetector
from repro.dsp.detrend import piecewise_polynomial_detrend_rows
from repro.dsp.fused import _measure_trace
from repro.dsp.windowed import ExactPeakStream, _MonotoneStack
from repro.stream import report_digest, synthetic_stream_trace

from tests import _stream_oracle as oracle
from tests._dsp_oracle import report_from_dips
from tests.test_stream_exact import dip_trace, one_shot_digest, streamed_digest

FS = 1000.0
NAN = float("nan")
# Few distinct values make ties and plateaus common; -0.0 and 0.0
# compare equal but differ in bits.
TIED = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]
values = st.one_of(
    st.sampled_from(TIED),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
values_or_nan = st.one_of(values, st.just(NAN))


def stack_of(history):
    """A ``_MonotoneStack`` holding what the oracle builds from ``history``."""
    stack = _MonotoneStack()
    stack._entries = oracle.push_all([], np.asarray(history, dtype=float))
    return stack


class TestMonotoneStackExtend:
    @given(
        history=st.lists(values_or_nan, max_size=12),
        batch=st.lists(values_or_nan, max_size=40),
    )
    @example(history=[], batch=[])
    @example(history=[2.0, 1.0], batch=[0.5])
    @example(history=[2.0, 1.0], batch=[3.0])
    @example(history=[1.0, 0.0], batch=[0.0, 0.0, 0.0, 0.0])
    @example(history=[0.0], batch=[-0.0, 0.0, -0.0])
    @example(history=[-0.0], batch=[0.0, -0.0, 1.0, 0.0])
    @example(history=[1.0], batch=[0.5, NAN, 0.7, 2.0])
    @example(history=[NAN, 1.0], batch=[0.5, 3.0])
    @settings(max_examples=max(400, settings().max_examples))
    def test_extend_equals_repeated_push(self, history, batch):
        stack = stack_of(history)
        expected = oracle.push_all(list(stack._entries), np.asarray(batch))
        stack.extend(np.asarray(batch, dtype=float))
        assert repr(stack._entries) == repr(expected)

    def test_extend_splits_across_calls(self):
        # Trimming feeds the stack one cut at a time; any split of a
        # sequence must build the same stack as one push loop.
        rng = np.random.default_rng(5)
        seq = np.round(rng.normal(size=600), 1)
        stack = _MonotoneStack()
        for part in np.array_split(seq, [1, 2, 50, 51, 300, 599]):
            stack.extend(part)
        assert repr(stack._entries) == repr(oracle.push_all([], seq))


def stream_with_tail(tail, base, history):
    """A one-channel stream whose retained tail starts at ``base``."""
    stream = ExactPeakStream(1, FS, 0.0, 1e-3, 0)
    stream._tail = np.asarray(tail, dtype=float)[None, :]
    stream._tail_base = base
    stream._stack = stack_of(history)
    return stream


def expected_package(stream, p, h):
    records, cur, barrier = oracle.left_walk(
        stream._tail[0], stream._tail_base, p, h
    )
    if barrier:
        return records, cur
    trimmed_min, _ = stream._stack.query(h)
    return records, min(cur, trimmed_min)


class TestLeftWalk:
    @given(
        tail=st.lists(values_or_nan, min_size=1, max_size=40),
        history=st.lists(values, max_size=10),
        data=st.data(),
    )
    @settings(max_examples=max(400, settings().max_examples))
    def test_walk_equals_scalar_walk(self, tail, history, data):
        p_rel = data.draw(st.integers(0, len(tail) - 1), label="p_rel")
        peak = tail[p_rel]
        # The stream walks from a candidate with h = x[p]; any h must
        # give the same answer.
        h = data.draw(
            st.sampled_from([peak]) if peak == peak else values, label="h"
        )
        stream = stream_with_tail(tail, 100, history)
        p = 100 + p_rel
        assert repr(stream._left_package(p, h)) == repr(
            expected_package(stream, p, h)
        )

    @pytest.mark.parametrize(
        "tail, p_rel",
        [
            ([5.0], 0),  # empty walk: only the stack answers
            ([3.0, 0.0, 1.0, 2.0], 3),  # barrier at the first position
            ([0.0, 0.5, 3.0, 2.0], 3),  # barrier at the last position
            ([2.0, 2.0, 2.0, 2.0], 3),  # plateau: equal is not a record
            ([1.0, 0.0, -0.0, 0.0, 1.0], 4),  # signed zeros tie
            ([0.0, NAN, -1.0, NAN, 1.0], 4),  # NaN stops the walk like a wall
            ([-1.0, NAN, 0.5, 1.0], 3),  # the minimum beyond a NaN is not reached
        ],
    )
    def test_edge_tails(self, tail, p_rel):
        stream = stream_with_tail(tail, 7, [4.0, -2.0, 1.5])
        p, h = 7 + p_rel, tail[p_rel]
        assert repr(stream._left_package(p, h)) == repr(
            expected_package(stream, p, h)
        )


def streamed_dips_digest(trace, sizes, trim_margin):
    """Feed one-shot detrended dips in chunks to a peak stream."""
    detector = PeakDetector()
    dips = 1.0 - piecewise_polynomial_detrend_rows(trace, FS, detector.detrend)
    stream = ExactPeakStream(
        trace.shape[0],
        FS,
        detector.depth_threshold,
        detector.min_separation_s,
        detector.detection_channel,
        trim_margin=trim_margin,
    )
    pos, i = 0, 0
    while pos < dips.shape[1]:
        stream.feed(dips[:, pos : pos + sizes[i % len(sizes)]])
        pos += sizes[i % len(sizes)]
        i += 1
    return report_digest(stream.finish())


class TestWholeStreams:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        decimals=st.sampled_from([None, 2, 3]),
        sizes=st.lists(st.integers(1, 701), min_size=1, max_size=6),
    )
    @example(seed=149, decimals=None, sizes=[1, 4])
    @settings(max_examples=25, deadline=None)
    def test_tight_trim_matches_one_shot(self, seed, decimals, sizes):
        # Rounding makes plateaus and tied prominences; a 32-column trim
        # margin trims, and so extends the stack, many times per trace.
        trace = synthetic_stream_trace(ensure_rng(seed), n_channels=2, n_samples=3000)
        if decimals is not None:
            trace = np.round(trace, decimals)
        assert streamed_dips_digest(trace, sizes, 32) == one_shot_digest(trace)

    @pytest.mark.parametrize(
        "trace, sizes",
        [
            (dip_trace(1024, centers=(512.0,)), [512]),
            (dip_trace(400, centers=(200.0,)), [185, 400]),
            (dip_trace(900, centers=(290.0, 310.0, 640.0)), [7, 640]),
            (dip_trace(900, centers=(290.0, 310.0, 640.0)), [289, 22]),
            (np.round(synthetic_stream_trace(ensure_rng(99), 2, 1500), 2), [40, 7, 333]),
            (dip_trace(37, centers=(18.0,), width=3.0), [512]),
        ],
    )
    def test_pinned_streams_match_one_shot(self, trace, sizes):
        expected = one_shot_digest(trace)
        for trim_margin in (32, 4096):
            assert streamed_dips_digest(trace, sizes, trim_margin) == expected

    def test_peak_on_a_block_edge_keeps_its_amplitude_window(self):
        # A trim may not cut into the amplitude window of a peak the
        # scan has not reached yet: here the peak is the last column of
        # a 5000-column block and a trimmable column sits two before it.
        detector = PeakDetector()
        dips = np.zeros((2, 6000))
        dips[0, 1000] = -1.0  # the global minimum sets the cut level
        dips[0, 4997] = -0.6  # below the cut level
        dips[0, 4999] = 0.5  # the peak
        dips[1, 4996] = 9.0  # inside its amplitude window only
        stream = ExactPeakStream(
            2, FS, detector.depth_threshold, detector.min_separation_s, 0
        )
        stream.feed(dips[:, :5000])
        stream.feed(dips[:, 5000:])
        expected = report_from_dips(detector, dips, FS)
        assert report_digest(stream.finish()) == report_digest(expected)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        sizes=st.lists(st.integers(256, 4096), min_size=1, max_size=4),
    )
    @settings(max_examples=4, deadline=None)
    def test_windowed_detector_past_one_detrend_window(self, seed, sizes):
        # Longer than the 10 s detrend window, so the detrender emits
        # columns mid-stream and the peak stream trims between chunks.
        trace = synthetic_stream_trace(ensure_rng(seed), n_channels=2, n_samples=24_000)
        assert streamed_digest(trace, sizes) == one_shot_digest(trace)


def feed_in_blocks(stream, dips, size):
    for pos in range(0, dips.shape[1], size):
        stream.feed(dips[:, pos : pos + size])
    return stream.finish()


class TestRecordFallback:
    def tall_open_peak(self):
        """Detrended dips with one tall peak that stays open to the end.

        A deep minimum just left of the peak keeps every later sample
        above its left minimum, nothing later is taller, and periodic
        lows between the two let tight trims cut past the peak.
        """
        detector = PeakDetector()
        trace = synthetic_stream_trace(ensure_rng(3), n_channels=2, n_samples=3000)
        dips = 1.0 - piecewise_polynomial_detrend_rows(trace, FS, detector.detrend)
        low = float(dips.min()) - 1.0
        dips[0, 300] = low
        dips[0, 320] = float(dips.max()) + 1.0
        dips[0, 600::300] = 0.75 * low
        return detector, dips

    @pytest.mark.parametrize("size", [1, 37, 100, 512])
    def test_open_peak_across_tight_trims_matches_one_shot(self, size):
        detector, dips = self.tall_open_peak()
        stream = ExactPeakStream(
            2, FS, detector.depth_threshold, detector.min_separation_s, 0,
            trim_margin=32,
        )
        trims_past_peak = 0
        for pos in range(0, dips.shape[1], size):
            base = stream._tail_base
            stream.feed(dips[:, pos : pos + size])
            if stream._tail_base != base and stream._tail_base > 320:
                trims_past_peak += 1
        report = stream.finish()
        assert stream.record_fallbacks >= 1
        assert trims_past_peak >= 3
        assert 320 in [peak.sample_index for peak in report.peaks]
        expected = report_from_dips(detector, dips, FS)
        assert report_digest(report) == report_digest(expected)

    def test_no_fallback_without_tight_trims(self):
        detector, dips = self.tall_open_peak()
        stream = ExactPeakStream(
            2, FS, detector.depth_threshold, detector.min_separation_s, 0
        )
        feed_in_blocks(stream, dips, 512)
        assert stream.record_fallbacks == 0

    def test_no_peak_property_warning(self):
        # The per-feed scipy calls see only peaks with a strictly lower
        # neighbour on each side, so neither zero prominences nor zero
        # widths are reported, feed after feed.
        trace = synthetic_stream_trace(ensure_rng(11), n_channels=2, n_samples=24_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PeakPropertyWarning)
            assert streamed_digest(trace, [512]) == one_shot_digest(trace)


class TestNanWalls:
    """A NaN stops scipy's prominence and width walks (``x <= h`` fails)."""

    def test_nan_stops_the_left_walk(self):
        x = np.zeros((2, 400))
        x[0, [50, 100, 150, 200, 250]] = [0.9, -0.5, NAN, 0.6, -0.3]
        stream = ExactPeakStream(2, 100.0, 0.3, 0.01, 0)
        stream.feed(x)
        report = stream.finish()
        expected = _measure_trace(x, 100.0, 0.3, 1, 0)
        assert report_digest(report) == report_digest(expected)
        assert report.peaks[1].sample_index == 200
        assert report.peaks[1].width_s == 0.01

    @pytest.mark.parametrize("size", [7, 50])
    def test_nan_stops_a_carried_right_walk(self, size):
        # The peak at 40 is carried by records once a trim cuts past
        # it; the NaN then ends its right walk before the sample below
        # its left minimum, so its prominence is 2.5, not 3.
        x = np.zeros((2, 400))
        x[0, [10, 40, 100, 200, 250]] = [-1.0, 2.0, -0.5, NAN, -2.0]
        stream = ExactPeakStream(2, 100.0, 0.3, 0.01, 0, trim_margin=32)
        report = feed_in_blocks(stream, x, size)
        assert stream.record_fallbacks == 1
        expected = _measure_trace(x, 100.0, 0.3, 1, 0)
        assert report_digest(report) == report_digest(expected)
        assert report.peaks[0].width_s == pytest.approx(0.0125)

    def test_nan_in_a_block_keeps_its_minimum_for_the_cut_level(self):
        # The first block holds a NaN and the trace minimum.  The trim's
        # cut level must still see that minimum: cut at a 0.1 sample,
        # the tail would lose the crossing of the peak at 200, whose
        # half-height (0.0) lies below everything between 10 and 200.
        x = np.zeros((2, 400))
        x[0, 5] = NAN
        x[0, 10] = -1.0
        x[0, 11:100] = 0.1
        x[0, 100:200] = 0.6
        x[0, 200] = 1.0
        x[0, 210] = -1.5
        stream = ExactPeakStream(2, 100.0, 0.3, 0.01, 0, trim_margin=32)
        report = feed_in_blocks(stream, x, 50)
        expected = _measure_trace(x, 100.0, 0.3, 1, 0)
        assert report_digest(report) == report_digest(expected)


class TestKeystreamBlockEdges:
    # Empty, around 32 bytes, one 80 KiB stream chunk, and an odd tail.
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 81_920, 100_003])
    @pytest.mark.parametrize(
        "key, nonce",
        [(b"k" * 32, bytes(range(16))), (bytes(range(32, 64)), b"\xff" * 16)],
    )
    def test_same_bytes_as_one_shake_256_call(self, key, nonce, length):
        stream = keystream(key, nonce, length)
        assert len(stream) == length
        assert stream == hashlib.shake_256(key + nonce).digest(length)
