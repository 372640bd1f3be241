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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util.rng import ensure_rng
from repro.crypto.keyshare import keystream
from repro.dsp import PeakDetector
from repro.dsp.detrend import piecewise_polynomial_detrend_rows
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
            ([0.0, NAN, -1.0, NAN, 1.0], 4),  # NaN neither stops nor records
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
