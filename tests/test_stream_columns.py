"""Column-backed peak reports and the stream path that emits them.

``ExactPeakStream.finish`` returns a report that holds its peaks as
:class:`~repro.dsp.peakdetect.PeakColumns` and builds
:class:`~repro.dsp.peakdetect.DetectedPeak` rows only when ``.peaks`` is
read.  Such a report must be indistinguishable from the same peaks
built as rows: same dict, same digest bytes, same count, times, epoch
slices and row fields, float bits included (``-0.0``, NaN, ±inf).
Closing a streamed session must build no rows at all, and the rows,
once read, must equal one-shot detection's.  The seed-4 ``stream``
benchmark captures pin how rarely the trim still sends an open peak to
the record fallback.
"""

import pickle
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util.rng import ensure_rng
from repro.cloud.api import report_to_dict
from repro.cloud.storage import canonical_json
from repro.dsp.peakdetect import DetectedPeak, PeakColumns, PeakDetector, PeakReport
from repro.dsp.windowed import WindowedPeakDetector
from repro.stream import StreamGateway, report_digest, synthetic_stream_trace
from repro.stream.session import DeviceStreamer
from tests.test_stream_exact import FS

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

INF = float("inf")
cells = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), INF, -INF, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def rectangular_peaks(draw):
    """``(n, c)`` cells for every column, any int64 sample index."""
    n = draw(st.integers(0, 6))
    c = draw(st.integers(1, 4))
    column = st.lists(cells, min_size=n, max_size=n)
    return PeakColumns(
        time_s=np.array(draw(column), dtype=float),
        depth=np.array(draw(column), dtype=float),
        width_s=np.array(draw(column), dtype=float),
        amplitudes=np.array(
            draw(st.lists(st.lists(cells, min_size=c, max_size=c), min_size=n, max_size=n)),
            dtype=float,
        ).reshape(n, c),
        sample_index=np.array(draw(st.lists(int64, min_size=n, max_size=n)), dtype=np.int64),
    )


def row_built(columns, *header):
    """The same peaks built as rows, independently of the column report."""
    return PeakReport(
        tuple(
            DetectedPeak(t, d, w, a.copy(), i)
            for t, d, w, a, i in zip(
                columns.time_s.tolist(),
                columns.depth.tolist(),
                columns.width_s.tolist(),
                columns.amplitudes,
                columns.sample_index.tolist(),
            )
        ),
        *header,
    )


def bits(value):
    return struct.pack("<d", value)


def assert_rows_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert bits(a.time_s) == bits(b.time_s)
        assert bits(a.depth) == bits(b.depth)
        assert bits(a.width_s) == bits(b.width_s)
        assert a.amplitudes.dtype == b.amplitudes.dtype
        assert a.amplitudes.shape == b.amplitudes.shape
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
        assert type(a.sample_index) is type(b.sample_index) is int
        assert a.sample_index == b.sample_index


class TestColumnsAgreeWithRows:
    @given(
        columns=rectangular_peaks(),
        duration_s=cells,
        window=st.tuples(cells, cells),
    )
    @example(
        columns=PeakColumns(
            np.empty(0), np.empty(0), np.empty(0), np.empty((0, 1)),
            np.empty(0, dtype=np.int64),
        ),
        duration_s=0.0,
        window=(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_view_agrees(self, columns, duration_s, window):
        header = (duration_s, 450.0, 0)
        rows = row_built(columns, *header)
        backed = PeakReport.from_columns(columns, *header)
        # Column reads first: none of them may need the rows.
        assert canonical_json(report_to_dict(backed)) == canonical_json(
            report_to_dict(rows)
        )
        assert report_digest(backed) == report_digest(rows)
        assert backed.count == rows.count
        assert backed.times().dtype == rows.times().dtype == np.float64
        assert backed.times().tobytes() == rows.times().tobytes()
        assert backed._peaks is None
        assert_rows_equal(backed.peaks, rows.peaks)
        assert_rows_equal(backed.peaks_between(*window), rows.peaks_between(*window))

    def test_rows_are_built_once_and_the_report_stays_frozen(self):
        columns = PeakColumns(
            np.array([0.5]), np.array([0.1]), np.array([0.01]),
            np.array([[0.2, 0.3]]), np.array([225]),
        )
        report = PeakReport.from_columns(columns, 1.0, 450.0, 0)
        assert report.peaks is report.peaks
        with pytest.raises(AttributeError):
            report.duration_s = 2.0

    def test_pickles_as_columns(self):
        columns = PeakColumns(
            np.array([0.5, -0.0]), np.array([0.1, INF]), np.array([0.01, 0.02]),
            np.array([[0.2], [np.nan]]), np.array([225, 2**62]),
        )
        report = PeakReport.from_columns(columns, 1.0, 450.0, 0)
        clone = pickle.loads(pickle.dumps(report))
        assert clone.columns is not None
        assert report_digest(clone) == report_digest(report)


class TestStreamedCloseBuildsNoRows:
    def test_close_builds_no_rows_and_rows_match_one_shot(self, monkeypatch):
        # Past one 10 s detrend window, so the peak stream measures and
        # trims between chunks, not only at the close.
        trace = synthetic_stream_trace(ensure_rng(5), n_channels=2, n_samples=24_000)
        gateway = StreamGateway(b"column-test-secret")
        built = []
        original = DetectedPeak.__post_init__

        def counting(peak):
            built.append(peak)
            original(peak)

        monkeypatch.setattr(DetectedPeak, "__post_init__", counting)
        streamer = DeviceStreamer(trace, FS, "clinic-00", b"column-test-secret")
        outcome = streamer.run(gateway)
        assert built == []
        assert outcome.n_samples == 24_000 and outcome.report.count > 0
        monkeypatch.setattr(DetectedPeak, "__post_init__", original)
        one_shot = PeakDetector().detect(trace, FS)
        assert outcome.digest == report_digest(one_shot)
        assert_rows_equal(outcome.report.peaks, one_shot.peaks)


@pytest.fixture(scope="module")
def seed4_captures():
    """The four seed-4 ``stream`` benchmark captures (120 s each)."""
    sys.path.insert(0, str(E2E))
    try:
        from workloads import StreamWorkload
    finally:
        sys.path.remove(str(E2E))
    workload = StreamWorkload(4)
    return workload.traces, workload.sampling_rate_hz


class TestTrimKeepsOpenPeaksBatched:
    def test_record_fallbacks_over_the_seed4_captures(self, seed4_captures):
        # A trim stops at an open peak's crossing bound while the tail
        # stays within the margin, so only peaks open longer than that
        # go to the record fallback: 42 per pass (85 when every trim
        # cut past open peaks).
        traces, rate = seed4_captures
        fallbacks = 0
        for trace in traces:
            detector = WindowedPeakDetector(trace.shape[0], rate)
            for pos in range(0, trace.shape[1], 2048):
                detector.feed(trace[:, pos : pos + 2048])
            report = detector.finish()
            assert report_digest(report) == report_digest(
                PeakDetector().detect(trace, rate)
            )
            fallbacks += detector._peaks.record_fallbacks
        assert fallbacks == 42
