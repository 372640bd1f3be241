"""Column-backed reports on the one-shot session path, and report equality.

The fused detector emits a column-backed ``PeakReport``; admission
checks it with vectorised tests and keeps read-only copies of its
columns; the decryptor reads the columns.  So one unsealed
``MedSenSession.run_diagnostic`` builds no ``DetectedPeak`` at all, and
a stored record costs a few float64/int64 cells per peak rather than a
Python object and a small ndarray.

Reports compare by value, whatever form holds them: floats as IEEE
values, amplitude rows as arrays, the hash over the header and the
sample indices.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import CytoIdentifier, MedSenSession, Sample
from repro.cloud.storage import RecordStore
from repro.dsp.peakdetect import DetectedPeak, PeakColumns, PeakDetector, PeakReport
from repro.particles import BLOOD_CELL


def rows_report(time_s, amplitudes, duration_s=1.0):
    return PeakReport(
        (DetectedPeak(time_s, 0.1, 0.01, amplitudes, 225),), duration_s, 450.0, 0
    )


def column_report(time_s, amplitudes, duration_s=1.0):
    columns = PeakColumns(
        np.array([time_s]),
        np.array([0.1]),
        np.array([0.01]),
        np.array([amplitudes], dtype=float),
        np.array([225]),
    )
    return PeakReport.from_columns(columns, duration_s, 450.0, 0)


FORMS = [rows_report, column_report]


class TestReportEquality:
    @pytest.mark.parametrize("left", FORMS)
    @pytest.mark.parametrize("right", FORMS)
    @pytest.mark.parametrize("n_channels", [1, 5])
    def test_equal_values_compare_and_hash_equal(self, left, right, n_channels):
        a = np.arange(1.0, n_channels + 1.0)
        one, other = left(0.5, a), right(0.5, a.copy())
        assert one == other and other == one
        assert hash(one) == hash(other)
        assert one != left(0.5, a + 1.0)
        assert one != left(0.25, a)
        assert one != left(0.5, a, duration_s=2.0)
        assert {one, other} == {one}

    @pytest.mark.parametrize("left", FORMS)
    @pytest.mark.parametrize("right", FORMS)
    def test_negative_zero_equals_zero(self, left, right):
        one, other = left(-0.0, [-0.0, 1.0]), right(0.0, [0.0, 1.0])
        assert one == other
        assert hash(one) == hash(other)

    @pytest.mark.parametrize("left", FORMS)
    @pytest.mark.parametrize("right", FORMS)
    def test_nan_equals_only_its_own_report(self, left, right):
        one = left(0.5, [float("nan"), 1.0])
        assert one == one
        assert one != right(0.5, [float("nan"), 1.0])
        assert hash(one) == hash(one)

    def test_empty_reports(self):
        empty_columns = PeakColumns(
            np.empty(0), np.empty(0), np.empty(0), np.empty((0, 5)),
            np.empty(0, dtype=np.int64),
        )
        rows = PeakReport((), 1.0, 450.0, 0)
        columns = PeakReport.from_columns(empty_columns, 1.0, 450.0, 0)
        assert rows == columns and columns == rows
        assert hash(rows) == hash(columns)
        assert columns == PeakReport.from_columns(
            empty_columns._replace(amplitudes=np.empty((0, 1))), 1.0, 450.0, 0
        )
        assert columns != rows_report(0.5, [1.0])

    def test_columns_compare_without_rows(self):
        a = np.array([1.0, 2.0, 3.0])
        one, other = column_report(0.5, a), column_report(0.5, a.copy())
        assert one == other
        assert hash(one) == hash(other)
        assert one._peaks is None and other._peaks is None

    def test_peaks_compare_and_hash(self):
        one = DetectedPeak(0.5, 0.1, 0.01, np.array([1.0, 2.0]), 225)
        other = DetectedPeak(0.5, 0.1, 0.01, np.array([1.0, 2.0]), 225)
        assert one == other and hash(one) == hash(other)
        assert one != DetectedPeak(0.5, 0.1, 0.01, np.array([1.0, 2.5]), 225)
        assert one != DetectedPeak(0.5, 0.1, 0.01, np.array([1.0]), 225)


def session_run(seed=7, duration_s=20.0):
    session = MedSenSession(rng=seed)
    identifier = CytoIdentifier(session.config.alphabet, levels=(2, 3))
    session.authenticator.register("patient", identifier)
    blood = Sample.from_concentrations({BLOOD_CELL: 600.0}, volume_ul=10.0, rng=seed)
    result = session.run_diagnostic(blood, identifier, duration_s=duration_s, rng=seed)
    return session, result


class TestSessionBuildsNoRows:
    def test_run_diagnostic_builds_no_detected_peak(self, monkeypatch):
        built = []
        original = DetectedPeak.__post_init__

        def counting(peak):
            built.append(peak)
            original(peak)

        monkeypatch.setattr(DetectedPeak, "__post_init__", counting)
        session, result = session_run()
        assert built == []
        assert result.auth.accepted and result.relay.report.count > 100
        record = session.store.fetch_latest(result.record_key)
        assert record.report.columns is not None
        assert record.report == result.relay.report
        assert built == []

    def test_stored_records_cost_under_100_bytes_per_peak(self):
        # Each record keeps what the store admitted after the detector's
        # report is dropped, as in a session.  Row-built records cost
        # ~378 B per peak measured this way.
        _, result = session_run()
        trace = result.capture.trace
        detector = PeakDetector()
        store = RecordStore()

        def store_one():
            store.store("patient", detector.detect(trace.voltages, trace.sampling_rate_hz))

        n_records = 10
        tracemalloc.start()
        try:
            # The warm-up stores fill the interpreter's free lists, which
            # tracemalloc would otherwise charge to the measured ones.
            for _ in range(2):
                store_one()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(n_records):
                store_one()
            gc.collect()
            charged = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        records = store.fetch("patient")
        assert all(record.report.columns is not None for record in records)
        # 5 amplitude, 3 float and 1 index cells = 72 B, plus the record.
        assert charged / (n_records * result.relay.report.count) <= 100
