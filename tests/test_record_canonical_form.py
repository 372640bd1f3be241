"""One canonical record form, fixed where the store admits a record.

The journal decodes every real in a report as ``float``, every index as
``int`` and every metadata value as ``str``.  Admission accepts more
than that (an ``int`` duration, a ``bool`` sample index, a numpy
scalar), so the store converts each report to the decoded form and
refuses metadata values that are not strings.  Every admitted record
then replays to itself: the same journal text and the same content hash
on the primary, after ``recover_store``, and on a standby
(``tests/test_fleet_shipping.py``).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import AdmissionError
from repro.cloud.storage import RecordStore, record_content_hash
from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.obs import ManualClock
from repro.resilience import RecordJournal, recover_store
from repro.resilience.journal import decode_entry, decode_entry_with_text, encode_entry

# Admission's own rules, as strategies: every value here is admitted.
REALS = st.floats(allow_nan=False, allow_infinity=False, width=64)
POSITIVE = st.floats(min_value=1e-3, max_value=1e6)
INDICES = st.integers(0, 2**40)


def numbers(floats, ints, bools):
    """Floats, and every other type admission reads with ``float()``."""
    return st.one_of(floats, ints, bools, floats.map(np.float64), ints.map(np.int64))


def indices():
    """What admission reads with ``operator.index``."""
    return st.one_of(INDICES, INDICES.map(np.int64), st.booleans())


PEAK_REALS = numbers(REALS, st.integers(-(10**6), 10**6), st.booleans())
ADMITTED_PEAKS = st.builds(
    DetectedPeak,
    time_s=PEAK_REALS,
    depth=PEAK_REALS,
    width_s=PEAK_REALS,
    amplitudes=st.one_of(
        st.lists(REALS, min_size=1, max_size=4),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        REALS,
    ),
    sample_index=indices(),
)
ADMITTED_REPORTS = st.builds(
    PeakReport,
    peaks=st.lists(ADMITTED_PEAKS, max_size=4),
    duration_s=numbers(POSITIVE, st.integers(1, 10**4), st.just(True)),
    sampling_rate_hz=numbers(POSITIVE, st.integers(1, 10**4), st.just(True)),
    detection_channel=indices(),
)
ADMITTED_KEYS = st.text(min_size=1, max_size=40).filter(
    lambda key: key == key.strip() and not {"\n", "\r"} & set(key)
)
ADMITTED_METADATA = st.one_of(
    st.none(), st.dictionaries(st.text(max_size=8), st.text(max_size=20), max_size=4)
)
ADMITTED_STORES = st.tuples(ADMITTED_KEYS, ADMITTED_REPORTS, ADMITTED_METADATA)
PROPERTY = settings(max_examples=max(100, settings().max_examples), deadline=None)


def assert_replays_to(decoded, record):
    """``decoded`` is ``record``: fields, journal text and content hash."""
    assert decoded.payload() == record.payload()
    assert decoded.payload_text() == record.payload_text()
    assert encode_entry(decoded) == encode_entry(record)
    assert record_content_hash(decoded) == record_content_hash(record)
    for got, want in zip(decoded.report.peaks, record.report.peaks):
        np.testing.assert_array_equal(got.amplitudes, want.amplitudes)


class TestRepros:
    def test_non_string_metadata_refused_before_the_log(self):
        store = RecordStore(clock=ManualClock(1.0))
        report = PeakReport((), 10.0, 450.0, 0)
        with pytest.raises(AdmissionError, match="metadata value visit has type int"):
            store.store("id-a", report, metadata={"visit": 3})
        assert store.n_records == 0
        record = store.store("id-a", report, metadata={"visit": "3"})
        assert record.sequence_number == 1
        assert decode_entry(encode_entry(record)).metadata == (("visit", "3"),)

    def test_int_typed_report_hashes_the_same_after_a_round_trip(self):
        # Stored as ints, this record hashed to 21f2de9f6a22f9902236a6e2
        # on the primary and to 13cb7a82465661d48d047337 once replayed.
        store = RecordStore(clock=ManualClock(1.0))
        record = store.store("id-b", PeakReport((), 10, 450, 0))
        assert record.report.duration_s == 10.0
        assert type(record.report.duration_s) is float
        decoded = decode_entry(encode_entry(record))
        assert record_content_hash(record) == "13cb7a82465661d48d047337"
        assert record_content_hash(decoded) == "13cb7a82465661d48d047337"

    def test_multichannel_amplitude_rows_refused(self):
        peak = DetectedPeak(0.5, 0.01, 0.02, np.ones((2, 2)), 7)
        with pytest.raises(AdmissionError, match="not a flat array"):
            RecordStore().store("id-a", PeakReport((peak,), 2.0, 450.0, 0))

    def test_fractional_sample_index_refused(self):
        peak = DetectedPeak(0.5, 0.01, 0.02, np.ones(2), 7.5)
        with pytest.raises(AdmissionError, match="unreadable report"):
            RecordStore().store("id-a", PeakReport((peak,), 2.0, 450.0, 0))


class TestAdmittedRecordsReplay:
    @PROPERTY
    @given(ADMITTED_STORES)
    def test_primary_round_trip(self, stored):
        key, report, metadata = stored
        record = RecordStore(clock=ManualClock(2.5)).store(key, report, metadata)
        decoded, text = decode_entry_with_text(encode_entry(record))
        assert text == record.payload_text()
        assert_replays_to(decoded, record)

    def test_recovered_store(self, tmp_path):
        counter = itertools.count()

        @PROPERTY
        @given(st.lists(ADMITTED_STORES, min_size=1, max_size=3))
        def check(stores):
            path = str(tmp_path / f"records-{next(counter)}.journal")
            store = RecordStore(clock=ManualClock(2.5), journal=RecordJournal(path))
            committed = [store.store(*stored) for stored in stores]
            store.journal.close()
            recovered, replay = recover_store(path)
            assert replay.n_quarantined == 0
            assert recovered.n_records == len(committed)
            for record in committed:
                (match,) = [
                    r
                    for r in recovered.fetch(record.identifier_key)
                    if r.sequence_number == record.sequence_number
                ]
                assert_replays_to(match, record)

        check()
