"""Differential tests: the record codec against its dict-and-dumps oracle.

``repro.cloud.storage`` encodes a record's payload once and composes the
checksum, the journal line and the content hash around that one text;
``tests/_record_codec_oracle.py`` builds and serialises a dict for each
of them.  On every record — identifiers and metadata full of quotes,
backslashes, non-ASCII and control characters; reports with no peaks,
signed zeros, subnormals, non-finite cells and huge sample indices — the
two must produce the same bytes.  On every journal line, intact or
mutated (bit flips, inserted whitespace, reordered or duplicated keys,
truncation, numbers retyped under recomputed CRCs), ``decode_entry``
must accept or refuse exactly as the oracle does, with the same error.
"""

import json
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.storage import (
    RecordStore,
    StoredRecord,
    payload_checksum,
    record_content_hash,
)
from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.obs import ManualClock
from repro.resilience.journal import (
    RecordJournal,
    decode_entry,
    decode_entry_with_text,
    encode_entry,
    entry_line,
)

from tests import _record_codec_oracle as oracle

EXAMPLES = max(200, settings().max_examples)
DIFFERENTIAL = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Characters JSON escapes or that need more than one UTF-8 byte.
AWKWARD = '"\\/\x00\x01\x1f\x7f\x80\xe9\u2028\u2029\ufeff\U0001F600\U000103FF'
TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(AWKWARD), st.characters(exclude_categories=())),
    max_size=10,
)
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
    0.1, 1e16, 1e22,
]
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-1000, 1000).map(float),
)
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-1000, 1000).map(float),
)
BIG_INTS = st.one_of(st.integers(0, 10**6), st.integers(-(2**70), 2**70))


def peaks(floats):
    return st.lists(
        st.builds(
            DetectedPeak,
            time_s=floats,
            depth=floats,
            width_s=floats,
            amplitudes=st.lists(floats, min_size=1, max_size=4),
            sample_index=BIG_INTS,
        ),
        max_size=5,
    )


def reports(floats=FLOATS, duration=FLOATS):
    return st.builds(
        PeakReport,
        peaks=peaks(floats),
        duration_s=duration,
        sampling_rate_hz=duration,
        detection_channel=st.integers(0, 16),
    )


METADATA = st.dictionaries(TEXT, TEXT, max_size=3).map(lambda d: tuple(sorted(d.items())))


@st.composite
def records(draw, floats=FLOATS):
    report = draw(reports(floats))
    record = StoredRecord(
        identifier_key=draw(TEXT.filter(bool)),
        report=report,
        sequence_number=draw(st.integers(0, 2**64)),
        stored_at_s=draw(floats),
        metadata=draw(METADATA),
    )
    checksum = draw(
        st.one_of(
            st.just(oracle.payload_checksum(oracle.record_payload(record))),
            st.just(0),
            st.integers(0, 2**32 - 1),
        )
    )
    return StoredRecord(
        identifier_key=record.identifier_key,
        report=report,
        sequence_number=record.sequence_number,
        stored_at_s=record.stored_at_s,
        metadata=record.metadata,
        checksum=checksum,
    )


def outcome(decode, line):
    """What a decoder makes of a line: the record's oracle bytes, or its error."""
    try:
        record = decode(line)
    except Exception as exc:  # the error type is part of the contract
        return ("refused", type(exc).__name__, str(exc))
    return ("accepted", oracle.encode_entry(record))


def assert_decodes_like_oracle(line):
    expected = outcome(oracle.decode_entry, line)
    assert outcome(decode_entry, line) == expected
    if expected[0] == "refused":
        with pytest.raises(ValueError):
            decode_entry_with_text(line)
        return
    # What a standby does with the line: it hashes and re-journals the
    # text it verified, or re-encodes the record when that text is not
    # the record's own.  Both must give the oracle's bytes.
    record, text = decode_entry_with_text(line)
    canonical = oracle.canonical(oracle.record_payload(record))
    assert text is None or text == canonical
    assert entry_line(record.checksum, text or record.payload_text()) == expected[1]
    assert record_content_hash(record, text) == oracle.record_content_hash(record)


def recrc(payload, checksum=None):
    """A line around ``payload`` with CRCs recomputed, as a writer would."""
    if checksum is None:
        checksum = oracle.payload_checksum(payload)
    crc = zlib.crc32(oracle.canonical({"checksum": checksum, "payload": payload}).encode())
    return oracle.canonical({"checksum": checksum, "crc": crc & 0xFFFFFFFF, "payload": payload})


class TestEncodeParity:
    @DIFFERENTIAL
    @given(records())
    def test_line_checksum_and_hash(self, record):
        payload = oracle.record_payload(record)
        text = record.payload_text()
        assert text == oracle.canonical(payload)
        assert payload_checksum(record.payload()) == oracle.payload_checksum(payload)
        assert encode_entry(record) == oracle.encode_entry(record)
        assert entry_line(record.checksum, text) == oracle.encode_entry(record)
        assert record_content_hash(record) == oracle.record_content_hash(record)
        assert record_content_hash(record, text) == oracle.record_content_hash(record)
        assert record.verify() == (
            record.checksum == 0 or record.checksum == oracle.payload_checksum(payload)
        )

    @DIFFERENTIAL
    @given(
        st.lists(
            st.tuples(
                TEXT.filter(lambda k: k and k == k.strip() and not {"\n", "\r"} & set(k)),
                reports(FINITE, st.floats(1e-3, 1e6)),
                # The store admits string metadata values only.
                st.dictionaries(TEXT, TEXT, max_size=3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_store_and_journal_write_oracle_bytes(self, tmp_path_factory, stores):
        path = str(tmp_path_factory.mktemp("codec") / "records.journal")
        journal = RecordJournal(path)
        store = RecordStore(clock=ManualClock(3.25), journal=journal)
        committed = [store.store(key, report, metadata=meta) for key, report, meta in stores]
        journal.close()
        for record in committed:
            assert record.checksum == oracle.payload_checksum(oracle.record_payload(record))
        with open(path, encoding="utf-8") as handle:
            assert handle.read().splitlines() == [oracle.encode_entry(r) for r in committed]
        for record, text in store.fetch_with_texts(committed[0].identifier_key):
            assert text == oracle.canonical(oracle.record_payload(record))


def bit_flip(line, data):
    at = data.draw(st.integers(0, len(line) - 1))
    flipped = chr(ord(line[at]) ^ (1 << data.draw(st.integers(0, 6))))
    return line[:at] + flipped + line[at + 1:]


def insert_whitespace(line, data):
    at = data.draw(st.integers(0, len(line)))
    return line[:at] + data.draw(st.sampled_from([" ", "\t", "\n", "\r", "  "])) + line[at:]


def truncate(line, data):
    return line[: data.draw(st.integers(0, len(line) - 1))]


def reorder_keys(line, data):
    raw = json.loads(line)
    raw["payload"] = dict(reversed(list(raw["payload"].items())))
    raw = dict(reversed(list(raw.items())))
    return json.dumps(raw, separators=data.draw(st.sampled_from([(",", ":"), (", ", ": ")])))


def duplicate_key(line, data):
    # Earlier duplicates lose to the line's own keys; later ones win.
    key, value = data.draw(
        st.sampled_from(
            [
                ('"crc"', "0"),
                ('"checksum"', "1"),
                ('"payload"', "{}"),
                ('"identifier"', '"x"'),
                ('"sequence_number"', "7"),
            ]
        )
    )
    pair = f"{key}:{value}"
    if key in ('"identifier"', '"sequence_number"'):
        head = '"payload":{'
        at = line.index(head) + len(head)
        return line[:at] + pair + "," + line[at:]
    if data.draw(st.booleans()):
        return "{" + pair + "," + line[1:]
    return line[:-1] + "," + pair + "}"


def retype_number(line, data):
    """Swap one number for another type of equal value; CRCs recomputed."""
    raw = json.loads(line)
    payload = raw["payload"]
    report = payload["report"]
    slots = [(payload, "sequence_number"), (payload, "stored_at_s")]
    slots += [(report, key) for key in ("duration_s", "sampling_rate_hz", "detection_channel")]
    for peak in report["peaks"]:
        slots += [(peak, key) for key in ("time_s", "depth", "width_s", "sample_index")]
        slots += [(peak["amplitudes"], i) for i in range(len(peak["amplitudes"]))]
    container, key = data.draw(st.sampled_from(slots))
    value = container[key]
    if isinstance(value, float) and value.is_integer():
        swapped = bool(value) if value in (0, 1) else int(value)
        container[key] = data.draw(st.sampled_from([int(value), swapped]))
    elif isinstance(value, int) and not isinstance(value, bool):
        container[key] = data.draw(st.sampled_from([float(value), value == 1]))
    elif data.draw(st.booleans()):
        container[key] = data.draw(st.sampled_from([0, 1, True, "1", None, [value]]))
    return recrc(payload, data.draw(st.one_of(st.none(), st.just(raw["checksum"]))))


def reshape_payload(line, data):
    """Add, drop or nest a payload field; CRCs recomputed."""
    payload = json.loads(line)["payload"]
    choice = data.draw(st.integers(0, 4))
    if choice == 0:
        payload["extra"] = 1
    elif choice == 1:
        del payload[data.draw(st.sampled_from(sorted(payload)))]
    elif choice == 2 and payload["report"]["peaks"]:
        peak = payload["report"]["peaks"][0]
        peak["amplitudes"] = [[a] for a in peak["amplitudes"]]
    elif choice == 3:
        payload["metadata"] = [["k", 5]]
    else:
        payload["report"] = data.draw(st.sampled_from([[], None, "r", {"peaks": 1}]))
    return recrc(payload)


MUTATIONS = [
    bit_flip,
    insert_whitespace,
    truncate,
    reorder_keys,
    duplicate_key,
    retype_number,
    reshape_payload,
]


class TestDecodeParity:
    @DIFFERENTIAL
    @given(records(FINITE))
    def test_intact_lines(self, record):
        line = oracle.encode_entry(record)
        assert_decodes_like_oracle(line)
        if outcome(oracle.decode_entry, line)[0] == "accepted":
            decoded, text = decode_entry_with_text(line)
            assert text == oracle.canonical(oracle.record_payload(record))

    @DIFFERENTIAL
    @given(records(), st.sampled_from(MUTATIONS), st.data())
    def test_mutated_lines(self, record, mutate, data):
        assert_decodes_like_oracle(mutate(oracle.encode_entry(record), data))

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "null",
            "[]",
            "{}",
            '{"crc":1}',
            '{"payload":{},"crc":"x"}',
            '{"payload":{},"crc":1,"checksum":1e400}',
            '{"payload":{},"crc":1,"checksum":"nope"}',
            '{"payload":NaN,"crc":0}',
            "\ud800",
        ],
    )
    def test_garbage_lines(self, line):
        assert_decodes_like_oracle(line)

    def test_float_where_an_int_belongs_is_accepted_but_not_reused(self):
        report = PeakReport(
            (DetectedPeak(1.5, 0.25, 0.01, np.array([2.0, -0.0]), 675),), 10.0, 450.0, 0
        )
        record = StoredRecord("id", report, 3, 4.0)
        payload = oracle.record_payload(record)
        payload["sequence_number"] = 3.0
        payload["report"]["peaks"][0]["amplitudes"][0] = 2
        line = recrc(payload)
        assert_decodes_like_oracle(line)
        decoded, text = decode_entry_with_text(line)
        assert text is None
        assert decoded.sequence_number == 3
