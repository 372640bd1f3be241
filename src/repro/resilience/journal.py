"""Append-only checksummed record journal with crash recovery.

The in-memory :class:`repro.cloud.storage.RecordStore` loses everything
when the serving process dies.  The journal makes committed records
durable: every ``store()`` appends one self-verifying JSONL line, and
after a crash :func:`recover_store` replays the log to reconstruct the
store **bit-identically** — same reports, same sequence numbers, same
timestamps (floats survive the JSON round trip via shortest-repr).

Each line carries two integrity layers:

* the record's own payload checksum (CRC32 over the canonical payload,
  the same value :class:`~repro.cloud.storage.StoredRecord` verifies on
  fetch), and
* a line CRC over the *entire* journal entry, so a torn write or
  bit-flip in the framing itself is also caught.

Replay never propagates corruption: a line that fails either check (or
does not parse) is **quarantined** — counted, reported via a
``record.quarantined`` audit event, and skipped — while every intact
line is restored.  A truncated final line (the classic crash-mid-write
artifact) is quarantined the same way.
"""

import json
import os
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro._util.errors import ConfigurationError
from repro.cloud.storage import (
    RecordStore,
    StoredRecord,
    canonical_json,
    record_payload_dict,
)
from repro.obs import NULL_OBSERVER, RECORD_QUARANTINED, WALL_CLOCK, Clock


# A line is the canonical JSON of {"checksum": C, "crc": K, "payload": P}.
# Sorted keys put the payload last, so the line is composed around the
# payload text P rather than re-serialised, and the line CRC K covers
# the canonical JSON of {"checksum": C, "payload": P}.
def _line_crc(checksum: int, payload_bytes: bytes) -> int:
    crc = zlib.crc32(b'{"checksum":%d,"payload":' % checksum)
    return zlib.crc32(b"}", zlib.crc32(payload_bytes, crc)) & 0xFFFFFFFF


def entry_line(checksum: int, payload_text: str) -> str:
    """:func:`encode_entry` of the record with this checksum and payload text."""
    crc = _line_crc(checksum, payload_text.encode("utf-8"))
    return f'{{"checksum":{checksum},"crc":{crc},"payload":{payload_text}}}'


def encode_entry(record: StoredRecord) -> str:
    """One journal line (without trailing newline) for a record."""
    return entry_line(record.checksum, record.payload_text())


def decode_entry(line: str) -> StoredRecord:
    """Parse and verify one journal line back into a record.

    Raises ``ValueError`` on any integrity violation: unparsable JSON,
    a line CRC mismatch (torn/bit-flipped framing), or a payload
    checksum mismatch (corrupted record contents).
    """
    return decode_entry_with_text(line)[0]


def decode_entry_with_text(line: str) -> Tuple[StoredRecord, Optional[str]]:
    """:func:`decode_entry`, plus the record's canonical payload text.

    The text is the one both integrity checks were computed over.  It
    is the record's own canonical text when every number in the line
    has the type its field decodes to, as :func:`encode_entry` writes;
    for a line accepted only through the round-trip check's lenient
    ``==`` (``3`` where ``3.0`` belongs, ``true`` for ``1``) it is
    ``None`` and the caller encodes the record instead.
    """
    from repro.cloud.api import report_from_dict

    try:
        raw = json.loads(line)
        if not isinstance(raw, dict) or "payload" not in raw or "crc" not in raw:
            raise ValueError("journal entry missing payload/crc framing")
        payload = raw["payload"]
        checksum = int(raw.get("checksum", 0))
        payload_text = canonical_json(payload)
        payload_bytes = payload_text.encode("utf-8")
        expected_crc = _line_crc(checksum, payload_bytes)
        if int(raw["crc"]) != expected_crc:
            raise ValueError("journal line CRC mismatch")
        if checksum != zlib.crc32(payload_bytes) & 0xFFFFFFFF:
            raise ValueError("record payload checksum mismatch")
        metadata = tuple((str(k), str(v)) for k, v in payload["metadata"])
        record = StoredRecord(
            identifier_key=str(payload["identifier"]),
            report=report_from_dict(payload["report"]),
            sequence_number=int(payload["sequence_number"]),
            stored_at_s=float(payload["stored_at_s"]),
            metadata=metadata,
            checksum=checksum,
        )
        # The report round-trips losslessly, so the reconstructed payload
        # must reproduce the journaled one exactly.
        if record_payload_dict(
            record.identifier_key,
            record.report,
            record.sequence_number,
            record.stored_at_s,
            record.metadata,
        ) != payload:
            raise ValueError("journal entry does not round-trip")
    except ValueError:
        raise
    except (KeyError, TypeError, OverflowError) as exc:
        # Structurally surprising JSON (wrong nesting, wrong types):
        # normalise to the documented ValueError contract.
        raise ValueError(f"journal entry malformed: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("journal entry malformed: nested too deeply") from exc
    return record, payload_text if _exact_number_types(payload) else None


def _exact_number_types(payload) -> bool:
    """Whether an accepted payload holds ints and floats where its record does."""
    report = payload["report"]
    peaks = report["peaks"]
    floats = {
        type(payload["stored_at_s"]),
        type(report["duration_s"]),
        type(report["sampling_rate_hz"]),
    }
    floats.update(
        type(peak[key]) for peak in peaks for key in ("time_s", "depth", "width_s")
    )
    floats.update(type(a) for peak in peaks for a in peak["amplitudes"])
    ints = {type(payload["sequence_number"]), type(report["detection_channel"])}
    ints.update(type(peak["sample_index"]) for peak in peaks)
    return floats == {float} and ints == {int}


@dataclass(frozen=True)
class QuarantinedEntry:
    """One journal line that failed verification during replay."""

    line_number: int
    reason: str


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of a journal replay."""

    records: Tuple[StoredRecord, ...]
    quarantined: Tuple[QuarantinedEntry, ...]

    @property
    def n_recovered(self) -> int:
        return len(self.records)

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)


class RecordJournal:
    """Append-only durable log of committed records.

    Pass an instance as ``RecordStore(journal=...)``; the store appends
    every committed record under its own lock, so the journal sees
    records in commit order.

    Parameters
    ----------
    path:
        JSONL file to append to (created on first append).
    fsync:
        Flush-to-disk per append.  Defaults off — the chaos runner's
        crash model is process death, not power loss, and per-record
        fsync dominates runtime in tests.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        if not path:
            raise ConfigurationError("journal path must be non-empty")
        self.path = path
        self.fsync = fsync
        self._handle = None
        self.entries_written = 0

    def append(self, record: StoredRecord, payload_text: Optional[str] = None) -> None:
        """Durably append one committed record.

        ``payload_text`` is the record's canonical payload text when the
        caller already derived it (the store at commit time, a standby
        that just verified the shipped line); without it the record is
        encoded here.
        """
        if payload_text is None:
            payload_text = record.payload_text()
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(entry_line(record.checksum, payload_text) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.entries_written += 1

    def close(self) -> None:
        """Close the file handle (a later append reopens it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RecordJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: Content cap per journal line during replay.  Honest entries are a
#: few KB (one record's JSON); 1 MiB admits even absurdly peak-dense
#: reports while a maliciously huge line is skimmed in bounded chunks
#: and quarantined instead of ballooning recovery memory.
MAX_JOURNAL_LINE_BYTES = 1 << 20


def _capped_lines(handle, max_line_bytes: int):
    """Yield ``(line_number, line_or_none)``; an over-cap line yields
    ``None`` after its tail is skimmed (never held) in bounded reads."""
    line_number = 0
    while True:
        chunk = handle.readline(max_line_bytes + 1)
        if not chunk:
            return
        line_number += 1
        if len(chunk) > max_line_bytes and not chunk.endswith("\n"):
            while True:
                tail = handle.readline(max_line_bytes)
                if not tail or tail.endswith("\n"):
                    break
            yield line_number, None
        else:
            yield line_number, chunk


def replay_journal(
    path: str,
    observer=NULL_OBSERVER,
    max_line_bytes: int = MAX_JOURNAL_LINE_BYTES,
) -> ReplayResult:
    """Read a journal back, quarantining corrupt lines.

    Every intact entry is returned in journal order; every damaged one
    becomes a :class:`QuarantinedEntry` with a ``record.quarantined``
    audit event and a ``journal.quarantined`` counter increment —
    corruption is surfaced, never silently loaded or silently dropped.
    A missing journal file replays to an empty result (a store that
    never committed anything has nothing to recover).  Lines longer
    than ``max_line_bytes`` are quarantined without ever being read
    into memory whole (an attacker-controlled journal cannot turn
    recovery into an allocation bomb).
    """
    if max_line_bytes < 1:
        raise ConfigurationError("max_line_bytes must be >= 1")
    records: List[StoredRecord] = []
    quarantined: List[QuarantinedEntry] = []
    if not os.path.exists(path):
        return ReplayResult(records=(), quarantined=())
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in _capped_lines(handle, max_line_bytes):
            if line is None:
                entry = QuarantinedEntry(
                    line_number=line_number,
                    reason=f"line exceeds {max_line_bytes} byte cap",
                )
                quarantined.append(entry)
                observer.incr("journal.quarantined")
                observer.incr("journal.oversized_lines")
                observer.event(
                    RECORD_QUARANTINED,
                    journal=path,
                    line_number=line_number,
                    reason=entry.reason,
                )
                continue
            line = line.strip()
            if not line:
                continue
            try:
                records.append(decode_entry(line))
            except (ValueError, KeyError, TypeError) as exc:
                entry = QuarantinedEntry(line_number=line_number, reason=str(exc))
                quarantined.append(entry)
                observer.incr("journal.quarantined")
                observer.event(
                    RECORD_QUARANTINED,
                    journal=path,
                    line_number=line_number,
                    reason=entry.reason,
                )
    observer.incr("journal.replayed", len(records))
    return ReplayResult(records=tuple(records), quarantined=tuple(quarantined))


def recover_store(
    path: str,
    clock: Clock = WALL_CLOCK,
    observer=NULL_OBSERVER,
    journal: Optional[RecordJournal] = None,
) -> Tuple[RecordStore, ReplayResult]:
    """Rebuild a :class:`RecordStore` from its journal after a crash.

    Returns the recovered store plus the replay result (so callers can
    check ``n_quarantined`` and alarm).  Committed records come back
    bit-identical — original sequence numbers and timestamps included —
    and new stores continue the sequence from the highest recovered
    number.  Pass ``journal`` to resume journaling into the same (or a
    fresh) log.
    """
    replay = replay_journal(path, observer=observer)
    store = RecordStore(clock=clock, observer=observer, journal=journal)
    for record in replay.records:
        store._restore(record)
    return store, replay
