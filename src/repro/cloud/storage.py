"""Cloud record storage keyed by cyto-coded identifiers (paper §V).

"The diagnostic information can be returned to a patient or stored in
cloud for a later access by the patient's practitioner."  Records are
keyed by the identifier string — which "carries no biometric
information" — so the store itself learns nothing about the patient
beyond linkability of their own records (by design: the same pipettes
link the same patient's tests, §V).

Durability and integrity (repro.resilience):

* every :class:`StoredRecord` carries a CRC32 **checksum** over its
  canonical payload, verified on every fetch — a tampered or
  bit-rotted record raises :class:`RecordCorrupted` instead of
  returning garbage;
* a missing identifier raises the typed :class:`RecordNotFound`
  (still a ``LookupError`` for backwards compatibility);
* an optional **journal** (see :mod:`repro.resilience.journal`) makes
  the store crash-recoverable: every committed record is appended to
  an append-only checksummed log that replay reconstructs
  bit-identically.
"""

import hashlib
import json
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro._util.errors import ConfigurationError, MedSenError
from repro.dsp.peakdetect import PeakReport
from repro.guard.admission import admit_identifier_key, admit_metadata, admit_report
from repro.obs import NULL_OBSERVER, RECORD_CORRUPTED, RECORD_STORED, WALL_CLOCK, Clock


class RecordNotFound(MedSenError, LookupError):
    """No record is stored under the requested identifier."""


class RecordCorrupted(MedSenError):
    """A stored record failed its checksum — do not trust its contents."""


# ---------------------------------------------------------------------------
# Canonical record codec (shared with the resilience journal)
# ---------------------------------------------------------------------------
#: Sorted keys, compact separators: the one encoder that turns a record
#: into text.  Every checksum, journal line and content hash is cut from
#: or composed around its output, never from a second serialisation.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Where the content-hashed prefix of a payload text ends.  The payload's
#: sorted keys are identifier, metadata, report, sequence_number,
#: stored_at_s; a quote inside a JSON string is always escaped, so this
#: separator occurs only at the top level.
_SEQUENCE_KEY = ',"sequence_number":'


def canonical_json(obj: Any) -> str:
    """Sorted, compact JSON of ``obj`` (the codec's only encode)."""
    return _ENCODER.encode(obj)


def record_payload_dict(
    identifier_key: str,
    report: PeakReport,
    sequence_number: int,
    stored_at_s: float,
    metadata: Tuple[Tuple[str, str], ...],
) -> Dict[str, Any]:
    """The canonical (checksummable, journalable) record payload.

    Floats survive a JSON round trip bit-identically (Python serialises
    the shortest round-tripping repr), so journal replay reconstructs
    the exact record.
    """
    from repro.cloud.api import report_to_dict

    return {
        "identifier": identifier_key,
        "sequence_number": int(sequence_number),
        "stored_at_s": float(stored_at_s),
        "metadata": [[k, v] for k, v in metadata],
        "report": report_to_dict(report),
    }


def text_checksum(payload_text: str) -> int:
    """CRC32 over a canonical payload text."""
    return zlib.crc32(payload_text.encode("utf-8")) & 0xFFFFFFFF


def payload_checksum(payload: Dict[str, Any]) -> int:
    """CRC32 over the canonical payload encoding."""
    return text_checksum(canonical_json(payload))


def record_content_hash(record, payload_text: Optional[str] = None) -> str:
    """Interleaving-independent content hash of one stored record.

    Sequence numbers and timestamps are excluded (commit order depends
    on worker interleaving), so the hash is a pure function of the seed
    whether the record came from one process, a shard, or a journal.
    It is the blake2b of ``{"identifier":I,"metadata":M,"report":R}``:
    the canonical payload text up to its sequence number, closed with
    ``}``.  Pass ``payload_text`` when the record's canonical payload
    text is already at hand (just derived and checked) to skip
    re-encoding it.
    """
    if payload_text is None:
        payload_text = record.payload_text()
    head = payload_text[: payload_text.rindex(_SEQUENCE_KEY)] + "}"
    return hashlib.blake2b(head.encode("utf-8"), digest_size=12).hexdigest()


@dataclass(frozen=True)
class StoredRecord:
    """One stored (encrypted) diagnostic outcome.

    ``checksum`` is the CRC32 of the record's canonical payload,
    computed at store time and verified on fetch; 0 marks a legacy
    record stored before checksums existed (never verified).
    """

    identifier_key: str
    report: PeakReport
    sequence_number: int
    stored_at_s: float
    metadata: Tuple[Tuple[str, str], ...] = ()
    checksum: int = 0

    def metadata_dict(self) -> Dict[str, str]:
        """Metadata as a plain dict."""
        return dict(self.metadata)

    def payload(self) -> Dict[str, Any]:
        """Canonical payload (what the checksum covers)."""
        return record_payload_dict(
            self.identifier_key,
            self.report,
            self.sequence_number,
            self.stored_at_s,
            self.metadata,
        )

    def payload_text(self) -> str:
        """Canonical payload text, derived afresh from the current fields."""
        return canonical_json(self.payload())

    def verify(self) -> bool:
        """Whether the record's contents still match its checksum."""
        if self.checksum == 0:
            return True  # legacy record without a checksum
        return text_checksum(self.payload_text()) == self.checksum


class RecordStore:
    """Append-only per-identifier record log.

    Thread-safe: the serving fleet's concurrent workers store into one
    shared instance, so sequencing and the per-identifier logs mutate
    under a lock.

    Parameters
    ----------
    clock:
        Wall-clock source for ``stored_at_s`` stamps; injectable so
        tests and replays are deterministic and the audit event log can
        correlate storage writes with spans.
    observer:
        Observability sink (``record.stored`` audit events, counters).
    journal:
        Optional durable sink (anything with ``append(record,
        payload_text)``, e.g. :class:`repro.resilience.journal.RecordJournal`);
        every committed record is appended, with the canonical payload
        text its checksum was computed over, so a crashed process can
        replay its way back to the exact pre-crash state.
    """

    def __init__(
        self,
        clock: Clock = WALL_CLOCK,
        observer=NULL_OBSERVER,
        journal=None,
    ) -> None:
        self.clock = clock
        self.observer = observer
        self.journal = journal
        self._records: Dict[str, List[StoredRecord]] = {}
        self._sequence = 0
        self._lock = threading.Lock()

    def store(
        self,
        identifier_key: str,
        report: PeakReport,
        metadata: Optional[Dict[str, str]] = None,
    ) -> StoredRecord:
        """Store an encrypted analysis outcome under an identifier.

        The store sits on the untrusted side of the §IV boundary, so
        everything inbound is admission-checked first: a malformed key,
        a non-report payload, or oversized/ill-typed metadata raises a
        typed :class:`~repro._util.errors.AdmissionError` (with the
        ``guard.rejected`` accounting) before touching the log.  The
        record keeps the report in the form admission returns.
        """
        if not identifier_key:
            raise ConfigurationError("identifier_key must be non-empty")
        admit_identifier_key(identifier_key, observer=self.observer, boundary="store")
        report = admit_report(report, observer=self.observer, boundary="store")
        admit_metadata(metadata, observer=self.observer, boundary="store")
        with self._lock:
            self._sequence += 1
            meta = tuple(sorted((metadata or {}).items()))
            stored_at_s = self.clock()
            payload_text = canonical_json(
                record_payload_dict(
                    identifier_key, report, self._sequence, stored_at_s, meta
                )
            )
            record = StoredRecord(
                identifier_key=identifier_key,
                report=report,
                sequence_number=self._sequence,
                stored_at_s=stored_at_s,
                metadata=meta,
                checksum=text_checksum(payload_text),
            )
            self._records.setdefault(identifier_key, []).append(record)
            if self.journal is not None:
                self.journal.append(record, payload_text)
        self.observer.incr("store.records")
        self.observer.event(
            RECORD_STORED,
            identifier=identifier_key,
            sequence_number=record.sequence_number,
            stored_at_s=record.stored_at_s,
        )
        return record

    # ------------------------------------------------------------------
    def _restore(self, record: StoredRecord) -> None:
        """Re-insert a journaled record during crash recovery.

        Preserves the record's original sequence number and timestamp;
        only the resilience journal's replay should call this.
        """
        with self._lock:
            self._records.setdefault(record.identifier_key, []).append(record)
            self._sequence = max(self._sequence, record.sequence_number)

    def _verified_text(self, record: StoredRecord) -> str:
        """The record's payload text, after checking it against the checksum."""
        payload_text = record.payload_text()
        if record.checksum and text_checksum(payload_text) != record.checksum:
            self.observer.incr("store.corrupted")
            self.observer.event(
                RECORD_CORRUPTED,
                identifier=record.identifier_key,
                sequence_number=record.sequence_number,
            )
            raise RecordCorrupted(
                f"record {record.sequence_number} under identifier "
                f"{record.identifier_key!r} failed its checksum"
            )
        return payload_text

    # ------------------------------------------------------------------
    def fetch(self, identifier_key: str, start: int = 0) -> Tuple[StoredRecord, ...]:
        """Records stored under an identifier (oldest first).

        ``start`` skips the first ``start`` records, so a caller that
        keeps a cursor into an identifier's log reads (and verifies)
        only what was appended since; an identifier's log only grows
        until :meth:`delete_identifier`.

        Raises :class:`RecordCorrupted` if any returned record fails its
        checksum — corruption is surfaced, never silently returned.
        """
        pairs = self.fetch_with_texts(identifier_key, start)
        return tuple(record for record, _ in pairs)

    def fetch_with_texts(
        self, identifier_key: str, start: int = 0
    ) -> Tuple[Tuple[StoredRecord, str], ...]:
        """:meth:`fetch`, each record paired with its canonical payload text.

        The text is derived afresh from the record's fields and is what
        its checksum was just verified against, so a caller that needs
        the record as text (journal line, content hash) reuses it
        instead of encoding the record again.
        """
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        with self._lock:
            records = tuple(self._records.get(identifier_key, ())[start:])
        return tuple((record, self._verified_text(record)) for record in records)

    def fetch_latest(self, identifier_key: str) -> StoredRecord:
        """Most recent record for an identifier.

        Raises the typed :class:`RecordNotFound` for an unknown
        identifier and :class:`RecordCorrupted` for a record whose
        checksum no longer matches its contents.
        """
        with self._lock:
            records = self._records.get(identifier_key)
            if not records:
                raise RecordNotFound(
                    f"no records stored for identifier {identifier_key!r}"
                )
            record = records[-1]
        self._verified_text(record)
        return record

    def delete_identifier(self, identifier_key: str) -> int:
        """Erase every record stored under an identifier.

        The §V privacy design makes per-identifier erasure the natural
        unit of a right-to-erasure request: the store never knew who
        the patient was, so deleting the identifier's records removes
        the entire linkable trail.  Returns the number of records
        erased (0 if the identifier was unknown).
        """
        if not identifier_key:
            raise ConfigurationError("identifier_key must be non-empty")
        with self._lock:
            records = self._records.pop(identifier_key, [])
        return len(records)

    @property
    def n_identifiers(self) -> int:
        """Distinct identifiers with stored records."""
        with self._lock:
            return len(self._records)

    @property
    def n_records(self) -> int:
        """Total records stored."""
        with self._lock:
            return sum(len(records) for records in self._records.values())

    def identifiers(self) -> Tuple[str, ...]:
        """All identifiers with stored records, sorted."""
        with self._lock:
            return tuple(sorted(self._records))
