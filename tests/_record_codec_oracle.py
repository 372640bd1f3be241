"""Reference record codec: every text built from a dict by ``json.dumps``.

``repro.cloud.storage`` and ``repro.resilience.journal`` encode a
record's payload once and compose its checksum, journal line and content
hash around that text.  This module is the codec they replaced, kept
whole: each function builds its dict (with the per-element ``float()``
amplitude list) and serialises it afresh, so nothing it produces is cut
from another encode.  ``tests/test_record_codec_differential.py`` holds
the two to byte equality, and to the same acceptance and error type on
every journal line.

``decode_entry`` is kept as it was, including its one leak: a line
nested deeper than the interpreter's stack raises ``RecursionError``.
The new codec refuses such a line with ``ValueError`` (tested on its
own in ``tests/test_resilience_journal.py``).
"""

import hashlib
import json
import zlib
from typing import Any, Dict

from repro.cloud.api import report_from_dict
from repro.cloud.storage import StoredRecord


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_to_dict(report) -> Dict:
    return {
        "duration_s": report.duration_s,
        "sampling_rate_hz": report.sampling_rate_hz,
        "detection_channel": report.detection_channel,
        "peaks": [
            {
                "time_s": peak.time_s,
                "depth": peak.depth,
                "width_s": peak.width_s,
                "amplitudes": [float(a) for a in peak.amplitudes],
                "sample_index": peak.sample_index,
            }
            for peak in report.peaks
        ],
    }


def record_payload_dict(identifier_key, report, sequence_number, stored_at_s, metadata):
    return {
        "identifier": identifier_key,
        "sequence_number": int(sequence_number),
        "stored_at_s": float(stored_at_s),
        "metadata": [[k, v] for k, v in metadata],
        "report": report_to_dict(report),
    }


def record_payload(record) -> Dict:
    return record_payload_dict(
        record.identifier_key,
        record.report,
        record.sequence_number,
        record.stored_at_s,
        record.metadata,
    )


def payload_checksum(payload: Dict) -> int:
    return zlib.crc32(canonical(payload).encode("utf-8")) & 0xFFFFFFFF


def record_content_hash(record) -> str:
    payload = {
        "identifier": record.identifier_key,
        "metadata": [[k, v] for k, v in record.metadata],
        "report": report_to_dict(record.report),
    }
    return hashlib.blake2b(canonical(payload).encode("utf-8"), digest_size=12).hexdigest()


def _line_crc(entry: Dict) -> int:
    return zlib.crc32(canonical(entry).encode("utf-8")) & 0xFFFFFFFF


def encode_entry(record) -> str:
    entry = {"payload": record_payload(record), "checksum": record.checksum}
    entry["crc"] = _line_crc({"payload": entry["payload"], "checksum": entry["checksum"]})
    return canonical(entry)


def decode_entry(line: str) -> StoredRecord:
    try:
        raw = json.loads(line)
        if not isinstance(raw, dict) or "payload" not in raw or "crc" not in raw:
            raise ValueError("journal entry missing payload/crc framing")
        payload = raw["payload"]
        checksum = int(raw.get("checksum", 0))
        expected_crc = _line_crc({"payload": payload, "checksum": checksum})
        if int(raw["crc"]) != expected_crc:
            raise ValueError("journal line CRC mismatch")
        if checksum != payload_checksum(payload):
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
        if record_payload(record) != payload:
            raise ValueError("journal entry does not round-trip")
        return record
    except ValueError:
        raise
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"journal entry malformed: {exc}") from exc
