"""Phone-to-cloud message protocol.

The prototype ships captures and results as opaque payloads over the
phone's connection; this module gives those exchanges a typed,
serializable shape so the relay path can be tested message-by-message:

* :class:`AnalysisRequest` — a compressed capture upload;
* :class:`AnalysisResponse` — the ciphertext peak report coming back;
* :class:`StoreRequest` — filing a result under a cyto-coded
  identifier key.

Serialization is JSON (stdlib) — the payloads are small except the
capture itself, which travels as opaque bytes alongside the metadata.
Everything in these messages is ciphertext-domain by construction.
"""

import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro._util.errors import ValidationError
from repro.dsp.peakdetect import DetectedPeak, PeakReport

PROTOCOL_VERSION = 1


def _require(payload: Dict, key: str):
    if not isinstance(payload, dict):
        raise ValidationError(
            f"message payload is {type(payload).__name__}, not an object"
        )
    if key not in payload:
        raise ValidationError(f"message missing required field {key!r}")
    return payload[key]


def _parse_json(text) -> Dict:
    """Decode untrusted JSON; the only failure mode is ValidationError."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, TypeError, UnicodeDecodeError) as error:
        raise ValidationError(f"message is not valid JSON: {error}") from error
    except RecursionError as error:
        raise ValidationError("message is not valid JSON: nested too deeply") from error
    if not isinstance(payload, dict):
        raise ValidationError(
            f"message decodes to {type(payload).__name__}, not an object"
        )
    return payload


@dataclass(frozen=True)
class AnalysisRequest:
    """Upload metadata for one capture (the bytes travel separately)."""

    capture_id: str
    n_channels: int
    n_samples: int
    sampling_rate_hz: float
    compressed_bytes: int

    def __post_init__(self) -> None:
        if not self.capture_id:
            raise ValidationError("capture_id must be non-empty")
        if self.n_channels < 1 or self.n_samples < 0 or self.compressed_bytes < 0:
            raise ValidationError("invalid capture dimensions")

    def to_json(self) -> str:
        """Serialize this message to a JSON string."""
        return json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "type": "analysis_request",
                "capture_id": self.capture_id,
                "n_channels": self.n_channels,
                "n_samples": self.n_samples,
                "sampling_rate_hz": self.sampling_rate_hz,
                "compressed_bytes": self.compressed_bytes,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "AnalysisRequest":
        """Parse a JSON analysis_request message.

        Raises :class:`ValidationError` on *any* malformed input —
        non-JSON bytes, wrong shapes, or unconvertible field values.
        """
        payload = _parse_json(text)
        if _require(payload, "type") != "analysis_request":
            raise ValidationError("not an analysis_request message")
        try:
            return cls(
                capture_id=_require(payload, "capture_id"),
                n_channels=int(_require(payload, "n_channels")),
                n_samples=int(_require(payload, "n_samples")),
                sampling_rate_hz=float(_require(payload, "sampling_rate_hz")),
                compressed_bytes=int(_require(payload, "compressed_bytes")),
            )
        except ValidationError:
            raise
        except (TypeError, ValueError, OverflowError) as error:
            raise ValidationError(f"invalid analysis_request fields: {error}") from error


def _amplitude_list(amplitudes: np.ndarray) -> list:
    # DetectedPeak holds float64, so tolist() gives the very floats a
    # float() per element would.  Only a 1-D array lists flat; anything
    # else keeps the per-element form (and its refusal of multi-channel
    # rows), so a journal line decoding to such a peak still fails the
    # round-trip check.
    if amplitudes.ndim == 1:
        return amplitudes.tolist()
    return [float(a) for a in amplitudes]


def _peak_dicts(report: PeakReport) -> list:
    columns = report.columns
    if columns is None:
        return [
            {
                "time_s": peak.time_s,
                "depth": peak.depth,
                "width_s": peak.width_s,
                "amplitudes": _amplitude_list(peak.amplitudes),
                "sample_index": peak.sample_index,
            }
            for peak in report.peaks
        ]
    # The columns are float64/int64, so tolist() gives the floats and
    # ints the rows would hold, and amplitude rows list flat.
    return [
        {
            "time_s": time_s,
            "depth": depth,
            "width_s": width_s,
            "amplitudes": amplitudes,
            "sample_index": sample_index,
        }
        for time_s, depth, width_s, amplitudes, sample_index in zip(
            columns.time_s.tolist(),
            columns.depth.tolist(),
            columns.width_s.tolist(),
            columns.amplitudes.tolist(),
            columns.sample_index.tolist(),
        )
    ]


def report_to_dict(report: PeakReport) -> Dict:
    """Ciphertext peak report as a JSON-safe dict."""
    return {
        "duration_s": report.duration_s,
        "sampling_rate_hz": report.sampling_rate_hz,
        "detection_channel": report.detection_channel,
        "peaks": _peak_dicts(report),
    }


def report_from_dict(payload: Dict) -> PeakReport:
    """Inverse of :func:`report_to_dict`.

    Raises :class:`ValidationError` when the dict does not decode to a
    structurally valid report.
    """
    try:
        peaks = tuple(
            DetectedPeak(
                time_s=float(_require(entry, "time_s")),
                depth=float(_require(entry, "depth")),
                width_s=float(_require(entry, "width_s")),
                amplitudes=np.asarray(_require(entry, "amplitudes"), dtype=float),
                sample_index=int(_require(entry, "sample_index")),
            )
            for entry in _require(payload, "peaks")
        )
        return PeakReport(
            peaks=peaks,
            duration_s=float(_require(payload, "duration_s")),
            sampling_rate_hz=float(_require(payload, "sampling_rate_hz")),
            detection_channel=int(_require(payload, "detection_channel")),
        )
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as error:
        raise ValidationError(f"invalid peak report payload: {error}") from error


@dataclass(frozen=True)
class AnalysisResponse:
    """The cloud's answer: the encoded peak report."""

    capture_id: str
    report: PeakReport

    def __post_init__(self) -> None:
        if not self.capture_id:
            raise ValidationError("capture_id must be non-empty")

    def to_json(self) -> str:
        """Serialize this message to a JSON string."""
        return json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "type": "analysis_response",
                "capture_id": self.capture_id,
                "report": report_to_dict(self.report),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "AnalysisResponse":
        """Parse a JSON analysis_response message (ValidationError only)."""
        payload = _parse_json(text)
        if _require(payload, "type") != "analysis_response":
            raise ValidationError("not an analysis_response message")
        try:
            return cls(
                capture_id=_require(payload, "capture_id"),
                report=report_from_dict(_require(payload, "report")),
            )
        except ValidationError:
            raise
        except (TypeError, ValueError) as error:
            raise ValidationError(f"invalid analysis_response fields: {error}") from error


@dataclass(frozen=True)
class StoreRequest:
    """File an analysed result under a cyto-coded identifier key."""

    identifier_key: str
    capture_id: str
    metadata: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.identifier_key or not self.capture_id:
            raise ValidationError("identifier_key and capture_id must be non-empty")

    def to_json(self) -> str:
        """Serialize this message to a JSON string."""
        return json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "type": "store_request",
                "identifier_key": self.identifier_key,
                "capture_id": self.capture_id,
                "metadata": dict(self.metadata),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "StoreRequest":
        """Parse a JSON store_request message (ValidationError only)."""
        payload = _parse_json(text)
        if _require(payload, "type") != "store_request":
            raise ValidationError("not a store_request message")
        try:
            return cls(
                identifier_key=_require(payload, "identifier_key"),
                capture_id=_require(payload, "capture_id"),
                metadata=tuple(sorted(dict(_require(payload, "metadata")).items())),
            )
        except ValidationError:
            raise
        except (TypeError, ValueError) as error:
            raise ValidationError(f"invalid store_request fields: {error}") from error
