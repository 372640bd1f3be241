"""Admission validation at every trust boundary.

The paper's §IV threat model gives the adversary the phone↔cloud link:
anything crossing it may be malformed, oversized, NaN-poisoned, or not
even the right Python type.  This module is the single place that turns
that firehose into a typed, non-crashing contract — every boundary
(:meth:`AnalysisServer.analyze <repro.cloud.server.AnalysisServer>`,
:meth:`Smartphone.relay <repro.mobile.phone.Smartphone.relay>`,
:meth:`RecordStore.store <repro.cloud.storage.RecordStore.store>`, the
serving scheduler's ``submit``) calls an ``admit_*`` function, and a
refused payload raises an :class:`~repro._util.errors.AdmissionError`
subclass, increments the ``guard.rejected`` counter, and emits a
``guard.rejected`` audit event naming the boundary.  Nothing else ever
escapes.

The default :data:`DEFAULT_TRACE_POLICY` is deliberately generous — a
20-hour capture at the lock-in's 450 Hz output rate still admits — so
turning admission on changes nothing for honest traffic, including the
chaos campaigns' *corrupted-but-finite* traces.
"""

import math
import operator
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro._util.errors import (
    AdmissionError,
    MalformedPayloadError,
    OversizedPayloadError,
)
from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.obs import GUARD_REJECTED, NULL_OBSERVER

#: Counter bumped once per refused payload, labelled only by total.
REJECTED_METRIC = "guard.rejected"


def _refuse(
    observer: Any,
    boundary: str,
    reason: str,
    error: type = MalformedPayloadError,
) -> None:
    """Account for one rejection, then raise the typed error."""
    observer.incr(REJECTED_METRIC)
    observer.incr(f"{REJECTED_METRIC}.{boundary}")
    observer.event(GUARD_REJECTED, boundary=boundary, reason=reason)
    raise error(f"[{boundary}] {reason}")


@dataclass(frozen=True)
class TraceAdmissionPolicy:
    """Resource and sanity budget for one inbound trace.

    Defaults bound memory at roughly 16 GiB of float64 in the worst
    case while admitting every trace the honest pipeline produces; the
    voltage ceiling is far above any lock-in output (fractional dips
    around a ~1 V carrier) but catches numerically absurd payloads.
    """

    max_channels: int = 64
    max_samples: int = 1 << 25
    max_sampling_rate_hz: float = 1e9
    max_abs_voltage: float = 1e6
    require_finite: bool = True


#: The generous default attached to every boundary unless overridden.
DEFAULT_TRACE_POLICY = TraceAdmissionPolicy()


def admit_trace(
    trace: Any,
    policy: Optional[TraceAdmissionPolicy] = None,
    observer: Any = NULL_OBSERVER,
    boundary: str = "ingest",
) -> None:
    """Refuse ``trace`` unless it is a well-formed, in-budget capture.

    Raises :class:`MalformedPayloadError` /
    :class:`OversizedPayloadError`; returns ``None`` on admission.
    """
    policy = policy or DEFAULT_TRACE_POLICY
    try:
        voltages = getattr(trace, "voltages", None)
        rate = getattr(trace, "sampling_rate_hz", None)
        carriers = getattr(trace, "carrier_frequencies_hz", None)
        if voltages is None or rate is None or carriers is None:
            _refuse(observer, boundary, f"not a trace: {type(trace).__name__}")
        if not isinstance(voltages, np.ndarray) or voltages.ndim != 2:
            _refuse(observer, boundary, "trace voltages are not a 2-D array")
        if voltages.dtype.kind not in "fiu":
            _refuse(
                observer, boundary, f"non-numeric voltage dtype {voltages.dtype}"
            )
        n_channels, n_samples = voltages.shape
        if n_channels < 1 or n_samples < 1:
            _refuse(observer, boundary, "trace has an empty axis")
        if n_channels > policy.max_channels:
            _refuse(
                observer,
                boundary,
                f"{n_channels} channels exceeds cap {policy.max_channels}",
                OversizedPayloadError,
            )
        if n_samples > policy.max_samples:
            _refuse(
                observer,
                boundary,
                f"{n_samples} samples exceeds cap {policy.max_samples}",
                OversizedPayloadError,
            )
        rate = float(rate)
        if not math.isfinite(rate) or rate <= 0:
            _refuse(observer, boundary, f"sampling rate {rate!r} is not positive")
        if rate > policy.max_sampling_rate_hz:
            _refuse(
                observer,
                boundary,
                f"sampling rate {rate} exceeds cap",
                OversizedPayloadError,
            )
        if len(carriers) != n_channels:
            _refuse(
                observer,
                boundary,
                f"{n_channels} channels but {len(carriers)} carriers",
            )
        if policy.require_finite and not np.isfinite(voltages).all():
            _refuse(observer, boundary, "trace contains non-finite samples")
        peak = float(np.max(np.abs(voltages)))
        if peak > policy.max_abs_voltage:
            _refuse(
                observer,
                boundary,
                f"|voltage| {peak:.3g} exceeds cap {policy.max_abs_voltage:.3g}",
            )
    except AdmissionError:
        raise
    except Exception as error:  # garbage that broke a check itself
        _refuse(
            observer,
            boundary,
            f"unreadable trace ({type(error).__name__}: {error})",
        )


def admit_report(
    report: Any,
    observer: Any = NULL_OBSERVER,
    boundary: str = "report",
    max_peaks: int = 1_000_000,
) -> PeakReport:
    """Refuse a :class:`~repro.dsp.peakdetect.PeakReport` look-alike
    whose fields are missing, non-finite, or out of budget.

    Returns it in the types the record journal decodes
    (:func:`repro.cloud.api.report_from_dict`), so a stored report
    replays to itself on recovery and on a standby.
    """
    try:
        peaks = getattr(report, "peaks", None)
        duration = getattr(report, "duration_s", None)
        rate = getattr(report, "sampling_rate_hz", None)
        if peaks is None or duration is None or rate is None:
            _refuse(observer, boundary, f"not a report: {type(report).__name__}")
        duration = float(duration)
        rate = float(rate)
        if not math.isfinite(duration) or duration <= 0:
            _refuse(observer, boundary, f"report duration {duration!r} invalid")
        if not math.isfinite(rate) or rate <= 0:
            _refuse(observer, boundary, f"report sampling rate {rate!r} invalid")
        if len(peaks) > max_peaks:
            _refuse(
                observer,
                boundary,
                f"{len(peaks)} peaks exceeds cap {max_peaks}",
                OversizedPayloadError,
            )
        canonical = []
        for peak in peaks:
            time_s = float(peak.time_s)
            depth = float(peak.depth)
            width = float(peak.width_s)
            if not (
                math.isfinite(time_s)
                and math.isfinite(depth)
                and math.isfinite(width)
            ):
                _refuse(observer, boundary, "peak has non-finite fields")
            amplitudes = np.asarray(peak.amplitudes, dtype=float)
            if not np.isfinite(amplitudes).all():
                _refuse(observer, boundary, "peak amplitudes non-finite")
            if amplitudes.ndim > 1:
                _refuse(observer, boundary, "peak amplitudes are not a flat array")
            index = operator.index(peak.sample_index)
            canonical.append(DetectedPeak(time_s, depth, width, amplitudes, index))
        return PeakReport(
            tuple(canonical), duration, rate, operator.index(report.detection_channel)
        )
    except AdmissionError:
        raise
    except Exception as error:
        _refuse(
            observer,
            boundary,
            f"unreadable report ({type(error).__name__}: {error})",
        )


def admit_identifier_key(
    key: Any,
    observer: Any = NULL_OBSERVER,
    boundary: str = "store",
    max_length: int = 512,
) -> str:
    """Refuse a record-store key that is not a sane short string."""
    if not isinstance(key, str):
        _refuse(observer, boundary, f"identifier key is {type(key).__name__}")
    if not key or key != key.strip() or "\n" in key or "\r" in key:
        _refuse(observer, boundary, "identifier key empty or has edge whitespace")
    if len(key) > max_length:
        _refuse(
            observer,
            boundary,
            f"identifier key length {len(key)} exceeds {max_length}",
            OversizedPayloadError,
        )
    return key


def admit_session_params(
    tenant_id: Any,
    duration_s: Any,
    pipette_volume_ul: Any,
    max_duration_s: float = 3600.0,
    max_pipette_volume_ul: float = 1000.0,
    observer: Any = NULL_OBSERVER,
    boundary: str = "submit",
) -> str:
    """Refuse a diagnostic-session submission with garbage parameters.

    The single admission path shared by the thread-pool scheduler's
    ``submit`` and the sharded tier's asyncio front door: a malformed
    tenant id, a non-finite or non-positive capture duration, or an
    absurd pipette volume is refused with a typed
    :class:`~repro._util.errors.AdmissionError` (and ``guard.rejected``
    accounting) before the request can occupy a queue slot on either
    tier.  Returns the validated tenant id.
    """
    key = admit_identifier_key(tenant_id, observer=observer, boundary=boundary)
    for name, value in (
        ("duration_s", duration_s),
        ("pipette_volume_ul", pipette_volume_ul),
    ):
        try:
            value = float(value)
        except (TypeError, ValueError):
            _refuse(observer, boundary, f"{name} is not a number")
        if not math.isfinite(value) or value <= 0:
            _refuse(
                observer,
                boundary,
                f"{name} must be finite and positive, got {value!r}",
            )
    if float(duration_s) > max_duration_s:
        _refuse(
            observer,
            boundary,
            f"duration_s {float(duration_s)} exceeds the {max_duration_s} s cap",
            OversizedPayloadError,
        )
    if float(pipette_volume_ul) > max_pipette_volume_ul:
        _refuse(
            observer,
            boundary,
            f"pipette_volume_ul {float(pipette_volume_ul)} exceeds the "
            f"{max_pipette_volume_ul} µL cap",
            OversizedPayloadError,
        )
    return key


def admit_metadata(
    metadata: Any,
    observer: Any = NULL_OBSERVER,
    boundary: str = "store",
    max_entries: int = 64,
    max_value_bytes: int = 4096,
) -> None:
    """Refuse record metadata unless it is a small, flat dict of strings
    (a journal replay reads every value back as a string)."""
    if metadata is None:
        return
    if not isinstance(metadata, dict):
        _refuse(observer, boundary, f"metadata is {type(metadata).__name__}")
    if len(metadata) > max_entries:
        _refuse(
            observer,
            boundary,
            f"metadata has {len(metadata)} entries; cap is {max_entries}",
            OversizedPayloadError,
        )
    for key, value in metadata.items():
        if not isinstance(key, str):
            _refuse(observer, boundary, "metadata key is not a string")
        if not isinstance(value, str):
            _refuse(
                observer,
                boundary,
                f"metadata value {key} has type {type(value).__name__}",
            )
        if len(value) > max_value_bytes:
            _refuse(
                observer,
                boundary,
                f"metadata value {key} exceeds {max_value_bytes} chars",
                OversizedPayloadError,
            )
