"""Typed audit events: the trusted-side session log.

The paper's curious cloud keeps a history of everything it analysed
(:mod:`repro.cloud.server`); this module is the *trusted* complement —
an append-only, forensics-oriented record of what the device, phone,
cloud and authenticator did during a session (capture started, epoch
rotated, key derived, trace relayed, peaks reported, decryption
completed, auth accepted/rejected, ...), in the spirit of e-SAFE's
audit-log requirement for secure medical devices.

Events flow through sinks: an always-on in-memory ring buffer, plus an
optional JSONL file sink for durable logs that
:func:`read_jsonl_events` can load back losslessly.
"""

import json
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro._util.errors import ConfigurationError
from repro.obs.clock import WALL_CLOCK, Clock

# ---------------------------------------------------------------------------
# Event kinds (the audit vocabulary; see docs/observability.md)
# ---------------------------------------------------------------------------
CAPTURE_STARTED = "capture.started"
CAPTURE_COMPLETED = "capture.completed"
KEY_DERIVED = "key.derived"
EPOCH_ROTATED = "epoch.rotated"
TRACE_RELAYED = "trace.relayed"
PEAKS_REPORTED = "peaks.reported"
DECRYPTION_COMPLETED = "decryption.completed"
AUTH_ACCEPTED = "auth.accepted"
AUTH_REJECTED = "auth.rejected"
DIAGNOSIS_ISSUED = "diagnosis.issued"
RECORD_STORED = "record.stored"

# Serving-stack kinds (repro.serving; see docs/serving.md)
REQUEST_QUEUED = "serve.request_queued"
REQUEST_REJECTED = "serve.request_rejected"
REQUEST_COMPLETED = "serve.request_completed"
REQUEST_FAILED = "serve.request_failed"
RELAY_RETRIED = "serve.relay_retried"
LOAD_SHED = "serve.load_shed"
CIRCUIT_OPENED = "serve.circuit_opened"
CIRCUIT_HALF_OPEN = "serve.circuit_half_open"
CIRCUIT_CLOSED = "serve.circuit_closed"

# Guard kinds (repro.guard; see docs/security.md)
GUARD_REJECTED = "guard.rejected"
REPLAY_DETECTED = "guard.replay_detected"
STALE_EPOCH_REJECTED = "guard.stale_epoch"
ENVELOPE_REJECTED = "guard.envelope_rejected"
AUTH_LOCKED_OUT = "auth.locked_out"

# Resilience kinds (repro.resilience; see docs/resilience.md)
HEALTH_CHANGED = "health.changed"
FAULT_INJECTED = "fault.injected"
WORKER_CRASHED = "serve.worker_crashed"
WORKER_RESTARTED = "serve.worker_restarted"
REQUEST_QUARANTINED = "serve.request_quarantined"
RECORD_CORRUPTED = "record.corrupted"
RECORD_QUARANTINED = "record.quarantined"
EPOCH_RESYNCED = "epoch.resynced"

# Sharded fleet tier (repro.fleet).
SHARD_SPAWNED = "fleet.shard_spawned"
SHARD_EXITED = "fleet.shard_exited"
SHARD_RESTARTED = "fleet.shard_restarted"
SHARD_DRAINED = "fleet.shard_drained"
SHARD_RECOVERED = "fleet.shard_recovered"
FLEET_SHED = "fleet.load_shed"

# Replicated partitions and lease-fenced failover (repro.fleet.replication;
# see docs/replication.md).
LEASE_GRANTED = "fleet.lease_granted"
LEASE_RENEWED = "fleet.lease_renewed"
LEASE_EXPIRED = "fleet.lease_expired"
REPLICA_PROMOTED = "fleet.replica_promoted"
REPLICA_REJOINED = "fleet.replica_rejoined"
EPOCH_FENCED = "fleet.epoch_fenced"
HANDOFF_QUEUED = "fleet.handoff_queued"
HANDOFF_SHED = "fleet.handoff_shed"
DEGRADED_ACK = "fleet.degraded_ack"

# Streaming session lane (repro.stream; see docs/streaming.md).
STREAM_SESSION_OPENED = "stream.session_opened"
STREAM_SESSION_RESUMED = "stream.session_resumed"
STREAM_SESSION_SUSPENDED = "stream.session_suspended"
STREAM_SESSION_REAPED = "stream.session_reaped"
STREAM_SESSION_CLOSED = "stream.session_closed"
STREAM_CHUNK_REFUSED = "stream.chunk_refused"
STREAM_EPOCH_ROTATED = "stream.epoch_rotated"
STREAM_DEGRADED = "stream.degraded"

#: Every kind the pipeline emits (open vocabulary: custom kinds allowed).
KNOWN_KINDS = frozenset(
    {
        CAPTURE_STARTED,
        CAPTURE_COMPLETED,
        KEY_DERIVED,
        EPOCH_ROTATED,
        TRACE_RELAYED,
        PEAKS_REPORTED,
        DECRYPTION_COMPLETED,
        AUTH_ACCEPTED,
        AUTH_REJECTED,
        DIAGNOSIS_ISSUED,
        RECORD_STORED,
        REQUEST_QUEUED,
        REQUEST_REJECTED,
        REQUEST_COMPLETED,
        REQUEST_FAILED,
        RELAY_RETRIED,
        LOAD_SHED,
        CIRCUIT_OPENED,
        CIRCUIT_HALF_OPEN,
        CIRCUIT_CLOSED,
        GUARD_REJECTED,
        REPLAY_DETECTED,
        STALE_EPOCH_REJECTED,
        ENVELOPE_REJECTED,
        AUTH_LOCKED_OUT,
        HEALTH_CHANGED,
        FAULT_INJECTED,
        WORKER_CRASHED,
        WORKER_RESTARTED,
        REQUEST_QUARANTINED,
        RECORD_CORRUPTED,
        RECORD_QUARANTINED,
        EPOCH_RESYNCED,
        SHARD_SPAWNED,
        SHARD_EXITED,
        SHARD_RESTARTED,
        SHARD_DRAINED,
        SHARD_RECOVERED,
        FLEET_SHED,
        LEASE_GRANTED,
        LEASE_RENEWED,
        LEASE_EXPIRED,
        REPLICA_PROMOTED,
        REPLICA_REJOINED,
        EPOCH_FENCED,
        HANDOFF_QUEUED,
        HANDOFF_SHED,
        DEGRADED_ACK,
        STREAM_SESSION_OPENED,
        STREAM_SESSION_RESUMED,
        STREAM_SESSION_SUSPENDED,
        STREAM_SESSION_REAPED,
        STREAM_SESSION_CLOSED,
        STREAM_CHUNK_REFUSED,
        STREAM_EPOCH_ROTATED,
        STREAM_DEGRADED,
    }
)


@dataclass(frozen=True)
class AuditEvent:
    """One structured audit record."""

    sequence: int
    time_s: float
    kind: str
    fields: Tuple[Tuple[str, Any], ...] = ()

    def field_dict(self) -> Dict[str, Any]:
        """Fields as a plain dict."""
        return dict(self.fields)

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serialisable projection."""
        return {
            "sequence": self.sequence,
            "time_s": self.time_s,
            "kind": self.kind,
            "fields": {k: _jsonable(v) for k, v in self.fields},
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    try:  # numpy scalars
        return value.item()
    except AttributeError:
        return str(value)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------
class RingBufferSink:
    """Keeps the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ConfigurationError("ring buffer capacity must be >= 1")
        self.capacity = capacity
        self._buffer: Deque[AuditEvent] = deque(maxlen=capacity)
        self._dropped = 0

    def emit(self, event: AuditEvent) -> None:
        """Append, evicting the oldest event when full."""
        if len(self._buffer) == self.capacity:
            self._dropped += 1
        self._buffer.append(event)

    @property
    def events(self) -> Tuple[AuditEvent, ...]:
        """Retained events, oldest first."""
        return tuple(self._buffer)

    @property
    def dropped(self) -> int:
        """Events evicted so far."""
        return self._dropped

    def clear(self) -> None:
        """Empty the buffer (the drop counter survives a clear)."""
        self._buffer.clear()


class JsonlFileSink:
    """Appends one JSON object per event to a file.

    The handle opens lazily on the first event and flushes per line, so
    a crashed session still leaves a usable audit trail.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        self.events_written = 0

    def emit(self, event: AuditEvent) -> None:
        """Serialise one event as a JSONL line."""
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(event.to_json_dict()) + "\n")
        self._handle.flush()
        self.events_written += 1

    def close(self) -> None:
        """Close the underlying file (further emits reopen it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlFileSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_jsonl_events(path: str) -> List[AuditEvent]:
    """Load events written by :class:`JsonlFileSink`, oldest first."""
    events: List[AuditEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            events.append(
                AuditEvent(
                    sequence=int(raw["sequence"]),
                    time_s=float(raw["time_s"]),
                    kind=str(raw["kind"]),
                    fields=tuple(sorted(raw.get("fields", {}).items())),
                )
            )
    return events


# ---------------------------------------------------------------------------
# The log
# ---------------------------------------------------------------------------
class EventLog:
    """Sequenced event emitter fanning out to sinks.

    Parameters
    ----------
    clock:
        Wall-clock time source for event stamps (injectable).
    sinks:
        Extra sinks beyond the built-in ring buffer.
    ring_capacity:
        Size of the built-in ring buffer.
    """

    def __init__(
        self,
        clock: Clock = WALL_CLOCK,
        sinks: Optional[List[Any]] = None,
        ring_capacity: int = 1024,
    ) -> None:
        self.clock = clock
        self.ring = RingBufferSink(ring_capacity)
        self._sinks: List[Any] = [self.ring, *(sinks or [])]
        self._sequence = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> AuditEvent:
        """Stamp, sequence, and fan out one event (thread-safe: fleet
        workers share one log)."""
        if not kind:
            raise ConfigurationError("event kind must be non-empty")
        with self._lock:
            self._sequence += 1
            event = AuditEvent(
                sequence=self._sequence,
                time_s=self.clock(),
                kind=kind,
                fields=tuple(sorted(fields.items())),
            )
            for sink in self._sinks:
                sink.emit(event)
        return event

    def add_sink(self, sink: Any) -> None:
        """Attach another sink (anything with ``emit(event)``)."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[AuditEvent, ...]:
        """Ring-buffer contents, oldest first."""
        return self.ring.events

    @property
    def n_emitted(self) -> int:
        """Total events emitted over the log's lifetime."""
        return self._sequence

    def kinds(self) -> List[str]:
        """Kinds of the retained events, in emission order."""
        return [event.kind for event in self.ring.events]

    def reset(self) -> None:
        """Clear the ring buffer and restart sequencing."""
        self.ring.clear()
        self._sequence = 0
