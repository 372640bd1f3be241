"""Wire messages between the fleet front door and its shard processes.

Everything crossing the process boundary is a small frozen dataclass
defined here, framed by :mod:`repro.fleet.transport`.  Requests travel
parent → shard; each carries an envelope message id the shard echoes in
its reply, so the parent's single receiver thread can resolve replies
that arrive out of submission order (sessions finish whenever their
shard's worker pool finishes them).

:class:`SessionOutcome` is the compact honest-path result a shard sends
back instead of the full ``SessionResult`` object graph: exactly the
numeric outputs the determinism guarantee covers, plus a BLAKE2b digest
over them so bit-identity with the single-process tier is a one-line
comparison (the chaos campaign and ``bench_scaling`` both use it).
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro._util.drill import canonical_digest
from repro.auth.identifier import CytoIdentifier
from repro.particles.sample import Sample


@dataclass(frozen=True)
class SessionOutcome:
    """Honest-path numeric outputs of one diagnostic session."""

    tenant_id: str
    tenant_sequence: int
    diagnosis_label: str
    concentration_per_ul: float
    auth_accepted: bool
    auth_user_id: Optional[str]
    record_key: str
    report_count: int
    decrypted_count: float
    marker_count: float
    shard_id: str = ""

    @classmethod
    def from_result(
        cls, result, tenant_id: str, tenant_sequence: int, shard_id: str = ""
    ) -> "SessionOutcome":
        """Distil a :class:`~repro.core.protocol.SessionResult`."""
        return cls(
            tenant_id=tenant_id,
            tenant_sequence=tenant_sequence,
            diagnosis_label=result.diagnosis.label,
            concentration_per_ul=float(result.diagnosis.concentration_per_ul),
            auth_accepted=bool(result.auth.accepted),
            auth_user_id=result.auth.user_id,
            record_key=result.record_key,
            report_count=int(result.relay.report.count),
            decrypted_count=float(result.decryption.total_count),
            marker_count=float(result.marker_count),
            shard_id=shard_id,
        )

    def digest(self) -> str:
        """Interleaving- and shard-independent content hash.

        Excludes ``shard_id`` on purpose: *where* a session ran is
        deployment topology; *what* it produced must be a pure function
        of ``(fleet seed, tenant, tenant_sequence)``.
        """
        return canonical_digest(
            {
                "tenant": self.tenant_id,
                "sequence": self.tenant_sequence,
                "label": self.diagnosis_label,
                "concentration": self.concentration_per_ul,
                "accepted": self.auth_accepted,
                "user": self.auth_user_id,
                "record_key": self.record_key,
                "report_count": self.report_count,
                "decrypted": self.decrypted_count,
                "marker": self.marker_count,
            },
            12,
        )


# ---------------------------------------------------------------------------
# Parent → shard
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RegisterTenant:
    """Enrol a tenant's cyto-coded password on its owning shard."""

    tenant_id: str
    identifier: CytoIdentifier


@dataclass(frozen=True)
class SubmitRequest:
    """One routed diagnostic session.

    ``tenant_sequence`` is assigned by the front door (the fleet-wide
    source of truth); the shard *verifies* its scheduler agrees — and
    resumes the counter after a restart — so the request RNG
    coordinates survive both routing and recovery.  ``trace_context``
    is the MST1 wire form of the front door's ingress span, adopted by
    the shard as remote parent so the cross-process trace stitches.
    """

    tenant_id: str
    tenant_sequence: int
    blood: Sample
    identifier: CytoIdentifier
    duration_s: float = 20.0
    pipette_volume_ul: float = 2.0
    trace_context: Optional[bytes] = None


@dataclass(frozen=True)
class StreamOpen:
    """Open one streaming session on the tenant's owning shard.

    ``token_blob`` is the device's MSF1/MSF2 freshness token; the
    shard's stream gateway admits it (replay- and epoch-checked)
    before any session state exists.
    """

    tenant_id: str
    n_channels: int
    sampling_rate_hz: float
    token_blob: bytes


@dataclass(frozen=True)
class StreamChunkMsg:
    """One sealed MSS1 chunk in transit to its session's shard."""

    tenant_id: str
    session_id: str
    blob: bytes


@dataclass(frozen=True)
class StreamResume:
    """Re-attach to a session after a disconnect (token-authenticated)."""

    tenant_id: str
    session_id: str
    resume_token: str


@dataclass(frozen=True)
class StreamClose:
    """Finish a session's detector and return its terminal outcome."""

    tenant_id: str
    session_id: str


@dataclass(frozen=True)
class LeaseGrant:
    """Assign a shard its replication role under an epoch-numbered lease.

    The cluster supervisor is the only lease authority; a shard never
    invents an epoch.  ``epoch`` tags every subsequent
    :class:`SubmitResponse` the shard produces, which is what lets the
    front door *fence* a stale primary after a failover — a response
    carrying a superseded epoch is refused, never acknowledged to the
    client (no split-brain double-acks).
    """

    partition: str
    epoch: int
    role: str  # "primary" | "standby"
    ttl_s: float


@dataclass(frozen=True)
class JournalShip:
    """Ship checksummed journal lines to a partition's standby.

    ``entries`` are verbatim :func:`~repro.resilience.journal.encode_entry`
    lines — the exact bytes the primary journaled — so the standby
    verifies the same CRCs the crash-recovery path does and quarantines
    (never applies) a damaged or torn line.
    """

    partition: str
    epoch: int
    entries: Tuple[str, ...]


@dataclass(frozen=True)
class HealthCheck:
    """Liveness + progress probe."""


@dataclass(frozen=True)
class SnapshotRequest:
    """Ask for the shard's telemetry state (metrics + sketches)."""


@dataclass(frozen=True)
class StoreDigest:
    """Ask for a content hash of the shard's record-store partition."""


@dataclass(frozen=True)
class Drain:
    """Stop accepting submissions, finish in-flight work, then report."""


@dataclass(frozen=True)
class Shutdown:
    """Clean exit: drain, close the journal, acknowledge, return."""


# ---------------------------------------------------------------------------
# Shard → parent
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Ack:
    """Generic success reply for control messages."""

    shard_id: str


@dataclass(frozen=True)
class SubmitResponse:
    """Terminal reply for one :class:`SubmitRequest`.

    ``epoch`` is the lease epoch the shard held when it answered
    (0 = unleased, the single-copy tier); the front door compares it
    against the partition's current epoch and fences stale answers.
    ``journal_entry`` carries the committed record's checksummed
    journal line on replicated partitions, so the front door can ship
    it to the standby *before* acknowledging the client.
    """

    shard_id: str
    tenant_id: str
    tenant_sequence: int
    ok: bool
    outcome: Optional[SessionOutcome] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    duplicate: bool = False
    epoch: int = 0
    journal_entry: Optional[str] = None


@dataclass(frozen=True)
class ShipAck:
    """Reply to one :class:`JournalShip`: what the standby did with it."""

    shard_id: str
    partition: str
    applied: int
    duplicates: int
    quarantined: int
    store_records: int


@dataclass(frozen=True)
class StreamOpened:
    """Reply to :class:`StreamOpen`: the session's credentials."""

    shard_id: str
    session_id: str
    session_key: bytes
    resume_token: str
    chunk_samples: int
    key_epoch: int


@dataclass(frozen=True)
class StreamChunkAck:
    """Reply to one :class:`StreamChunkMsg` (accepted or duplicate)."""

    shard_id: str
    session_id: str
    seq: int
    cursor: int
    duplicate: bool
    backpressure: bool
    peaks_so_far: int


@dataclass(frozen=True)
class StreamResumed:
    """Reply to :class:`StreamResume`: where to pick up."""

    shard_id: str
    session_id: str
    cursor: int
    chunk_samples: int
    key_epoch: int


@dataclass(frozen=True)
class StreamClosed:
    """Reply to :class:`StreamClose`: the terminal streamed outcome.

    Carries the scalar projection of the session (counts + the
    canonical report digest) rather than the full report object graph —
    the digest is what the bit-identity checks compare.
    """

    shard_id: str
    session_id: str
    tenant_id: str
    n_chunks: int
    n_samples: int
    n_duplicates: int
    peak_count: int
    report_digest: str
    degraded: bool = False
    degraded_reason: str = ""


@dataclass(frozen=True)
class ShardHealth:
    """One shard's progress counters and recovery provenance."""

    shard_id: str
    completed: int
    failed: int
    rejected: int
    inflight: int
    store_records: int
    journal_entries: int
    recovered_records: int = 0
    quarantined_entries: int = 0
    garbage_frames: int = 0
    epoch: int = 0
    role: str = "primary"
    replica_applied: int = 0
    replica_duplicates: int = 0
    replica_quarantined: int = 0


@dataclass(frozen=True)
class ShardTelemetry:
    """One shard's metrics for the fleet roll-up.

    ``quantiles["histograms"]`` maps each histogram name to its lossless
    :meth:`~repro.obs.metrics.ExponentialHistogram.state` dump; the
    parent merges them bucket by bucket with
    :func:`~repro.fleet.cluster.rollup_telemetry`, so fleet p99s come
    from summed bucket counts, never averaged percentiles.
    """

    shard_id: str
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    quantiles: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_registry(cls, shard_id: str, registry) -> "ShardTelemetry":
        """Capture a registry's counters, gauges and histogram states."""
        snapshot = registry.snapshot()
        return cls(
            shard_id=shard_id,
            counters=dict(snapshot["counters"]),
            gauges=dict(snapshot["gauges"]),
            quantiles={"histograms": registry.histogram_states()},
        )


@dataclass(frozen=True)
class ShardStoreDigest:
    """Content hashes of every record on the shard's store partition.

    Hashes exclude sequence numbers and timestamps (commit order is
    interleaving-dependent); the *set* of content hashes is the
    partition's canonical value for recovery bit-identity checks.
    """

    shard_id: str
    record_hashes: Tuple[str, ...]
    n_records: int


@dataclass(frozen=True)
class ErrorReply:
    """Typed failure for a request the shard refused or could not run."""

    shard_id: str
    error_type: str
    error_message: str
