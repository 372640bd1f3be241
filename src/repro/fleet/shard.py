"""The shard worker process: one partition of the sharded cloud tier.

:func:`shard_main` is the entry point a
:class:`~repro.fleet.cluster.FleetCluster` spawns into each worker
**process**.  A shard owns a full vertical slice of the single-process
serving stack — its own :class:`~repro.serving.scheduler.FleetScheduler`
(thread pool, authenticator, circuit breaker), its own
:class:`~repro.cloud.server.AnalysisServer`, and its own *partition* of
the record store, optionally journaled for crash recovery — and drains
framed messages (:mod:`repro.fleet.transport`) from the parent.

Determinism: the scheduler inside every shard is built from the same
fleet seed, and each request's RNG derives from ``(seed, tenant,
tenant_sequence)`` with the sequence assigned by the front door, so a
session produces bit-identical honest outputs whether it runs on shard
3 of 8 or on the single-process tier (``tests/test_fleet_cluster.py``).
After a crash the shard replays its journal
(:func:`~repro.resilience.journal.recover_store`) and *resumes* tenant
sequence counters from the front door's numbers
(:meth:`~repro.serving.scheduler.FleetScheduler.resume_tenant_sequence`),
so recovery preserves both the store partition and the RNG coordinates.

Containment: a garbage frame, an unknown message type, or a refused
submission never kills the shard — each becomes a typed
:class:`~repro.fleet.messages.ErrorReply` (or a counted drop for
unparsable frames) and the loop keeps serving, mirroring the guard
layer's total-parsing contract.
"""

import os
import socket
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Dict, Optional, Tuple

from repro._util.errors import (
    ConfigurationError,
    MedSenError,
    OversizedPayloadError,
    ValidationError,
)
from repro.cloud.storage import RecordStore, record_content_hash
from repro.fleet.messages import (
    Ack,
    Drain,
    ErrorReply,
    HealthCheck,
    JournalShip,
    LeaseGrant,
    RegisterTenant,
    SessionOutcome,
    ShardHealth,
    ShardStoreDigest,
    ShardTelemetry,
    ShipAck,
    Shutdown,
    SnapshotRequest,
    StoreDigest,
    StreamChunkAck,
    StreamChunkMsg,
    StreamClose,
    StreamClosed,
    StreamOpen,
    StreamOpened,
    StreamResume,
    StreamResumed,
    SubmitRequest,
    SubmitResponse,
)
from repro.fleet.transport import FrameChannel
from repro.obs import (
    MONOTONIC_CLOCK,
    RECORD_QUARANTINED,
    SHARD_RECOVERED,
    Observer,
    context_or_none,
)
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.resilience.journal import (
    RecordJournal,
    decode_entry_with_text,
    entry_line,
    recover_store,
)
from repro.serving.queue import QueueFull
from repro.serving.scheduler import FleetConfig, FleetScheduler

#: How many recently answered (tenant, sequence) submissions a shard
#: remembers, so a transport-level duplicate re-delivery is answered
#: from cache instead of re-run (idempotent ingest across the process
#: boundary, same contract as the in-process request-id dedup).
DEDUP_CAPACITY = 4096


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to (re)build one shard process.

    The spec is immutable and picklable: a restart after a crash spawns
    a fresh process from the *same* spec, and the journal path is where
    bit-identical recovery comes from.
    """

    shard_id: str
    fleet: FleetConfig
    journal_path: Optional[str] = None
    #: Replication partition this shard serves ("" = unreplicated tier).
    partition: str = ""
    #: When True the shard stamps replies with its lease epoch and
    #: attaches the committed record's journal line so the front door
    #: can ship it to the partition's standby before acking.
    replicated: bool = False


def store_content_hashes(store: RecordStore) -> Tuple[str, ...]:
    """Sorted content hashes of every record in a store partition."""
    hashes = []
    for identifier_key in store.identifiers():
        for record, payload_text in store.fetch_with_texts(identifier_key):
            hashes.append(record_content_hash(record, payload_text))
    return tuple(sorted(hashes))


class _ShardRuntime:
    """Mutable state of one running shard (wrapped for testability).

    ``on_done`` is registered on every accepted session's future and
    runs on the worker thread that finishes it; :func:`shard_main`
    uses it to wake its loop so the reply goes out at once.
    """

    def __init__(
        self,
        spec: ShardSpec,
        channel: FrameChannel,
        on_done: Callable[[object], None] = lambda future: None,
    ) -> None:
        self.spec = spec
        self.channel = channel
        self.on_done = on_done
        # Fresh per-process sinks: the parent merges shard telemetry
        # explicitly; sharing the process-default registry would alias
        # instruments if a test drives shard_main in-process.
        self.observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        self.journal = (
            RecordJournal(spec.journal_path) if spec.journal_path else None
        )
        self.recovered_records = 0
        self.quarantined_entries = 0
        if spec.journal_path and os.path.exists(spec.journal_path):
            store, replay = recover_store(
                spec.journal_path, observer=self.observer, journal=self.journal
            )
            self.recovered_records = replay.n_recovered
            self.quarantined_entries = replay.n_quarantined
            self.observer.event(
                SHARD_RECOVERED,
                shard=spec.shard_id,
                records=self.recovered_records,
                quarantined=self.quarantined_entries,
            )
            self.observer.incr("fleet.shard_recoveries")
        else:
            store = RecordStore(observer=self.observer, journal=self.journal)
        self.store = store
        self.scheduler = FleetScheduler(
            spec.fleet, observer=self.observer, store=store
        ).start()
        #: msg_id -> in-flight SessionFuture
        self.pending: Dict[int, object] = {}
        #: (tenant, sequence) -> answered outcome, for duplicate replies.
        self.answered: "OrderedDict[Tuple[str, int], SessionOutcome]" = OrderedDict()
        self.accepting = True
        self.drain_reply: Optional[int] = None
        self.shutdown_reply: Optional[int] = None
        self._stream_gateway = None
        # Replication lane (repro.fleet.replication): the lease the
        # supervisor granted (epoch 0 = never leased, which is what a
        # freshly restarted stale primary holds until re-granted — the
        # front door fences its answers) and the standby apply state.
        self.epoch = 0
        self.role = "primary"
        self.replica_applied = 0
        self.replica_duplicates = 0
        self.replica_quarantined = 0
        # Content hashes of every record already in the store: shipped
        # dedup on the primary side, apply dedup on the standby side.
        # Seeded from recovery so a respawned shard never re-ships or
        # re-applies what its journal already holds.
        self._known_hashes = set()
        # identifier key -> how many of its records shipping has
        # examined.  Every examined record's hash is in _known_hashes,
        # so re-examining it could only skip it: shipping reads just
        # the tail past the cursor.
        self._examined: Dict[str, int] = {}
        for identifier_key in store.identifiers():
            records = store.fetch_with_texts(identifier_key)
            self._known_hashes.update(
                record_content_hash(record, text) for record, text in records
            )
            self._examined[identifier_key] = len(records)

    # ------------------------------------------------------------------
    @property
    def stream_gateway(self):
        """The shard's streaming lane, built lazily on first use.

        Sessions are shard-local (a tenant's stream lives where its
        one-shot requests route), keyed off the fleet's shared
        freshness secret — a fleet without one has no streaming lane,
        and the typed refusal reaches the device as an ErrorReply.
        """
        if self._stream_gateway is None:
            secret = self.spec.fleet.freshness_secret
            if not secret:
                raise ConfigurationError(
                    "fleet has no freshness_secret; the streaming lane "
                    "requires one (set FleetConfig.freshness_secret)"
                )
            from repro.stream.session import StreamGateway

            self._stream_gateway = StreamGateway(
                secret, observer=self.observer
            )
        return self._stream_gateway

    # ------------------------------------------------------------------
    def health(self) -> ShardHealth:
        return ShardHealth(
            shard_id=self.spec.shard_id,
            completed=self.scheduler.completed,
            failed=self.scheduler.failed,
            rejected=self.scheduler.rejected,
            inflight=len(self.pending),
            store_records=self.store.n_records,
            journal_entries=self.journal.entries_written if self.journal else 0,
            recovered_records=self.recovered_records,
            quarantined_entries=self.quarantined_entries,
            garbage_frames=self.channel.garbage_frames,
            epoch=self.epoch,
            role=self.role,
            replica_applied=self.replica_applied,
            replica_duplicates=self.replica_duplicates,
            replica_quarantined=self.replica_quarantined,
        )

    def telemetry(self) -> ShardTelemetry:
        return ShardTelemetry.from_registry(self.spec.shard_id, self.observer.metrics)

    # ------------------------------------------------------------------
    def handle_submit(self, msg_id: int, msg: SubmitRequest) -> None:
        if not self.accepting:
            self.channel.send(
                msg_id,
                ErrorReply(
                    shard_id=self.spec.shard_id,
                    error_type="ShardDraining",
                    error_message=f"shard {self.spec.shard_id} is draining",
                ),
            )
            return
        if self.spec.replicated and self.role == "standby":
            # Standbys apply shipped journal lines; they never run
            # sessions, so a misrouted submission is a typed refusal
            # rather than a silent double execution.
            self.channel.send(
                msg_id,
                ErrorReply(
                    shard_id=self.spec.shard_id,
                    error_type="NotPrimary",
                    error_message=(
                        f"shard {self.spec.shard_id} is the standby for "
                        f"partition {self.spec.partition!r}"
                    ),
                ),
            )
            return
        key = (msg.tenant_id, msg.tenant_sequence)
        cached = self.answered.get(key)
        if cached is not None:
            self.observer.incr("fleet.duplicates_dropped")
            self.channel.send(
                msg_id,
                SubmitResponse(
                    shard_id=self.spec.shard_id,
                    tenant_id=msg.tenant_id,
                    tenant_sequence=msg.tenant_sequence,
                    ok=True,
                    outcome=cached,
                    duplicate=True,
                    epoch=self.epoch,
                ),
            )
            return
        try:
            # Front-door sequence numbers are authoritative; resuming
            # forward keeps RNG coordinates stable across a restart,
            # and a rewind (a replayed old submission) is refused.
            self.scheduler.resume_tenant_sequence(
                msg.tenant_id, msg.tenant_sequence
            )
            remote = context_or_none(msg.trace_context)
            with self.observer.span(
                "shard_ingress",
                remote_parent=remote,
                service=self.spec.shard_id,
                tenant=msg.tenant_id,
                tenant_sequence=msg.tenant_sequence,
            ):
                future = self.scheduler.submit(
                    msg.tenant_id,
                    msg.blood,
                    msg.identifier,
                    duration_s=msg.duration_s,
                    pipette_volume_ul=msg.pipette_volume_ul,
                    block=False,
                )
        except (MedSenError, QueueFull, ValidationError) as error:
            self.channel.send(
                msg_id,
                ErrorReply(
                    shard_id=self.spec.shard_id,
                    error_type=type(error).__name__,
                    error_message=str(error),
                ),
            )
            return
        assert future.request.tenant_sequence == msg.tenant_sequence
        self.pending[msg_id] = future
        future.add_done_callback(self.on_done)

    def sweep(self) -> None:
        """Send terminal replies for every finished in-flight session."""
        for msg_id in list(self.pending):
            future = self.pending[msg_id]
            if not future.done():
                continue
            del self.pending[msg_id]
            request = future.request
            error = future.exception()
            if error is None:
                outcome = SessionOutcome.from_result(
                    future.result(),
                    request.tenant_id,
                    request.tenant_sequence,
                    shard_id=self.spec.shard_id,
                )
                self.answered[(request.tenant_id, request.tenant_sequence)] = outcome
                while len(self.answered) > DEDUP_CAPACITY:
                    self.answered.popitem(last=False)
                response = SubmitResponse(
                    shard_id=self.spec.shard_id,
                    tenant_id=request.tenant_id,
                    tenant_sequence=request.tenant_sequence,
                    ok=True,
                    outcome=outcome,
                    epoch=self.epoch,
                    journal_entry=self._entry_for_shipping(outcome.record_key),
                )
            else:
                response = SubmitResponse(
                    shard_id=self.spec.shard_id,
                    tenant_id=request.tenant_id,
                    tenant_sequence=request.tenant_sequence,
                    ok=False,
                    error_type=type(error).__name__,
                    error_message=str(error),
                    epoch=self.epoch,
                )
            self.channel.send(msg_id, response)

    def _entry_for_shipping(self, record_key: str) -> Optional[str]:
        """Journal lines for records committed since the last sweep.

        Replicated primaries attach the exact journal lines
        (:func:`~repro.resilience.journal.encode_entry` bytes) of every
        not-yet-shipped record under the session's key (newline-joined;
        normally exactly one), so the front door can forward verbatim
        journal bytes to the standby before acking.  Each record is
        examined once: only the key's records past its cursor are
        fetched, and each is encoded once, by the fetch's checksum
        verification; its content hash and journal line are cut from
        and composed around that text.  A reply costs O(1) however long
        the key's history grows.  A shard's per-key logs only grow (it
        never deletes identifiers).
        """
        if not self.spec.replicated or not record_key:
            return None
        started = MONOTONIC_CLOCK()
        start = self._examined.get(record_key, 0)
        records = self.store.fetch_with_texts(record_key, start=start)
        self._examined[record_key] = start + len(records)
        lines = []
        for record, payload_text in records:
            content_hash = record_content_hash(record, payload_text)
            if content_hash in self._known_hashes:
                continue
            self._known_hashes.add(content_hash)
            lines.append(entry_line(record.checksum, payload_text))
        self.observer.observe("fleet.ship_prepare_s", MONOTONIC_CLOCK() - started)
        return "\n".join(lines) if lines else None

    # ------------------------------------------------------------------
    def handle_lease(self, msg_id: int, msg: LeaseGrant) -> None:
        """Adopt the supervisor's lease: epoch + role, never invented."""
        if msg.epoch < self.epoch:
            self.channel.send(
                msg_id,
                ErrorReply(
                    shard_id=self.spec.shard_id,
                    error_type="StaleLease",
                    error_message=(
                        f"refusing lease epoch {msg.epoch} < held {self.epoch}"
                    ),
                ),
            )
            return
        self.epoch = msg.epoch
        self.role = msg.role
        self.observer.gauge("fleet.epoch", float(self.epoch))
        self.observer.incr("fleet.leases_adopted")
        self.channel.send(msg_id, Ack(shard_id=self.spec.shard_id))

    def handle_ship(self, msg_id: int, msg: JournalShip) -> None:
        """Apply shipped journal lines to the standby's partition.

        Each line goes through the same
        :func:`~repro.resilience.journal.decode_entry` verification crash
        recovery uses: a torn or corrupted line is quarantined (counted +
        audited), never applied; an intact line is restored with its
        original sequence number/timestamp and re-journaled locally so a
        promoted standby recovers bit-identically after its own crash.
        The payload text the checks were computed over also gives the
        content hash and the local journal line, so an honest line is
        encoded once here.
        """
        started = MONOTONIC_CLOCK()
        applied = duplicates = quarantined = 0
        for line in msg.entries:
            try:
                record, payload_text = decode_entry_with_text(line)
            except ValueError as exc:
                quarantined += 1
                self.observer.incr("replica.quarantined")
                self.observer.event(
                    RECORD_QUARANTINED,
                    shard=self.spec.shard_id,
                    partition=msg.partition,
                    reason=str(exc),
                )
                continue
            content_hash = record_content_hash(record, payload_text)
            if content_hash in self._known_hashes:
                duplicates += 1
                continue
            self._known_hashes.add(content_hash)
            self.store._restore(record)
            if self.journal is not None:
                self.journal.append(record, payload_text)
            applied += 1
        self.observer.observe("replica.apply_s", MONOTONIC_CLOCK() - started)
        self.replica_applied += applied
        self.replica_duplicates += duplicates
        self.replica_quarantined += quarantined
        self.observer.incr("replica.applied", applied)
        self.observer.incr("replica.duplicates", duplicates)
        self.channel.send(
            msg_id,
            ShipAck(
                shard_id=self.spec.shard_id,
                partition=msg.partition,
                applied=applied,
                duplicates=duplicates,
                quarantined=quarantined,
                store_records=self.store.n_records,
            ),
        )

    # ------------------------------------------------------------------
    def dispatch(self, msg_id: int, msg: object) -> None:
        if isinstance(msg, SubmitRequest):
            self.handle_submit(msg_id, msg)
        elif isinstance(msg, RegisterTenant):
            self.scheduler.register_tenant(msg.tenant_id, msg.identifier)
            self.channel.send(msg_id, Ack(shard_id=self.spec.shard_id))
        elif isinstance(msg, LeaseGrant):
            self.handle_lease(msg_id, msg)
        elif isinstance(msg, JournalShip):
            self.handle_ship(msg_id, msg)
        elif isinstance(msg, HealthCheck):
            self.channel.send(msg_id, self.health())
        elif isinstance(msg, SnapshotRequest):
            self.channel.send(msg_id, self.telemetry())
        elif isinstance(msg, StoreDigest):
            hashes = store_content_hashes(self.store)
            self.channel.send(
                msg_id,
                ShardStoreDigest(
                    shard_id=self.spec.shard_id,
                    record_hashes=hashes,
                    n_records=len(hashes),
                ),
            )
        elif isinstance(msg, StreamOpen):
            opened = self.stream_gateway.open_session(
                msg.tenant_id,
                msg.n_channels,
                msg.sampling_rate_hz,
                msg.token_blob,
            )
            self.channel.send(
                msg_id,
                StreamOpened(
                    shard_id=self.spec.shard_id,
                    session_id=opened.session_id,
                    session_key=opened.session_key,
                    resume_token=opened.resume_token,
                    chunk_samples=opened.chunk_samples,
                    key_epoch=opened.key_epoch,
                ),
            )
        elif isinstance(msg, StreamChunkMsg):
            ack = self.stream_gateway.ingest_chunk(msg.blob)
            self.channel.send(
                msg_id,
                StreamChunkAck(
                    shard_id=self.spec.shard_id,
                    session_id=ack.session_id,
                    seq=ack.seq,
                    cursor=ack.cursor,
                    duplicate=ack.duplicate,
                    backpressure=ack.backpressure,
                    peaks_so_far=ack.peaks_so_far,
                ),
            )
        elif isinstance(msg, StreamResume):
            info = self.stream_gateway.resume(msg.session_id, msg.resume_token)
            self.channel.send(
                msg_id,
                StreamResumed(
                    shard_id=self.spec.shard_id,
                    session_id=info.session_id,
                    cursor=info.cursor,
                    chunk_samples=info.chunk_samples,
                    key_epoch=info.key_epoch,
                ),
            )
        elif isinstance(msg, StreamClose):
            outcome = self.stream_gateway.close_session(msg.session_id)
            self.channel.send(
                msg_id,
                StreamClosed(
                    shard_id=self.spec.shard_id,
                    session_id=outcome.session_id,
                    tenant_id=outcome.tenant_id,
                    n_chunks=outcome.n_chunks,
                    n_samples=outcome.n_samples,
                    n_duplicates=outcome.n_duplicates,
                    peak_count=outcome.report.count,
                    report_digest=outcome.digest,
                    degraded=outcome.degraded,
                    degraded_reason=outcome.degraded_reason,
                ),
            )
        elif isinstance(msg, Drain):
            self.accepting = False
            self.drain_reply = msg_id
        elif isinstance(msg, Shutdown):
            self.accepting = False
            self.shutdown_reply = msg_id
        else:
            self.channel.send(
                msg_id,
                ErrorReply(
                    shard_id=self.spec.shard_id,
                    error_type="UnknownMessage",
                    error_message=f"unhandled message type {type(msg).__name__}",
                ),
            )


def shard_main(spec: ShardSpec, conn) -> None:
    """Run one shard process until shutdown (or the pipe dies).

    The loop alternates between sweeping finished sessions out to the
    parent and draining inbound frames; drain/shutdown requests are
    acknowledged only once every in-flight session has been answered,
    so a clean drain never loses accepted work.

    The loop blocks until a frame arrives or a session finishes: each
    finished session's future writes one byte to a socketpair that the
    loop waits on alongside the pipe, so a reply leaves as soon as its
    session ends and an idle shard wakes on no timer.  A byte is
    written only after the future is done, and the loop drains the
    socket before it sweeps, so no completion is missed.
    """
    channel = FrameChannel(conn)
    wake_recv, wake_send = socket.socketpair()
    wake_recv.setblocking(False)
    wake_send.setblocking(False)

    def wake(_future) -> None:
        try:
            wake_send.send(b"\0")
        except OSError:
            pass  # buffer full (a wake is already pending) or closed

    runtime = _ShardRuntime(spec, channel, on_done=wake)
    try:
        while True:
            runtime.sweep()
            if not runtime.pending:
                if runtime.drain_reply is not None:
                    channel.send(runtime.drain_reply, runtime.health())
                    runtime.drain_reply = None
                if runtime.shutdown_reply is not None:
                    runtime.scheduler.shutdown()
                    if runtime.journal is not None:
                        runtime.journal.close()
                    channel.send(runtime.shutdown_reply, Ack(shard_id=spec.shard_id))
                    return
            ready = wait([conn, wake_recv])
            if wake_recv in ready:
                try:
                    wake_recv.recv(4096)
                except BlockingIOError:
                    pass
            if conn not in ready:
                continue
            try:
                msg_id, msg = channel.recv()
            except (EOFError, OSError):
                # Parent is gone; nothing left to serve.
                return
            except (ValidationError, OversizedPayloadError):
                # Garbage frame: counted by the channel, refused, and
                # the shard keeps serving (hardening containment).
                runtime.observer.incr("fleet.garbage_frames")
                continue
            try:
                runtime.dispatch(msg_id, msg)
            except (EOFError, OSError, BrokenPipeError):
                return
            except BaseException as error:  # noqa: BLE001 - containment
                channel.send(
                    msg_id,
                    ErrorReply(
                        shard_id=spec.shard_id,
                        error_type=type(error).__name__,
                        error_message=str(error),
                    ),
                )
    finally:
        try:
            runtime.scheduler.shutdown(wait=False)
            if runtime.journal is not None:
                runtime.journal.close()
        except Exception:
            pass
        wake_recv.close()
        wake_send.close()
