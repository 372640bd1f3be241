"""The asyncio ingest front door of the sharded cloud tier.

:class:`AsyncFrontDoor` is the single admission point for fleet
traffic.  For each submission it

1. **admits** — the same
   :func:`~repro.guard.admission.admit_session_params` total-parsing
   gate the thread-pool scheduler uses, so a malformed tenant id or an
   absurd duration is refused with a typed
   :class:`~repro._util.errors.AdmissionError` (counted under
   ``guard.rejected``) before any sequence number is spent;
2. **sheds** — at most ``max_inflight`` sessions may be outstanding;
   one more is refused with :class:`FleetSaturatedError` (the
   ``fleet.shed`` counter and a ``fleet.load_shed`` event record it)
   rather than queued without bound — bounded memory is the contract
   that lets the tier face a million-user arrival process;
3. **sequences** — assigns the tenant's next submission sequence, the
   second coordinate of the deterministic request RNG;
4. **routes** — consistent-hash ring → owning shard, MST1 trace
   context attached so the shard's span stitches to the ingress trace;
5. **awaits** — the shard handle's :class:`concurrent.futures.Future`
   is bridged onto the event loop with :func:`asyncio.wrap_future`, so
   thousands of outstanding sessions cost one coroutine each, not one
   thread each.

Because the front door runs on one event loop, its inflight counter
and sequence table need no locks — every mutation happens between
awaits.
"""

import asyncio
from typing import Dict, Optional

from repro._util.errors import MedSenError, UnknownSessionError
from repro.fleet.cluster import FleetCluster, ShardCrashedError, ShardRequestError
from repro.fleet.messages import (
    SessionOutcome,
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
from repro.obs import (
    DEGRADED_ACK,
    EPOCH_FENCED,
    FLEET_SHED,
    HANDOFF_QUEUED,
    HANDOFF_SHED,
    NULL_OBSERVER,
    derive_trace_context,
)


class FleetSaturatedError(MedSenError):
    """Typed load-shed: the inflight bound is full; retry with backoff."""


class FleetRequestFailedError(MedSenError):
    """A routed session failed on its shard (typed, with provenance)."""

    def __init__(self, shard_id: str, error_type: str, error_message: str) -> None:
        super().__init__(f"[{shard_id}] {error_type}: {error_message}")
        self.shard_id = shard_id
        self.error_type = error_type
        self.error_message = error_message


class AsyncFrontDoor:
    """Admission, backpressure, sequencing, and routing for the fleet."""

    def __init__(
        self,
        cluster: FleetCluster,
        max_inflight: Optional[int] = None,
        observer=NULL_OBSERVER,
    ) -> None:
        self.cluster = cluster
        self.max_inflight = (
            max_inflight if max_inflight is not None else cluster.config.max_inflight
        )
        if self.max_inflight < 1:
            raise MedSenError(f"max_inflight must be >= 1, got {self.max_inflight}")
        self.observer = observer
        self._sequences: Dict[str, int] = {}
        self.inflight = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.retried = 0
        # Streaming lane: session routing + per-session send ordering.
        self._stream_tenants: Dict[str, str] = {}
        self._stream_locks: Dict[str, asyncio.Lock] = {}
        self.streams_opened = 0
        self.stream_chunks = 0
        # Replication lane (repro.fleet.replication) — opt-in: plain
        # clusters (and test stubs) have no `replicated` attribute and
        # keep the single-copy behaviour bit-for-bit.
        self._replicated = bool(getattr(cluster, "replicated", False))
        self._promotions: Dict[str, asyncio.Future] = {}
        self._handoff_waiters: Dict[str, int] = {}
        self._open_locks: Dict[str, asyncio.Lock] = {}
        self.fenced = 0
        self.handoff_queued = 0
        self.handoff_shed = 0
        self.degraded_acks = 0

    # ------------------------------------------------------------------
    async def register_tenant(self, tenant_id: str, identifier) -> None:
        """Enrol a tenant without blocking the event loop."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, self.cluster.register_tenant, tenant_id, identifier
        )

    # ------------------------------------------------------------------
    def _admit(self, tenant_id: str, duration_s: float, pipette_volume_ul: float):
        from repro.guard.admission import admit_session_params

        admit_session_params(
            tenant_id,
            duration_s,
            pipette_volume_ul,
            observer=self.observer,
            boundary="fleet",
        )

    async def submit(
        self,
        tenant_id: str,
        blood,
        identifier,
        duration_s: float = 20.0,
        pipette_volume_ul: float = 2.0,
        timeout: Optional[float] = None,
        retries_on_crash: int = 0,
    ) -> SessionOutcome:
        """Admit, route, and await one diagnostic session.

        ``retries_on_crash`` replays the submission — with the *same*
        tenant sequence, so the request RNG coordinates are unchanged —
        after a shard crash, once the supervisor has restarted the
        shard.  The shard-side dedup cache makes the replay idempotent
        if the original actually completed.
        """
        # Admission before sequencing: a refused submission must not
        # burn a sequence number (replay determinism).
        self._admit(tenant_id, duration_s, pipette_volume_ul)
        if self.inflight >= self.max_inflight:
            self.shed += 1
            self.observer.incr("fleet.shed")
            self.observer.event(
                FLEET_SHED, tenant=tenant_id, inflight=self.inflight
            )
            raise FleetSaturatedError(
                f"fleet saturated: {self.inflight} sessions in flight "
                f"(bound {self.max_inflight})"
            )
        sequence = self._sequences.get(tenant_id, 0)
        self._sequences[tenant_id] = sequence + 1
        context = derive_trace_context(
            self.cluster.config.shard.seed, tenant_id, sequence
        )
        message = SubmitRequest(
            tenant_id=tenant_id,
            tenant_sequence=sequence,
            blood=blood,
            identifier=identifier,
            duration_s=duration_s,
            pipette_volume_ul=pipette_volume_ul,
            trace_context=context.to_bytes(),
        )
        timeout = (
            timeout if timeout is not None else self.cluster.config.request_timeout_s
        )
        self.inflight += 1
        self.submitted += 1
        self.observer.incr("fleet.submitted")
        try:
            attempts = 0
            handoffs = 0
            fences = 0
            while True:
                handle = self.cluster.handle_for(tenant_id)
                if self._replicated:
                    # Capture the routing-time epoch: a failover kicked
                    # off for a crash observed *at this epoch* coalesces
                    # with (never re-runs after) a promotion that
                    # already advanced it.
                    partition = self.cluster.partition_of(tenant_id)
                    routed_epoch = self.cluster.partition_epoch(partition)
                with self.observer.span(
                    "fleet_ingress",
                    remote_parent=context,
                    service="frontdoor",
                    tenant=tenant_id,
                    shard=handle.shard_id,
                ):
                    future = handle.request(message)
                try:
                    response = await asyncio.wait_for(
                        asyncio.wrap_future(future), timeout=timeout
                    )
                except ShardCrashedError as crash:
                    if self._replicated:
                        # Hinted handoff: queue (bounded) behind the
                        # partition's promotion, then re-route to the
                        # promoted standby with the same sequence.
                        if handoffs >= 2:
                            raise
                        handoffs += 1
                        await self._handoff(partition, routed_epoch, crash)
                        continue
                    if attempts >= retries_on_crash:
                        raise
                    attempts += 1
                    self.retried += 1
                    self.observer.incr("fleet.retries")
                    # Give the supervisor a beat to restart the shard;
                    # handle_for() re-resolves to the new process.
                    await asyncio.sleep(0.05 * attempts)
                    continue
                except ShardRequestError as refusal:
                    # The shard's typed ErrorReply, re-raised in the
                    # front door's vocabulary with provenance intact.
                    raise FleetRequestFailedError(
                        refusal.shard_id,
                        refusal.error_type,
                        refusal.error_message,
                    ) from refusal
                if self._replicated:
                    if self.cluster.is_stale(partition, response.epoch):
                        # A superseded primary answered: never ack its
                        # word — fence it and re-run on the current
                        # primary (same RNG coordinates, so the client
                        # sees the bit-identical outcome exactly once).
                        self.fenced += 1
                        self.observer.incr("fleet.fenced_responses")
                        self.observer.event(
                            EPOCH_FENCED,
                            partition=partition,
                            shard=response.shard_id,
                            stale_epoch=response.epoch,
                            current_epoch=self.cluster.partition_epoch(partition),
                        )
                        fences += 1
                        if fences >= 3:
                            raise FleetRequestFailedError(
                                response.shard_id,
                                "StaleEpoch",
                                f"partition {partition} kept answering with "
                                f"superseded epoch {response.epoch}",
                            )
                        continue
                    if response.ok and response.journal_entry:
                        # Synchronous replication: the standby holds the
                        # committed record's journal line before the
                        # client ever sees the ack.
                        await self._ship(partition, response.journal_entry, timeout)
                break
        except Exception:
            self.failed += 1
            self.observer.incr("fleet.failed")
            raise
        finally:
            self.inflight -= 1
        assert isinstance(response, SubmitResponse)
        if not response.ok:
            self.failed += 1
            self.observer.incr("fleet.failed")
            raise FleetRequestFailedError(
                response.shard_id,
                response.error_type or "SessionFailed",
                response.error_message or "session failed",
            )
        if response.duplicate:
            self.observer.incr("fleet.duplicates_answered")
        self.completed += 1
        self.observer.incr("fleet.completed")
        assert response.outcome is not None
        return response.outcome

    # ------------------------------------------------------------------
    # Replication lane (only active over a ReplicatedCluster).
    # ------------------------------------------------------------------
    def _degraded_ack(self, partition: str, reason: str) -> None:
        """Audit an ack whose only durable copies are the primary's
        journal and the supervisor's replication log (no live standby
        held the record when the client was acknowledged)."""
        self.degraded_acks += 1
        self.observer.incr("fleet.degraded_acks")
        self.observer.event(DEGRADED_ACK, partition=partition, reason=reason)

    async def _ship(
        self, partition: str, journal_entry: str, timeout: Optional[float]
    ) -> None:
        """Ship a committed record's journal lines to the standby and
        wait for its apply ack — the synchronous half of replication.

        The two-copy ack invariant is enforced, not hoped for: a ship
        the standby does not acknowledge is retried once (against the
        possibly-respawned standby, without re-recording lines the
        replication log already holds), and if the retry fails too the
        *submit* fails with a typed ``ReplicationFailed`` — the client
        is never told a result is durable when it is single-copy.  The
        one deliberate exception is a partition with **no live
        standby** (mid-failover): the supervisor's replication log
        already holds the lines, the rejoin pass reconciles them, and
        the degraded-durability ack is surfaced explicitly — counted
        (``degraded_acks``) and audited (``fleet.degraded_ack``) — so
        the window is visible, never silent.
        """
        future = self.cluster.ship(partition, journal_entry)
        if future is None:
            self._degraded_ack(partition, "no-live-standby")
            return
        for retry in (False, True):
            try:
                ack = await asyncio.wait_for(
                    asyncio.wrap_future(future), timeout=timeout
                )
            except (
                ShardCrashedError,
                ShardRequestError,
                asyncio.TimeoutError,
            ) as error:
                self.observer.incr("fleet.ship_failed")
                if not retry:
                    # The replog already recorded the lines; a second
                    # append would replay as a duplicate on rejoin.
                    future = self.cluster.ship(
                        partition, journal_entry, record=False
                    )
                    if future is None:
                        self._degraded_ack(partition, "standby-died-mid-ship")
                        return
                    continue
                raise FleetRequestFailedError(
                    self.cluster.standby_id(partition) or partition,
                    "ReplicationFailed",
                    f"standby for partition {partition} did not acknowledge "
                    f"the shipped journal lines; refusing to acknowledge a "
                    f"single-copy result",
                ) from error
            if ack.quarantined:
                self.observer.incr("fleet.ship_quarantined", ack.quarantined)
            return

    async def _handoff(
        self, partition: str, observed_epoch: int, crash: Exception
    ) -> None:
        """Queue (bounded) behind the partition's standby promotion.

        The first waiter kicks :meth:`ReplicatedCluster.fail_over` onto
        an executor thread, passing the epoch this request was routed
        under — a straggling crash report whose epoch a promotion has
        already superseded coalesces inside ``fail_over`` instead of
        demoting the freshly promoted primary.  Later waiters share the
        same promotion.  Beyond ``handoff_capacity`` waiters — or past
        the ``handoff_window_s`` deadline — the request is shed with
        the same typed refusal as steady-state overload, so failover
        pressure never buffers without bound.
        """
        replication = self.cluster.replication
        waiters = self._handoff_waiters.get(partition, 0)
        if waiters >= replication.handoff_capacity:
            self.handoff_shed += 1
            self.observer.incr("fleet.handoff_shed")
            self.observer.event(
                HANDOFF_SHED, partition=partition, waiters=waiters
            )
            raise FleetSaturatedError(
                f"partition {partition} failover queue full "
                f"({waiters}/{replication.handoff_capacity})"
            ) from crash
        self._handoff_waiters[partition] = waiters + 1
        self.handoff_queued += 1
        self.observer.incr("fleet.handoff_queued")
        self.observer.event(
            HANDOFF_QUEUED, partition=partition, waiters=waiters + 1
        )
        promotion = self._promotions.get(partition)
        if promotion is None:
            loop = asyncio.get_running_loop()
            promotion = loop.run_in_executor(
                None, self.cluster.fail_over, partition, observed_epoch
            )
            self._promotions[partition] = promotion
        try:
            await asyncio.wait_for(
                asyncio.shield(promotion),
                timeout=replication.handoff_window_s,
            )
        except asyncio.TimeoutError:
            self.handoff_shed += 1
            self.observer.incr("fleet.handoff_shed")
            self.observer.event(
                HANDOFF_SHED, partition=partition, waiters=waiters + 1
            )
            raise FleetSaturatedError(
                f"partition {partition} failover exceeded "
                f"{replication.handoff_window_s}s handoff window"
            ) from crash
        finally:
            self._handoff_waiters[partition] -= 1
            if promotion.done():
                self._promotions.pop(partition, None)

    # ------------------------------------------------------------------
    # Streaming lane: a session is pinned to its tenant's shard; chunk
    # sends for one session are serialised by a per-session lock so the
    # gateway's cursor never sees a racing out-of-order pair from us
    # (re-ordering *on the link* is the gateway's job to refuse).
    # Over a replicated cluster every stream message is **mirrored** to
    # the partition's standby: session ids and HMAC resume tokens are
    # deterministic functions of (secret, open order), so a standby that
    # sees the same messages in the same order holds an identical
    # gateway — which is what lets a session resume on the promoted
    # standby after its primary dies.
    # ------------------------------------------------------------------
    async def _await_reply(self, handle, message, timeout: Optional[float]):
        future = handle.request(message)
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=timeout
            )
        except ShardRequestError as refusal:
            # The receiver thread has already unpacked the shard's
            # typed ErrorReply; re-raise in the front door's own
            # failure vocabulary, provenance intact.
            raise FleetRequestFailedError(
                refusal.shard_id, refusal.error_type, refusal.error_message
            ) from refusal

    async def _mirror_to_standby(
        self, partition: str, message, timeout: Optional[float]
    ) -> None:
        standby = self.cluster.standby_handle(partition)
        if standby is None or not standby.alive:
            self.observer.incr("fleet.stream_mirror_skipped")
            return
        try:
            await self._await_reply(standby, message, timeout)
        except (
            FleetRequestFailedError,
            ShardCrashedError,
            asyncio.TimeoutError,
        ):
            self.observer.incr("fleet.stream_mirror_failed")

    async def _stream_request(
        self, tenant_id: str, message, timeout: Optional[float] = None
    ):
        timeout = (
            timeout if timeout is not None else self.cluster.config.request_timeout_s
        )
        handle = self.cluster.handle_for(tenant_id)
        if self._replicated:
            partition = self.cluster.partition_of(tenant_id)
            routed_epoch = self.cluster.partition_epoch(partition)
        try:
            response = await self._await_reply(handle, message, timeout)
        except ShardCrashedError as crash:
            if not self._replicated:
                raise
            await self._handoff(partition, routed_epoch, crash)
            # The promoted standby mirrors the session's gateway state;
            # re-issue on it (resume/chunk replay is gateway-idempotent).
            handle = self.cluster.handle_for(tenant_id)
            response = await self._await_reply(handle, message, timeout)
            return response
        if self._replicated:
            await self._mirror_to_standby(partition, message, timeout)
        return response

    def _stream_tenant(self, session_id: str) -> str:
        tenant_id = self._stream_tenants.get(session_id)
        if tenant_id is None:
            raise UnknownSessionError(
                f"front door has no open stream {session_id!r}"
            )
        return tenant_id

    async def open_stream(
        self,
        tenant_id: str,
        n_channels: int,
        sampling_rate_hz: float,
        token_blob: bytes,
        timeout: Optional[float] = None,
    ) -> StreamOpened:
        """Open a streaming session on the tenant's owning shard."""
        message = StreamOpen(
            tenant_id=tenant_id,
            n_channels=int(n_channels),
            sampling_rate_hz=float(sampling_rate_hz),
            token_blob=bytes(token_blob),
        )
        if self._replicated:
            # Session ids are per-gateway open counters, so opens must
            # hit the primary and its mirror in one serialised order —
            # otherwise two concurrent opens could swap identities on
            # the standby and resume-after-failover would cross wires.
            partition = self.cluster.partition_of(tenant_id)
            lock = self._open_locks.setdefault(partition, asyncio.Lock())
            async with lock:
                response = await self._stream_request(tenant_id, message, timeout)
        else:
            response = await self._stream_request(tenant_id, message, timeout)
        assert isinstance(response, StreamOpened)
        self._stream_tenants[response.session_id] = tenant_id
        self._stream_locks[response.session_id] = asyncio.Lock()
        self.streams_opened += 1
        self.observer.incr("fleet.streams_opened")
        return response

    async def stream_chunk(
        self, session_id: str, blob: bytes, timeout: Optional[float] = None
    ) -> StreamChunkAck:
        """Forward one sealed chunk to its session's shard, in order."""
        tenant_id = self._stream_tenant(session_id)
        async with self._stream_locks[session_id]:
            response = await self._stream_request(
                tenant_id,
                StreamChunkMsg(
                    tenant_id=tenant_id,
                    session_id=session_id,
                    blob=bytes(blob),
                ),
                timeout,
            )
        assert isinstance(response, StreamChunkAck)
        self.stream_chunks += 1
        self.observer.incr("fleet.stream_chunks")
        return response

    async def resume_stream(
        self,
        session_id: str,
        resume_token: str,
        timeout: Optional[float] = None,
    ) -> StreamResumed:
        """Re-attach to a session after a device-side disconnect."""
        tenant_id = self._stream_tenant(session_id)
        response = await self._stream_request(
            tenant_id,
            StreamResume(
                tenant_id=tenant_id,
                session_id=session_id,
                resume_token=resume_token,
            ),
            timeout,
        )
        assert isinstance(response, StreamResumed)
        self.observer.incr("fleet.streams_resumed")
        return response

    async def close_stream(
        self, session_id: str, timeout: Optional[float] = None
    ) -> StreamClosed:
        """Close a session and collect its terminal streamed outcome."""
        tenant_id = self._stream_tenant(session_id)
        async with self._stream_locks[session_id]:
            response = await self._stream_request(
                tenant_id,
                StreamClose(tenant_id=tenant_id, session_id=session_id),
                timeout,
            )
        assert isinstance(response, StreamClosed)
        self._stream_tenants.pop(session_id, None)
        self._stream_locks.pop(session_id, None)
        self.observer.incr("fleet.streams_closed")
        return response
