"""Resumable streaming sessions: cursor, journal, watchdog, rotation.

The streaming protocol in one paragraph: a device opens a session with
an authenticated freshness token (MSF1/MSF2, replay-protected by the
gateway's :class:`~repro.guard.freshness.FreshnessGuard`), then sends
sealed MSS1 chunks (:mod:`repro.stream.envelope`) in sequence.  The
gateway keeps a **per-session cursor** (the next seq it will analyse)
and an **acked-chunk journal** (every sealed blob it accepted, in
order).  A chunk at ``seq == cursor`` is fed into the windowed
carry-over detector (:class:`~repro.dsp.windowed.WindowedPeakDetector`)
exactly once; ``seq < cursor`` is a duplicate delivery and is answered
from the cursor without re-analysis (*replays nothing*); ``seq >
cursor`` is a loss and refuses with a typed
:class:`~repro._util.errors.SequenceGapError` carrying the expected
seq.  A disconnected device resumes with its ``resume_token`` and
continues from the cursor; a device that never comes back is suspended
and then reaped by the deadline watchdog.  Mid-stream the key epoch can
rotate: the gateway accepts a bounded number of chunks still sealed
under the previous epoch (the rotation overlap window), then the old
epoch goes stale.

Session state machine (see docs/streaming.md)::

    open_session ──> ACTIVE ──close_session──> CLOSED
                      │  ▲
            idle > suspend_after_s
                      ▼  │ resume(resume_token)
                   SUSPENDED ──idle > reap_after_s──> REAPED

Every transition is an audit event; every refusal is typed.
"""

import hmac
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro._util.drill import canonical_digest
from repro._util.errors import (
    ResumeAuthError,
    SequenceGapError,
    SessionReapedError,
    SessionStateError,
    StaleEpochError,
    StreamSessionError,
    UnknownSessionError,
    ValidationError,
)
from repro.cloud.api import report_to_dict
from repro.crypto.keyshare import mac
from repro.dsp.peakdetect import PeakDetector, PeakReport
from repro.dsp.windowed import WindowedPeakDetector
from repro.guard.freshness import FreshnessGuard, TokenMinter
from repro.obs import (
    NULL_OBSERVER,
    STALE_EPOCH_REJECTED,
    STREAM_CHUNK_REFUSED,
    STREAM_DEGRADED,
    STREAM_EPOCH_ROTATED,
    STREAM_SESSION_CLOSED,
    STREAM_SESSION_OPENED,
    STREAM_SESSION_REAPED,
    STREAM_SESSION_RESUMED,
    STREAM_SESSION_SUSPENDED,
)
from repro.stream.envelope import (
    MAX_CHUNK_CHANNELS,
    open_chunk,
    seal_chunk,
)

#: Session states.
ACTIVE = "active"
SUSPENDED = "suspended"
CLOSED = "closed"
REAPED = "reaped"

_RESUME_LABEL = b"medsen-stream-resume"
_SESSION_KEY_LABEL = b"medsen-stream-session"

#: Factor a backpressured ack applies to the device's chunk size.
CONGESTION_BACKOFF = 0.5
#: Consecutive clean acks before the chunk size grows back one step.
CLEAN_ACKS_TO_GROW = 4


@dataclass(frozen=True)
class StreamSessionConfig:
    """Tuning knobs for one gateway's streaming lane."""

    chunk_samples: int = 2048
    min_chunk_samples: int = 128
    max_chunk_samples: int = 16384
    suspend_after_s: float = 15.0
    reap_after_s: float = 60.0
    epoch_overlap_chunks: int = 4
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.min_chunk_samples < 1:
            raise ValidationError("min_chunk_samples must be >= 1")
        if not (
            self.min_chunk_samples <= self.chunk_samples <= self.max_chunk_samples
        ):
            raise ValidationError(
                "chunk_samples must satisfy min <= chunk <= max, got "
                f"{self.min_chunk_samples}/{self.chunk_samples}/{self.max_chunk_samples}"
            )
        if self.suspend_after_s <= 0 or self.reap_after_s <= self.suspend_after_s:
            raise ValidationError(
                "deadlines must satisfy 0 < suspend_after_s < reap_after_s"
            )
        if self.epoch_overlap_chunks < 0:
            raise ValidationError("epoch_overlap_chunks must be >= 0")
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")


@dataclass(frozen=True)
class OpenedStream:
    """The gateway's answer to ``open_session``."""

    session_id: str
    session_key: bytes
    resume_token: str
    chunk_samples: int
    key_epoch: int


@dataclass(frozen=True)
class ChunkAck:
    """The gateway's answer to one accepted (or duplicate) chunk."""

    session_id: str
    seq: int
    cursor: int
    duplicate: bool
    backpressure: bool
    peaks_so_far: int


@dataclass(frozen=True)
class ResumeInfo:
    """The gateway's answer to ``resume``: where to pick up."""

    session_id: str
    cursor: int
    chunk_samples: int
    key_epoch: int


@dataclass(frozen=True)
class StreamOutcome:
    """Terminal result of one closed streaming session."""

    session_id: str
    tenant_id: str
    n_chunks: int
    n_samples: int
    n_duplicates: int
    report: PeakReport
    digest: str
    degraded: bool = False
    degraded_reason: str = ""


def report_digest(report: PeakReport) -> str:
    """Canonical BLAKE2b digest of a peak report's full content.

    The streamed-vs-one-shot bit-identity guarantee is checked through
    this: identical float bits serialise to identical JSON (shortest
    round-trip repr), so equal digests mean equal reports field-for-field.
    """
    return canonical_digest(report_to_dict(report), 12)


class _Session:
    """Mutable gateway-side state of one stream (not exported)."""

    __slots__ = (
        "session_id",
        "tenant_id",
        "session_key",
        "resume_token",
        "n_channels",
        "sampling_rate_hz",
        "state",
        "cursor",
        "journal",
        "detector",
        "last_seen_s",
        "overlap_remaining",
        "n_samples",
        "n_duplicates",
        "heartbeats",
    )

    def __init__(
        self,
        session_id: str,
        tenant_id: str,
        session_key: bytes,
        resume_token: str,
        n_channels: int,
        sampling_rate_hz: float,
        detector: WindowedPeakDetector,
        now_s: float,
    ) -> None:
        self.session_id = session_id
        self.tenant_id = tenant_id
        self.session_key = session_key
        self.resume_token = resume_token
        self.n_channels = n_channels
        self.sampling_rate_hz = sampling_rate_hz
        self.state = ACTIVE
        self.cursor = 0
        self.journal: List[bytes] = []
        self.detector: Optional[WindowedPeakDetector] = detector
        self.last_seen_s = now_s
        self.overlap_remaining = 0
        self.n_samples = 0
        self.n_duplicates = 0
        self.heartbeats = 0


class StreamGateway:
    """The cloud side of the streaming lane.

    One gateway serves many concurrent sessions; each session owns a
    windowed carry-over detector whose concatenated output is
    bit-identical to the one-shot pipeline on the full trace.

    Parameters
    ----------
    secret:
        Shared device/cloud secret: seals chunks, authenticates
        freshness tokens at open, and derives resume tokens.
    key_epoch:
        The epoch currently expected on inbound chunks.
    config:
        Protocol deadlines and rate-control hints.
    detector:
        Template :class:`~repro.dsp.peakdetect.PeakDetector` whose
        thresholds each session's windowed detector mirrors.
    clock:
        Monotonic-ish time source for the watchdog (injectable;
        :class:`~repro.obs.ManualClock` makes reaping deterministic).
    """

    def __init__(
        self,
        secret: bytes,
        key_epoch: int = 0,
        config: Optional[StreamSessionConfig] = None,
        detector: Optional[PeakDetector] = None,
        observer: Any = NULL_OBSERVER,
        clock: Any = None,
    ) -> None:
        if not secret:
            raise ValidationError("stream secret must be non-empty")
        self.secret = secret
        self.key_epoch = int(key_epoch)
        self.config = config or StreamSessionConfig()
        self.detector = detector or PeakDetector()
        self.observer = observer
        self._clock = clock
        self.freshness = FreshnessGuard(secret, key_epoch=key_epoch)
        self._sessions: Dict[str, _Session] = {}
        self._by_key: Dict[bytes, str] = {}
        self._opened = 0
        self.congested = False
        self.chunks_analyzed = 0
        self.epoch_overlap_accepted = 0
        self.rotations = 0

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return float(self._clock()) if self._clock is not None else 0.0

    def _refuse(self, session_id: str, reason: str, error: StreamSessionError):
        self.observer.incr("stream.refused")
        self.observer.event(
            STREAM_CHUNK_REFUSED, session=session_id, reason=reason
        )
        raise error

    def _derive_resume_token(self, session_id: str) -> str:
        return mac(self.secret, _RESUME_LABEL, session_id.encode("utf-8")).hex()[:32]

    def _derive_session_key(self, session_id: str) -> bytes:
        return mac(self.secret, _SESSION_KEY_LABEL, session_id.encode("utf-8"))[:16]

    def _lookup(self, session_id: str) -> _Session:
        session = self._sessions.get(session_id)
        if session is None:
            self._refuse(
                session_id,
                "unknown_session",
                UnknownSessionError(f"unknown stream session {session_id!r}"),
            )
        return session

    # ------------------------------------------------------------------
    def open_session(
        self,
        tenant_id: str,
        n_channels: int,
        sampling_rate_hz: float,
        token_blob: Any,
    ) -> OpenedStream:
        """Admit a freshness token and open one streaming session.

        The token rides the same :class:`FreshnessGuard` as one-shot
        ingest — forged, replayed, or stale-epoch opens are typed
        :class:`~repro._util.errors.AdmissionError` refusals before any
        session state is allocated.
        """
        if not tenant_id or not isinstance(tenant_id, str):
            raise ValidationError("tenant_id must be a non-empty string")
        if not 1 <= int(n_channels) <= MAX_CHUNK_CHANNELS:
            raise ValidationError(
                f"n_channels must be 1..{MAX_CHUNK_CHANNELS}, got {n_channels}"
            )
        if not np.isfinite(sampling_rate_hz) or sampling_rate_hz <= 0:
            raise ValidationError(
                f"sampling rate must be finite > 0, got {sampling_rate_hz}"
            )
        self.freshness.admit(token_blob, observer=self.observer, boundary="stream")
        session_id = f"{tenant_id}/s{self._opened}"
        self._opened += 1
        session = _Session(
            session_id=session_id,
            tenant_id=tenant_id,
            session_key=self._derive_session_key(session_id),
            resume_token=self._derive_resume_token(session_id),
            n_channels=int(n_channels),
            sampling_rate_hz=float(sampling_rate_hz),
            detector=WindowedPeakDetector(
                int(n_channels), float(sampling_rate_hz), detector=self.detector
            ),
            now_s=self._now(),
        )
        self._sessions[session_id] = session
        self._by_key[session.session_key] = session_id
        self.observer.incr("stream.sessions_opened")
        self.observer.event(
            STREAM_SESSION_OPENED, session=session_id, tenant=tenant_id
        )
        return OpenedStream(
            session_id=session_id,
            session_key=session.session_key,
            resume_token=session.resume_token,
            chunk_samples=self.config.chunk_samples,
            key_epoch=self.key_epoch,
        )

    # ------------------------------------------------------------------
    def ingest_chunk(self, blob: Any) -> ChunkAck:
        """Verify, order, epoch-check, and analyse one sealed chunk.

        The pipeline, in refusal order: envelope authentication
        (:class:`~repro._util.errors.EnvelopeError`), session lookup
        (:class:`~repro._util.errors.UnknownSessionError`), state check
        (SUSPENDED streams must resume first), cursor check (duplicates
        ack idempotently and are **not** re-analysed; gaps refuse with
        the expected seq), epoch window, then — exactly once per seq —
        the windowed detector feed.
        """
        chunk = open_chunk(
            blob, self.secret, observer=self.observer, boundary="stream"
        )
        session_id = self._by_key.get(chunk.session_key)
        if session_id is None:
            self._refuse(
                "?",
                "unknown_session_key",
                UnknownSessionError("chunk references no open session"),
            )
        session = self._sessions[session_id]
        if session.state == REAPED:
            self._refuse(
                session_id,
                "session_reaped",
                SessionReapedError(f"session {session_id} was reaped"),
            )
        if session.state == CLOSED:
            self._refuse(
                session_id,
                "session_closed",
                SessionStateError(f"session {session_id} is closed"),
            )
        if session.state == SUSPENDED:
            self._refuse(
                session_id,
                "session_suspended",
                SessionStateError(
                    f"session {session_id} is suspended; resume first"
                ),
            )
        session.last_seen_s = self._now()
        if chunk.seq < session.cursor:
            # Duplicate delivery (radio retransmit or attacker replay of
            # an acked chunk): answer from the cursor, analyse nothing.
            session.n_duplicates += 1
            self.observer.incr("stream.duplicates")
            return ChunkAck(
                session_id=session_id,
                seq=chunk.seq,
                cursor=session.cursor,
                duplicate=True,
                backpressure=self.congested,
                peaks_so_far=session.detector.peaks_emitted
                if session.detector is not None
                else 0,
            )
        if chunk.seq > session.cursor:
            self._refuse(
                session_id,
                "sequence_gap",
                SequenceGapError(
                    f"chunk seq {chunk.seq} ahead of cursor {session.cursor}; "
                    f"resume from {session.cursor}",
                    expected_seq=session.cursor,
                ),
            )
        # Epoch window: the current epoch always; the previous one only
        # inside the bounded per-session rotation overlap.
        if chunk.key_epoch != self.key_epoch:
            in_overlap = (
                chunk.key_epoch == self.key_epoch - 1
                and session.overlap_remaining > 0
            )
            if not in_overlap:
                self.observer.incr("stream.refused")
                self.observer.incr("guard.stale_epoch")
                self.observer.event(
                    STALE_EPOCH_REJECTED,
                    boundary="stream",
                    token_epoch=chunk.key_epoch,
                    expected_epoch=self.key_epoch,
                )
                raise StaleEpochError(
                    f"chunk epoch {chunk.key_epoch} outside the stream window "
                    f"(expected {self.key_epoch}, overlap "
                    f"{session.overlap_remaining} left)"
                )
            session.overlap_remaining -= 1
            self.epoch_overlap_accepted += 1
            self.observer.incr("stream.epoch_overlap_accepted")
        if chunk.n_channels != session.n_channels:
            self._refuse(
                session_id,
                "channel_mismatch",
                SessionStateError(
                    f"chunk has {chunk.n_channels} channels; session opened "
                    f"with {session.n_channels}"
                ),
            )
        if chunk.sampling_rate_hz != session.sampling_rate_hz:
            self._refuse(
                session_id,
                "rate_mismatch",
                SessionStateError(
                    f"chunk sampled at {chunk.sampling_rate_hz} Hz; session "
                    f"opened at {session.sampling_rate_hz} Hz"
                ),
            )
        with self.observer.span(
            "stream_chunk",
            service="stream",
            session=session_id,
            seq=chunk.seq,
            samples=chunk.n_samples,
        ) as span:
            session.detector.feed(chunk.samples)
        self.observer.observe("stream.chunk_s", span.duration_s)
        self.observer.observe("stream.chunk_samples", float(chunk.n_samples))
        self.observer.incr("stream.chunks")
        self.observer.incr("stream.samples", chunk.n_samples)
        session.journal.append(bytes(blob))
        session.cursor += 1
        session.n_samples += chunk.n_samples
        self.chunks_analyzed += 1
        return ChunkAck(
            session_id=session_id,
            seq=chunk.seq,
            cursor=session.cursor,
            duplicate=False,
            backpressure=self.congested,
            peaks_so_far=session.detector.peaks_emitted,
        )

    # ------------------------------------------------------------------
    def heartbeat(self, session_id: str) -> float:
        """Keep an idle-but-alive session off the watchdog's list.

        Returns the seconds of deadline headroom remaining.
        """
        session = self._lookup(session_id)
        if session.state not in (ACTIVE, SUSPENDED):
            self._refuse(
                session_id,
                "heartbeat_terminal",
                SessionStateError(
                    f"session {session_id} is {session.state}; no heartbeats"
                ),
            )
        session.last_seen_s = self._now()
        session.heartbeats += 1
        self.observer.incr("stream.heartbeats")
        deadline = (
            self.config.suspend_after_s
            if session.state == ACTIVE
            else self.config.reap_after_s
        )
        return deadline

    def sweep(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The watchdog pass: suspend the silent, reap the long-gone.

        Returns ``(suspended_ids, reaped_ids)`` for this pass.  Reaping
        drops the session's detector and journal — its carry-over state
        is unrecoverable by design (bounded memory beats immortal
        sessions), and later resume attempts refuse with
        :class:`~repro._util.errors.SessionReapedError`.
        """
        now = self._now()
        suspended: List[str] = []
        reaped: List[str] = []
        for session in list(self._sessions.values()):
            idle = now - session.last_seen_s
            if session.state == ACTIVE and idle > self.config.suspend_after_s:
                session.state = SUSPENDED
                suspended.append(session.session_id)
                self.observer.incr("stream.sessions_suspended")
                self.observer.event(
                    STREAM_SESSION_SUSPENDED,
                    session=session.session_id,
                    idle_s=idle,
                )
            elif session.state == SUSPENDED and idle > self.config.reap_after_s:
                session.state = REAPED
                session.detector = None
                session.journal = []
                reaped.append(session.session_id)
                self.observer.incr("stream.sessions_reaped")
                self.observer.event(
                    STREAM_SESSION_REAPED,
                    session=session.session_id,
                    idle_s=idle,
                )
        return tuple(suspended), tuple(reaped)

    def resume(self, session_id: str, resume_token: str) -> ResumeInfo:
        """Re-attach a device to its session after a disconnect.

        The token must match the one handed out at open; a wrong token
        is a typed :class:`~repro._util.errors.ResumeAuthError` (and
        counted), so session ids are not capabilities.  Resume is
        idempotent on ACTIVE sessions — a device that reconnected
        before the watchdog noticed just gets its cursor back.
        """
        session = self._lookup(session_id)
        # Bytes, not str: compare_digest refuses non-ASCII str with a
        # bare TypeError, and the token arrives from outside.
        if not hmac.compare_digest(
            str(resume_token).encode("utf-8", "surrogatepass"),
            session.resume_token.encode("ascii"),
        ):
            self._refuse(
                session_id,
                "resume_auth",
                ResumeAuthError(f"bad resume token for session {session_id}"),
            )
        if session.state == REAPED:
            self._refuse(
                session_id,
                "resume_reaped",
                SessionReapedError(
                    f"session {session_id} was reaped; open a new session"
                ),
            )
        if session.state == CLOSED:
            self._refuse(
                session_id,
                "resume_closed",
                SessionStateError(f"session {session_id} is closed"),
            )
        session.state = ACTIVE
        session.last_seen_s = self._now()
        self.observer.incr("stream.sessions_resumed")
        self.observer.event(
            STREAM_SESSION_RESUMED, session=session_id, cursor=session.cursor
        )
        return ResumeInfo(
            session_id=session_id,
            cursor=session.cursor,
            chunk_samples=self.config.chunk_samples,
            key_epoch=self.key_epoch,
        )

    # ------------------------------------------------------------------
    def rotate_epoch(self) -> int:
        """Mid-stream key rotation: advance the expected epoch.

        Every open session gets a fresh overlap budget of
        ``epoch_overlap_chunks`` chunks still sealed under the previous
        epoch — in-flight data survives the rotation; stragglers beyond
        the budget go stale.  The freshness guard rotates in lockstep
        (which also prunes its nonce registry).
        """
        self.freshness.advance_epoch()
        self.key_epoch += 1
        self.rotations += 1
        for session in self._sessions.values():
            if session.state in (ACTIVE, SUSPENDED):
                session.overlap_remaining = self.config.epoch_overlap_chunks
        self.observer.incr("stream.epoch_rotations")
        self.observer.event(
            STREAM_EPOCH_ROTATED,
            key_epoch=self.key_epoch,
            overlap_chunks=self.config.epoch_overlap_chunks,
        )
        return self.key_epoch

    # ------------------------------------------------------------------
    def close_session(self, session_id: str) -> StreamOutcome:
        """Finish the windowed detector and emit the terminal outcome.

        The returned report is bit-identical to
        ``PeakDetector.detect`` over the concatenation of every
        analysed chunk — the streaming lane's core guarantee.  Closing
        frees the session's detector and journal, as reaping does, and
        the outcome goes to the caller only: the gateway keeps just the
        tombstone (state, ids, cursor, counters) that typed refusals
        read.
        """
        session = self._lookup(session_id)
        if session.state != ACTIVE:
            error: StreamSessionError = (
                SessionReapedError(f"session {session_id} was reaped")
                if session.state == REAPED
                else SessionStateError(
                    f"session {session_id} is {session.state}; "
                    "only ACTIVE sessions close"
                )
            )
            self._refuse(session_id, f"close_{session.state}", error)
        with self.observer.span(
            "stream_close", service="stream", session=session_id
        ):
            report = session.detector.finish()
        session.detector = None
        session.journal = []
        session.state = CLOSED
        outcome = StreamOutcome(
            session_id=session_id,
            tenant_id=session.tenant_id,
            n_chunks=session.cursor,
            n_samples=session.n_samples,
            n_duplicates=session.n_duplicates,
            report=report,
            digest=report_digest(report),
        )
        self.observer.incr("stream.sessions_closed")
        self.observer.event(
            STREAM_SESSION_CLOSED,
            session=session_id,
            chunks=outcome.n_chunks,
            samples=outcome.n_samples,
            peaks=report.count,
            digest=outcome.digest,
        )
        return outcome

    # ------------------------------------------------------------------
    def journal_blobs(self, session_id: str) -> Tuple[bytes, ...]:
        """The session's acked-chunk journal, in analysis order."""
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"unknown stream session {session_id!r}")
        return tuple(session.journal)

    def replay_journal(self, session_id: str) -> PeakReport:
        """Rebuild a session's outcome from its acked-chunk journal.

        A fresh windowed detector refed with the journaled blobs (each
        re-verified through :func:`~repro.stream.envelope.open_chunk`)
        reproduces what closing the session would report, bit-for-bit —
        the journal *is* the session, which is what makes a crashed
        gateway recoverable.  It serves open sessions: a CLOSED session
        has freed its journal and refuses with
        :class:`~repro._util.errors.SessionStateError`.  Epoch checks
        are deliberately skipped: the journal holds chunks legitimately
        accepted under past epochs.
        """
        if self.session_state(session_id) == CLOSED:
            raise SessionStateError(
                f"session {session_id} is closed; its journal was freed"
            )
        blobs = self.journal_blobs(session_id)
        detector: Optional[WindowedPeakDetector] = None
        for blob in blobs:
            chunk = open_chunk(blob, self.secret, boundary="stream-replay")
            if detector is None:
                detector = WindowedPeakDetector(
                    chunk.n_channels,
                    chunk.sampling_rate_hz,
                    detector=self.detector,
                )
            detector.feed(chunk.samples)
        if detector is None:
            raise StreamSessionError(
                f"session {session_id} has an empty journal; nothing to replay"
            )
        return detector.finish()

    # ------------------------------------------------------------------
    def session_state(self, session_id: str) -> str:
        """Current protocol state of one session."""
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"unknown stream session {session_id!r}")
        return session.state

    def session_cursor(self, session_id: str) -> int:
        """Next seq the gateway will analyse for one session."""
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"unknown stream session {session_id!r}")
        return session.cursor

    @property
    def n_sessions(self) -> int:
        """Sessions in any state still tracked by the gateway."""
        return len(self._sessions)


# ---------------------------------------------------------------------------
# Device side
# ---------------------------------------------------------------------------
class RateController:
    """Adaptive chunking under congestion: shrink and recover.

    On every backpressured ack the chunk size shrinks by
    :data:`CONGESTION_BACKOFF` (down to the floor); after
    :data:`CLEAN_ACKS_TO_GROW` consecutive clean acks it doubles back
    one step.  Hitting the floor marks the stream **degraded** — the
    device keeps sending smaller chunks instead of failing the session,
    and the flag routes the outcome through the degraded-diagnosis path.
    """

    def __init__(self, config: StreamSessionConfig) -> None:
        self.config = config
        self.chunk_samples = config.chunk_samples
        self.backoffs = 0
        self.recoveries = 0
        self.floored = False
        self._clean = 0

    def on_backpressure(self) -> None:
        self._clean = 0
        self.backoffs += 1
        if self.chunk_samples <= self.config.min_chunk_samples:
            self.floored = True
            return
        self.chunk_samples = max(
            int(self.chunk_samples * CONGESTION_BACKOFF),
            self.config.min_chunk_samples,
        )
        if self.chunk_samples <= self.config.min_chunk_samples:
            self.floored = True

    def on_clean_ack(self) -> None:
        self._clean += 1
        if (
            self._clean >= CLEAN_ACKS_TO_GROW
            and self.chunk_samples < self.config.max_chunk_samples
        ):
            self.chunk_samples = min(
                self.chunk_samples * 2, self.config.max_chunk_samples
            )
            self.recoveries += 1
            self._clean = 0


class DeviceStreamer:
    """The device side: chunk, seal, send, survive the link.

    Drives one trace through a :class:`StreamGateway` (or any object
    with the same ``open/ingest/resume/close`` surface, e.g. the fleet
    front door's synchronous shim), handling injected link faults:

    * **drop** — the chunk never arrives; the device retransmits the
      *same sealed bytes* (same nonce/seq), so the gateway sees it once.
    * **disconnect (chunk-lost)** — the link dies before the chunk
      lands; the device reconnects via ``resume(resume_token)`` and
      continues from the cursor.
    * **disconnect (ack-lost)** — the gateway analysed the chunk but
      the ack died with the link; after resume the retransmit is
      answered as a duplicate, *not* re-analysed.
    * **congestion** — backpressured acks shrink the chunk size via the
      :class:`RateController`; at the floor the stream degrades instead
      of failing.

    Fault decisions come from an optional duck-typed ``injector`` with
    ``should_drop_chunk(label, seq, attempt)``,
    ``disconnect_mode(label, seq)`` and
    ``congestion_signal(label, seq)`` (the resilience layer's
    :class:`~repro.resilience.faults.FaultInjector` grows exactly these).
    """

    def __init__(
        self,
        trace: np.ndarray,
        sampling_rate_hz: float,
        tenant_id: str,
        secret: bytes,
        key_epoch: int = 0,
        config: Optional[StreamSessionConfig] = None,
        observer: Any = NULL_OBSERVER,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.trace = np.ascontiguousarray(trace, dtype=np.float64)
        if self.trace.ndim != 2 or self.trace.shape[1] < 1:
            raise ValidationError(
                f"trace must be (n_channels, n_samples), got {self.trace.shape}"
            )
        self.sampling_rate_hz = float(sampling_rate_hz)
        self.tenant_id = tenant_id
        self.secret = secret
        self.key_epoch = int(key_epoch)
        self.config = config or StreamSessionConfig()
        self.observer = observer
        self._rng = rng
        self.minter = TokenMinter(secret, key_epoch=self.key_epoch)
        self.controller = RateController(self.config)
        self.chunks_sent = 0
        self.retransmits = 0
        self.disconnects = 0
        self.duplicate_acks = 0

    def advance_epoch(self) -> int:
        """Device-side key rotation (mirrors the controller's ``K(t)``)."""
        self.key_epoch += 1
        self.minter.advance_epoch()
        return self.key_epoch

    def _nonce(self) -> Optional[bytes]:
        return bytes(self._rng.bytes(16)) if self._rng is not None else None

    def run(
        self,
        gateway: StreamGateway,
        injector: Any = None,
        label: str = "stream",
        before_chunk: Any = None,
    ) -> StreamOutcome:
        """Stream the whole trace; returns the closed session's outcome.

        ``before_chunk(streamer, seq)`` runs before each chunk is
        sealed — campaigns use it to schedule mid-stream epoch
        rotations or congestion windows at exact chunk indices.
        """
        token = self.minter.mint()
        opened = gateway.open_session(
            self.tenant_id,
            self.trace.shape[0],
            self.sampling_rate_hz,
            token,
        )
        session_id = opened.session_id
        n_total = self.trace.shape[1]
        pos = 0
        seq = 0
        while pos < n_total:
            if before_chunk is not None:
                before_chunk(self, seq)
            width = min(self.controller.chunk_samples, n_total - pos)
            blob = seal_chunk(
                self.trace[:, pos : pos + width],
                self.secret,
                session_key=opened.session_key,
                seq=seq,
                key_epoch=self.key_epoch,
                sampling_rate_hz=self.sampling_rate_hz,
                nonce=self._nonce(),
            )
            mode = (
                injector.disconnect_mode(label, seq)
                if injector is not None
                else None
            )
            if mode == "ack-lost":
                # The gateway analyses the chunk but the ack dies with
                # the link; the retransmit below must dedupe.
                gateway.ingest_chunk(blob)
                self.disconnects += 1
                self.observer.incr("stream.device_disconnects")
                gateway.resume(session_id, opened.resume_token)
            elif mode == "chunk-lost":
                self.disconnects += 1
                self.observer.incr("stream.device_disconnects")
                info = gateway.resume(session_id, opened.resume_token)
                assert info.cursor == seq  # nothing acked was lost
            ack = None
            for attempt in range(self.config.max_attempts):
                if injector is not None and injector.should_drop_chunk(
                    label, seq, attempt
                ):
                    self.retransmits += 1
                    self.observer.incr("stream.retransmits")
                    continue
                ack = gateway.ingest_chunk(blob)
                break
            if ack is None:
                raise StreamSessionError(
                    f"chunk {seq} exhausted its {self.config.max_attempts} "
                    "transmission attempts"
                )
            if ack.duplicate:
                self.duplicate_acks += 1
            congested = ack.backpressure or (
                injector is not None
                and injector.congestion_signal(label, seq)
            )
            if congested:
                self.controller.on_backpressure()
            else:
                self.controller.on_clean_ack()
            self.chunks_sent += 1
            pos += width
            seq += 1
        outcome = gateway.close_session(session_id)
        if self.controller.floored:
            reason = (
                f"congestion floor: chunk size pinned at "
                f"{self.controller.chunk_samples} samples after "
                f"{self.controller.backoffs} backoffs"
            )
            self.observer.incr("stream.degraded")
            self.observer.event(
                STREAM_DEGRADED, session=session_id, reason=reason
            )
            outcome = replace(
                outcome, degraded=True, degraded_reason=reason
            )
        return outcome


def degraded_stream_diagnosis(
    device,
    outcome: StreamOutcome,
    pumped_volume_ul: float,
    diagnostic,
    observer: Any = NULL_OBSERVER,
):
    """Route a congestion-degraded stream through the degraded path.

    Runs the standard :func:`~repro.resilience.degraded.evaluate_degraded`
    policy over the streamed report (electrode masking, widened CI),
    then overlays the link-level degradation: a stream that hit the
    congestion floor can never report OK even when the sensor self-test
    is clean — graceful degradation instead of silent confidence.
    """
    from repro.resilience.degraded import evaluate_degraded
    from repro.resilience.health import DEGRADED, OK

    diagnosis = evaluate_degraded(
        device,
        outcome.report,
        pumped_volume_ul=pumped_volume_ul,
        diagnostic=diagnostic,
        observer=observer,
    )
    if outcome.degraded and diagnosis.status == OK:
        diagnosis = replace(
            diagnosis, status=DEGRADED, reason=outcome.degraded_reason
        )
    return diagnosis
