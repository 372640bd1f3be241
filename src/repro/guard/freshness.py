"""Replay and freshness protection for phone↔cloud exchanges.

PR 3's request dedup is *honest-sender* infrastructure: it trusts the
``request_id`` a client attaches.  A network attacker replaying a
captured exchange simply rewrites that id and sails through.  This
module closes the gap the way PoK-style medical-link protocols do —
with an *authenticated* freshness token the attacker cannot mint:

``token = MSF1 || nonce(16) || key_epoch(u32) || minted_at(f64) || HMAC``

The tag is :func:`repro.crypto.keyshare.mac` under a secret shared
between phone and cloud (``medsen-freshness-mac`` label), so a forged
or bit-flipped token fails authentication; the nonce makes every honest
token unique, so a *replayed* token — identical bytes, any claimed
``request_id`` — hits the server's seen-nonce registry and raises
:class:`~repro._util.errors.ReplayError`; the key-epoch field lets the
server refuse exchanges minted under retired epochs
(:class:`~repro._util.errors.StaleEpochError`) without any clock
agreement between the parties.

A second, versioned format carries a distributed-trace context inside
the authenticated body (see :mod:`repro.obs.context`):

``token = MSF2 || nonce(16) || key_epoch(u32) || minted_at(f64)
          || trace_context(29) || HMAC``

Both formats stay admissible — the parser dispatches on the exact
serialized length, so a truncated/extended blob of either shape is
still a typed refusal.  The context rides *inside* the HMAC'd body, so
an attacker cannot re-route a trace without failing authentication.
"""

import hmac
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from repro._util.errors import (
    MalformedPayloadError,
    ReplayError,
    StaleEpochError,
    ValidationError,
)
from repro.crypto.keyshare import TAG_BYTES, mac, new_nonce
from repro.obs import (
    CONTEXT_BYTES,
    GUARD_REJECTED,
    NULL_OBSERVER,
    REPLAY_DETECTED,
    STALE_EPOCH_REJECTED,
    TraceContext,
)

_MAGIC = b"MSF1"
_MAGIC_V2 = b"MSF2"
_FIXED = struct.Struct("<4s16sId")
_FIXED_V2 = struct.Struct(f"<4s16sId{CONTEXT_BYTES}s")
_MAC_LABEL = b"medsen-freshness-mac"

#: Serialized v1 token size: fixed fields + HMAC-SHA256 tag.
TOKEN_BYTES = _FIXED.size + TAG_BYTES

#: Serialized v2 (context-carrying) token size.
TOKEN_V2_BYTES = _FIXED_V2.size + TAG_BYTES


@dataclass(frozen=True)
class FreshnessToken:
    """A parsed, authenticated freshness token."""

    nonce: bytes
    key_epoch: int
    minted_at_s: float
    context: Optional[TraceContext] = None


def mint_token(
    secret: bytes,
    key_epoch: int,
    nonce: Optional[bytes] = None,
    minted_at_s: float = 0.0,
    trace_context: Optional[TraceContext] = None,
) -> bytes:
    """Mint one authenticated freshness token.

    Without ``trace_context`` this emits the legacy ``MSF1`` layout;
    with one, the ``MSF2`` layout whose authenticated body carries the
    29-byte trace context.
    """
    if not secret:
        raise ValidationError("freshness secret must be non-empty")
    if key_epoch < 0 or key_epoch > 0xFFFFFFFF:
        raise ValidationError(f"key epoch {key_epoch} out of u32 range")
    nonce = new_nonce(nonce)
    if trace_context is None:
        body = _FIXED.pack(_MAGIC, nonce, key_epoch, float(minted_at_s))
    else:
        body = _FIXED_V2.pack(
            _MAGIC_V2,
            nonce,
            key_epoch,
            float(minted_at_s),
            trace_context.to_bytes(),
        )
    return body + mac(secret, _MAC_LABEL, body)


def parse_token(blob: Any, secret: bytes) -> FreshnessToken:
    """Authenticate and decode a token.

    Raises :class:`MalformedPayloadError` on anything that is not an
    intact token minted under ``secret`` — truncation, bad magic,
    bit-flips anywhere (body or tag), wrong type.
    """
    if not secret:
        raise ValidationError("freshness secret must be non-empty")
    try:
        blob = bytes(blob)
    except (TypeError, ValueError) as error:
        raise MalformedPayloadError(
            f"freshness token is not bytes-like: {error}"
        ) from error
    if len(blob) == TOKEN_BYTES:
        layout, expected_magic = _FIXED, _MAGIC
    elif len(blob) == TOKEN_V2_BYTES:
        layout, expected_magic = _FIXED_V2, _MAGIC_V2
    else:
        raise MalformedPayloadError(
            f"freshness token has {len(blob)} bytes; expected "
            f"{TOKEN_BYTES} (MSF1) or {TOKEN_V2_BYTES} (MSF2)"
        )
    body, tag = blob[: layout.size], blob[layout.size :]
    fields = layout.unpack(body)
    if fields[0] != expected_magic:
        raise MalformedPayloadError(f"bad freshness magic {fields[0]!r}")
    if not hmac.compare_digest(tag, mac(secret, _MAC_LABEL, body)):
        raise MalformedPayloadError("freshness token failed authentication")
    context: Optional[TraceContext] = None
    if layout is _FIXED_V2:
        try:
            context = TraceContext.from_bytes(fields[4])
        except ValidationError as error:
            # Authenticated but garbled context: the peer is broken —
            # refuse through the same typed funnel as forgery.
            raise MalformedPayloadError(
                f"authentic token carries a bad trace context: {error}"
            ) from error
    return FreshnessToken(
        nonce=fields[1],
        key_epoch=fields[2],
        minted_at_s=fields[3],
        context=context,
    )


class TokenMinter:
    """The phone side: mints one fresh token per transmission attempt.

    Every *attempt* gets a new nonce — retries after a timeout are new
    exchanges, but a radio-duplicated delivery of one attempt carries
    the *same* token bytes, which is exactly what lets the server tell
    a duplicate (or an attacker's replay) from a legitimate retry.
    """

    def __init__(self, secret: bytes, key_epoch: int = 0, clock: Any = None) -> None:
        if not secret:
            raise ValidationError("freshness secret must be non-empty")
        self._secret = secret
        self.key_epoch = int(key_epoch)
        self._clock = clock
        self.minted = 0

    def mint(self, trace_context: Optional[TraceContext] = None) -> bytes:
        """A new token for one transmission attempt.

        Passing ``trace_context`` mints the MSF2 layout so the caller's
        trace identity rides inside the authenticated body.
        """
        self.minted += 1
        now = float(self._clock()) if self._clock is not None else 0.0
        return mint_token(
            self._secret, self.key_epoch, minted_at_s=now, trace_context=trace_context
        )

    def advance_epoch(self) -> int:
        """Move to the next key epoch (mirrors controller key rotation)."""
        self.key_epoch += 1
        return self.key_epoch


class FreshnessGuard:
    """The cloud side: refuses replayed and stale-epoch exchanges.

    Parameters
    ----------
    secret:
        Shared with the phone's :class:`TokenMinter`.
    key_epoch:
        The epoch the server currently expects.
    epoch_window:
        How many *past* epochs remain admissible after a rotation (so
        in-flight exchanges survive a resync).  Future epochs are never
        admissible.
    max_age_s:
        When set (and a ``clock`` is given), tokens minted more than
        this many seconds ago are stale even within the epoch window.
    capacity:
        Bound on the seen-nonce registry; oldest nonces are evicted
        first.  Sized so eviction only recycles nonces far older than
        any plausible replay window.
    """

    def __init__(
        self,
        secret: bytes,
        key_epoch: int = 0,
        epoch_window: int = 1,
        max_age_s: Optional[float] = None,
        capacity: int = 65536,
        clock: Any = None,
    ) -> None:
        if not secret:
            raise ValidationError("freshness secret must be non-empty")
        if epoch_window < 0:
            raise ValidationError("epoch window must be >= 0")
        if capacity < 1:
            raise ValidationError("nonce capacity must be >= 1")
        self._secret = secret
        self.key_epoch = int(key_epoch)
        self.epoch_window = int(epoch_window)
        self.max_age_s = max_age_s
        self.capacity = int(capacity)
        self._clock = clock
        self._seen: "OrderedDict[bytes, int]" = OrderedDict()
        # Fleet worker threads share one guard: the seen-nonce check and
        # insert, and the rollover prune, must not interleave.
        self._lock = threading.Lock()
        self.admitted = 0
        self.replays_refused = 0
        self.stale_refused = 0
        self.pruned = 0

    # ------------------------------------------------------------------
    def advance_epoch(self) -> int:
        """Rotate to the next expected key epoch.

        Rolling over also prunes the seen-nonce registry: a nonce whose
        recorded epoch just fell outside the admissible window can
        never be replayed successfully (the epoch check refuses it
        first), so retaining it only burns registry capacity that live
        epochs need for genuine replay protection.
        """
        with self._lock:
            self.key_epoch += 1
            floor = self.key_epoch - self.epoch_window
            stale = [
                nonce for nonce, epoch in self._seen.items() if epoch < floor
            ]
            for nonce in stale:
                del self._seen[nonce]
            self.pruned += len(stale)
            return self.key_epoch

    def minter(self, clock: Any = None) -> TokenMinter:
        """A phone-side minter paired with this guard's secret/epoch."""
        return TokenMinter(self._secret, key_epoch=self.key_epoch, clock=clock)

    # ------------------------------------------------------------------
    def admit(
        self,
        token_blob: Any,
        observer: Any = NULL_OBSERVER,
        boundary: str = "ingest",
    ) -> FreshnessToken:
        """Authenticate, freshness-check, and consume one token.

        Raises :class:`MalformedPayloadError` (forged/garbled),
        :class:`StaleEpochError` (outside the epoch window or too old),
        or :class:`ReplayError` (nonce already consumed).  Every
        refusal bumps ``guard.rejected`` plus its specific counter and
        emits the matching audit event.
        """
        try:
            token = parse_token(token_blob, self._secret)
        except MalformedPayloadError:
            observer.incr("guard.rejected")
            observer.event(GUARD_REJECTED, boundary=boundary, reason="bad_token")
            raise
        with self._lock:
            if (
                token.key_epoch > self.key_epoch
                or token.key_epoch < self.key_epoch - self.epoch_window
            ):
                self.stale_refused += 1
                observer.incr("guard.rejected")
                observer.incr("guard.stale_epoch")
                observer.event(
                    STALE_EPOCH_REJECTED,
                    boundary=boundary,
                    token_epoch=token.key_epoch,
                    expected_epoch=self.key_epoch,
                )
                raise StaleEpochError(
                    f"token epoch {token.key_epoch} outside window "
                    f"[{self.key_epoch - self.epoch_window}, {self.key_epoch}]"
                )
            if self.max_age_s is not None and self._clock is not None:
                age = float(self._clock()) - token.minted_at_s
                if age > self.max_age_s:
                    self.stale_refused += 1
                    observer.incr("guard.rejected")
                    observer.incr("guard.stale_epoch")
                    observer.event(
                        STALE_EPOCH_REJECTED, boundary=boundary, age_s=age
                    )
                    raise StaleEpochError(
                        f"token is {age:.3f}s old; max age is {self.max_age_s}s"
                    )
            if token.nonce in self._seen:
                self.replays_refused += 1
                observer.incr("guard.rejected")
                observer.incr("guard.replay_detected")
                observer.event(
                    REPLAY_DETECTED, boundary=boundary, token_epoch=token.key_epoch
                )
                raise ReplayError("freshness nonce already consumed: replay refused")
            self._seen[token.nonce] = token.key_epoch
            while len(self._seen) > self.capacity:
                self._seen.popitem(last=False)
            self.admitted += 1
            return token

    @property
    def n_seen(self) -> int:
        """Nonces currently retained in the registry."""
        return len(self._seen)
