"""Tamper-evident transit envelopes for ciphertext peak reports.

The §IV network attacker can rewrite the cloud's answer in flight; an
unsealed :class:`~repro.dsp.peakdetect.PeakReport` that was bit-flipped
would be silently decrypted by the TCB into *wrong cell counts* — the
exact "no silent wrong answers" failure the paper's trusted-sensing
argument exists to prevent.  This module seals the report for transit
with :func:`repro.crypto.keyshare.seal` under the ``medsen-envelope``
label stem:

``envelope = MSE1 || nonce(16) || key_epoch(u32) || ciphertext || HMAC``

The phone verifies the HMAC *before* handing anything to the
controller, so a forged or corrupted envelope is rejected with
:class:`~repro._util.errors.EnvelopeError` — never decrypted.  The
sealed payload is the JSON report encoding from :mod:`repro.cloud.api`,
so the envelope composes with the existing message protocol.

A second, versioned header carries a distributed-trace context
(:mod:`repro.obs.context`) inside the authenticated region:

``envelope = MSE2 || nonce(16) || key_epoch(u32) || trace_context(29)
             || ciphertext || HMAC``

The opener dispatches on the magic; both layouts remain admissible and
every malformed variant of either is a typed refusal.  Because the
context sits in the HMAC-covered header, in-flight re-routing of a
trace is detected exactly like payload tampering.

Note the trust statement is deliberately modest: the transport secret
is shared with the *cloud* (which produced the report), so the envelope
authenticates the phone↔cloud link against third parties — it does not,
and cannot, make the curious cloud honest.  The report contents are
ciphertext-domain anyway; what the envelope adds is that nobody *else*
can substitute results in flight.
"""

import json
import struct
from functools import partial
from typing import Any, NoReturn, Optional, Tuple

from repro._util.errors import EnvelopeError, ValidationError
from repro.cloud.api import report_from_dict, report_to_dict
from repro.crypto.keyshare import TAG_BYTES, new_nonce, seal, unseal
from repro.dsp.peakdetect import PeakReport
from repro.guard.freshness import FreshnessGuard, TokenMinter
from repro.obs import CONTEXT_BYTES, ENVELOPE_REJECTED, NULL_OBSERVER, TraceContext

_MAGIC = b"MSE1"
_MAGIC_V2 = b"MSE2"
_FIXED = struct.Struct("<4s16sI")
_FIXED_V2 = struct.Struct(f"<4s16sI{CONTEXT_BYTES}s")
_LABEL = b"medsen-envelope"

#: Cap on an admissible sealed report (a million-peak report is ~100 MB
#: of JSON; honest reports are kilobytes).
MAX_ENVELOPE_BYTES = 1 << 27


def refuse_envelope(observer: Any, boundary: str, reason: str) -> NoReturn:
    """The MSE/MSS refusal funnel: count, audit, raise :class:`EnvelopeError`."""
    observer.incr("guard.rejected")
    observer.incr("guard.envelope_rejected")
    observer.event(ENVELOPE_REJECTED, boundary=boundary, reason=reason)
    raise EnvelopeError(f"[{boundary}] {reason}")


def seal_report(
    report: PeakReport,
    secret: bytes,
    key_epoch: int = 0,
    nonce: Optional[bytes] = None,
    trace_context: Optional[TraceContext] = None,
) -> bytes:
    """Seal a peak report for transit: authenticated stream cipher.

    Without ``trace_context`` this emits the legacy ``MSE1`` header;
    with one, the ``MSE2`` header whose authenticated region carries
    the 29-byte trace context.
    """
    if not secret:
        raise ValidationError("envelope secret must be non-empty")
    if key_epoch < 0 or key_epoch > 0xFFFFFFFF:
        raise ValidationError(f"key epoch {key_epoch} out of u32 range")
    nonce = new_nonce(nonce)
    plaintext = json.dumps(report_to_dict(report)).encode("utf-8")
    if trace_context is None:
        header = _FIXED.pack(_MAGIC, nonce, key_epoch)
    else:
        header = _FIXED_V2.pack(
            _MAGIC_V2, nonce, key_epoch, trace_context.to_bytes()
        )
    return seal(secret, _LABEL, nonce, header, plaintext)


def open_report_with_context(
    blob: Any,
    secret: bytes,
    observer: Any = NULL_OBSERVER,
    boundary: str = "phone",
) -> Tuple[PeakReport, Optional[TraceContext]]:
    """Verify and open a sealed report, returning its trace context.

    HMAC verification runs before any decryption or parsing; every
    failure — truncation, bad magic, a single flipped bit anywhere —
    raises :class:`EnvelopeError` through :func:`refuse_envelope`.
    Only an authentic envelope is decrypted.  The second element is the
    ``MSE2`` trace context, or ``None`` for ``MSE1``.
    """
    if not secret:
        raise ValidationError("envelope secret must be non-empty")
    refuse = partial(refuse_envelope, observer, boundary)
    try:
        blob = bytes(blob)
    except (TypeError, ValueError):
        refuse("envelope is not bytes-like")
    if len(blob) < _FIXED.size + TAG_BYTES:
        refuse("envelope too short")
    if len(blob) > MAX_ENVELOPE_BYTES:
        refuse("envelope exceeds size cap")
    if blob[:4] == _MAGIC_V2:
        layout = _FIXED_V2
        if len(blob) < layout.size + TAG_BYTES:
            refuse("v2 envelope too short for its header")
    else:
        layout = _FIXED
    fields = layout.unpack(blob[: layout.size])
    magic, nonce = fields[0], fields[1]
    if magic not in (_MAGIC, _MAGIC_V2):
        refuse(f"bad envelope magic {magic!r}")
    plaintext = unseal(secret, _LABEL, nonce, blob, layout.size)
    if plaintext is None:
        refuse("envelope failed authentication")
    # Authenticated from here on: a bad context or undecodable payload
    # means a broken peer, not the network — same typed funnel.
    context: Optional[TraceContext] = None
    if layout is _FIXED_V2:
        try:
            context = TraceContext.from_bytes(fields[3])
        except ValidationError as error:
            refuse(f"authentic envelope carries a bad trace context: {error}")
    try:
        payload = json.loads(plaintext.decode("utf-8"))
        return report_from_dict(payload), context
    except (ValidationError, ValueError, UnicodeDecodeError) as error:
        refuse(f"authentic envelope decodes to garbage: {error}")
    except RecursionError:
        refuse("authentic envelope decodes to garbage: nested too deeply")


def open_report(
    blob: Any,
    secret: bytes,
    observer: Any = NULL_OBSERVER,
    boundary: str = "phone",
) -> PeakReport:
    """Verify and open a sealed report (either header version).

    See :func:`open_report_with_context` for the refusal contract; this
    form discards the trace context for callers that only want data.
    """
    report, _context = open_report_with_context(
        blob, secret, observer=observer, boundary=boundary
    )
    return report


class SecureChannel:
    """One phone↔cloud pairing: freshness tokens out, sealed reports in.

    The phone holds the channel; the cloud holds the matching
    :class:`~repro.guard.freshness.FreshnessGuard` and the same secret.
    ``new_token()`` mints the freshness token to attach to an upload;
    ``receive(blob)`` verifies and opens the sealed report that comes
    back.  Key epochs advance in lockstep with controller key rotation
    via :meth:`advance_epoch`.
    """

    def __init__(
        self,
        secret: bytes,
        key_epoch: int = 0,
        observer: Any = NULL_OBSERVER,
        clock: Any = None,
    ) -> None:
        if not secret:
            raise ValidationError("channel secret must be non-empty")
        self.secret = secret
        self.observer = observer
        self.minter = TokenMinter(secret, key_epoch=key_epoch, clock=clock)
        self.opened = 0
        self.refused = 0
        self.last_context: Optional[TraceContext] = None

    @property
    def key_epoch(self) -> int:
        """The epoch new tokens and seals are minted under."""
        return self.minter.key_epoch

    def advance_epoch(self) -> int:
        """Rotate the channel's key epoch (with controller rotation)."""
        return self.minter.advance_epoch()

    def new_token(self, trace_context: Optional[TraceContext] = None) -> bytes:
        """A fresh token for one upload attempt.

        When the caller is inside a live span, passing its context (or
        ``observer.current_context()``) mints an MSF2 token so the
        cloud's spans stitch to the phone's trace.
        """
        return self.minter.mint(trace_context=trace_context)

    def seal(
        self, report: PeakReport, trace_context: Optional[TraceContext] = None
    ) -> bytes:
        """Cloud side: seal an outbound report under this channel."""
        return seal_report(
            report, self.secret, key_epoch=self.key_epoch, trace_context=trace_context
        )

    def receive(self, blob: Any, boundary: str = "phone") -> PeakReport:
        """Phone side: verify-then-open one sealed report.

        The sender's trace context (if the envelope carried one) is
        kept on :attr:`last_context` for the caller to link against.
        """
        try:
            report, context = open_report_with_context(
                blob, self.secret, observer=self.observer, boundary=boundary
            )
        except EnvelopeError:
            self.refused += 1
            raise
        self.opened += 1
        self.last_context = context
        return report

    def guard(self, **kwargs: Any) -> FreshnessGuard:
        """A cloud-side freshness guard paired with this channel."""
        return FreshnessGuard(self.secret, key_epoch=self.key_epoch, **kwargs)
