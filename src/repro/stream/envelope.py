"""MSS1: the sealed per-chunk envelope of the streaming lane.

A streaming device cannot wait for a full trace before sealing — every
chunk crosses the untrusted link on its own, so every chunk carries its
own authenticated envelope, sealed with
:func:`repro.crypto.keyshare.seal` under the ``medsen-stream`` label
stem like the MSE1 report envelope (:mod:`repro.guard.envelope`), with
a header that binds everything the gateway needs to *order* and
*epoch-check* the chunk before trusting it:

``chunk = MSS1 || nonce(16) || key_epoch(u32) || session_key(16)
          || seq(u32) || n_channels(u16) || n_samples(u32) || fs(f64)
          || ciphertext || HMAC``

The payload is the chunk's float64 little-endian samples XORed with
SHAKE-256(key || nonce); the HMAC-SHA256 tag covers header + ciphertext
and is verified **before** any decryption.  Because ``session_key`` and
``seq`` sit inside the authenticated header, an attacker can neither
splice a chunk into another session nor reorder chunks within one — both
fail authentication or the gateway's cursor check with a typed refusal.

Mid-stream key-epoch rotation is first-class: ``key_epoch`` is the
paper's epoch index for ``K(t)``; the gateway accepts a bounded overlap
window around a rotation (see :class:`repro.stream.session.StreamGateway`)
so in-flight chunks sealed just before the rotation still land.
"""

import struct
from functools import partial
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro._util.errors import ValidationError
from repro.crypto.keyshare import TAG_BYTES, new_nonce, seal, unseal
from repro.guard.envelope import refuse_envelope
from repro.obs import NULL_OBSERVER

_MAGIC = b"MSS1"
_SESSION_KEY_BYTES = 16
_FIXED = struct.Struct("<4s16sI16sIHId")
_LABEL = b"medsen-stream"

#: Admission caps: an honest chunk is a few thousand samples over a
#: handful of channels; anything past these is refused before the
#: payload is even sized.
MAX_CHUNK_CHANNELS = 64
MAX_CHUNK_SAMPLES = 1 << 20
MAX_CHUNK_BYTES = 1 << 26

#: Serialized size of the fixed header.
HEADER_BYTES = _FIXED.size


@dataclass(frozen=True)
class StreamChunk:
    """One verified, decrypted chunk as the gateway sees it."""

    session_key: bytes
    seq: int
    key_epoch: int
    sampling_rate_hz: float
    samples: np.ndarray  # (n_channels, n_samples) float64
    nonce: bytes

    @property
    def n_channels(self) -> int:
        return int(self.samples.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[1])


def seal_chunk(
    samples: np.ndarray,
    secret: bytes,
    session_key: bytes,
    seq: int,
    key_epoch: int = 0,
    sampling_rate_hz: float = 1.0,
    nonce: Optional[bytes] = None,
) -> bytes:
    """Seal one ``(n_channels, n_samples)`` chunk for transit."""
    if not secret:
        raise ValidationError("stream secret must be non-empty")
    session_key = bytes(session_key)
    if len(session_key) != _SESSION_KEY_BYTES:
        raise ValidationError(
            f"session key must be {_SESSION_KEY_BYTES} bytes, got {len(session_key)}"
        )
    if seq < 0 or seq > 0xFFFFFFFF:
        raise ValidationError(f"chunk seq {seq} out of u32 range")
    if key_epoch < 0 or key_epoch > 0xFFFFFFFF:
        raise ValidationError(f"key epoch {key_epoch} out of u32 range")
    if not np.isfinite(sampling_rate_hz) or sampling_rate_hz <= 0:
        raise ValidationError(f"sampling rate must be finite > 0, got {sampling_rate_hz}")
    nonce = new_nonce(nonce)
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValidationError(f"chunk must be 2-D, got shape {samples.shape}")
    n_channels, n_samples = samples.shape
    if not 1 <= n_channels <= MAX_CHUNK_CHANNELS:
        raise ValidationError(f"chunk has {n_channels} channels (cap {MAX_CHUNK_CHANNELS})")
    if not 1 <= n_samples <= MAX_CHUNK_SAMPLES:
        raise ValidationError(f"chunk has {n_samples} samples (cap {MAX_CHUNK_SAMPLES})")
    if not np.all(np.isfinite(samples)):
        raise ValidationError("chunk samples must be finite")
    header = _FIXED.pack(
        _MAGIC,
        nonce,
        int(key_epoch),
        session_key,
        int(seq),
        int(n_channels),
        int(n_samples),
        float(sampling_rate_hz),
    )
    plaintext = samples.astype("<f8", copy=False).tobytes()
    return seal(secret, _LABEL, nonce, header, plaintext)


def open_chunk(
    blob: Any,
    secret: bytes,
    observer: Any = NULL_OBSERVER,
    boundary: str = "stream",
) -> StreamChunk:
    """Verify-then-decrypt one sealed chunk.

    HMAC verification runs before any decryption; every failure —
    truncation, bad magic, oversized claims, a flipped bit anywhere,
    or an authentic chunk whose shape disagrees with its payload —
    raises :class:`~repro._util.errors.EnvelopeError`, bumps
    ``guard.rejected`` / ``guard.envelope_rejected``, and emits the
    ``guard.envelope_rejected`` audit event (the same funnel as MSE1).
    """
    if not secret:
        raise ValidationError("stream secret must be non-empty")
    refuse = partial(refuse_envelope, observer, boundary)
    try:
        blob = bytes(blob)
    except (TypeError, ValueError):
        refuse("chunk envelope is not bytes-like")
    if len(blob) < HEADER_BYTES + TAG_BYTES:
        refuse("chunk envelope too short")
    if len(blob) > MAX_CHUNK_BYTES:
        refuse("chunk envelope exceeds size cap")
    magic, nonce, key_epoch, session_key, seq, n_channels, n_samples, fs = (
        _FIXED.unpack(blob[:HEADER_BYTES])
    )
    if magic != _MAGIC:
        refuse(f"bad chunk magic {magic!r}")
    plaintext = unseal(secret, _LABEL, nonce, blob, HEADER_BYTES)
    if plaintext is None:
        refuse("chunk envelope failed authentication")
    # Authenticated from here on: disagreements mean a broken peer, not
    # a network attacker — still refuse through the same typed funnel.
    if not 1 <= n_channels <= MAX_CHUNK_CHANNELS:
        refuse(f"authentic chunk claims {n_channels} channels")
    if not 1 <= n_samples <= MAX_CHUNK_SAMPLES:
        refuse(f"authentic chunk claims {n_samples} samples")
    if not np.isfinite(fs) or fs <= 0:
        refuse(f"authentic chunk claims sampling rate {fs}")
    if len(plaintext) != n_channels * n_samples * 8:
        refuse(
            f"authentic chunk payload is {len(plaintext)} bytes; header "
            f"claims {n_channels}x{n_samples} float64"
        )
    samples = np.frombuffer(plaintext, dtype="<f8").reshape(n_channels, n_samples)
    if not np.all(np.isfinite(samples)):
        refuse("authentic chunk decodes to non-finite samples")
    return StreamChunk(
        session_key=session_key,
        seq=int(seq),
        key_epoch=int(key_epoch),
        sampling_rate_hz=float(fs),
        samples=samples,
        nonce=nonce,
    )
