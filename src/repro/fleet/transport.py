"""Framed, checksummed message transport between fleet processes.

The front door and its shard processes talk over ordinary
:func:`multiprocessing.Pipe` connections, but never exchange raw
pickles: every message travels as an ``MSFT`` frame —

``MSFT | u32 crc | u64 msg_id | pickle(payload)``

— so a torn, truncated, or corrupted frame (or an attacker writing
garbage into the socket, which the hardening campaign does on purpose)
is refused with a typed :class:`~repro._util.errors.ValidationError`
*before* any byte reaches the unpickler.  The CRC covers the message id
and payload; the magic pins the protocol so a stray writer cannot be
mistaken for a peer.

Framing is deterministic: the same ``(msg_id, payload)`` always encodes
to the identical bytes (pickle protocol pinned), which keeps transport
traffic replayable alongside the rest of the seeded fleet.
"""

import pickle
import struct
import zlib
from typing import Any, Tuple

from repro._util.errors import OversizedPayloadError, ValidationError

#: Frame magic for fleet transport messages.
FRAME_MAGIC = b"MSFT"

_HEADER = struct.Struct("<4sIQ")

#: Pickle protocol pinned so frames are byte-stable across runs.
PICKLE_PROTOCOL = 4

#: Per-frame size cap: honest frames are a few hundred KB at most (one
#: blood sample's particle draw); the cap stops an adversarial peer
#: from turning the receiver into an allocation bomb.
MAX_FRAME_BYTES = 32 << 20


def encode_frame(msg_id: int, payload: Any) -> bytes:
    """Serialize one message into a checksummed frame."""
    if msg_id < 0:
        raise ValidationError(f"msg_id must be >= 0, got {msg_id}")
    body = pickle.dumps(payload, protocol=PICKLE_PROTOCOL)
    crc = zlib.crc32(msg_id.to_bytes(8, "little") + body) & 0xFFFFFFFF
    frame = _HEADER.pack(FRAME_MAGIC, crc, msg_id) + body
    if len(frame) > MAX_FRAME_BYTES:
        raise OversizedPayloadError(
            f"frame of {len(frame)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    return frame


def decode_frame(blob: Any) -> Tuple[int, Any]:
    """Parse one frame back into ``(msg_id, payload)``.

    Total: anything that is not a well-formed frame — wrong type, short
    header, bad magic, CRC mismatch, over-cap size, or an unpicklable
    body — raises a typed :class:`ValidationError` (or
    :class:`OversizedPayloadError`), never an untyped exception, so a
    shard fed garbage refuses and keeps serving.
    """
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise ValidationError(f"frame must be bytes, got {type(blob).__name__}")
    blob = bytes(blob)
    if len(blob) > MAX_FRAME_BYTES:
        raise OversizedPayloadError(
            f"frame of {len(blob)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    if len(blob) < _HEADER.size:
        raise ValidationError(f"frame of {len(blob)} bytes is shorter than the header")
    magic, crc, msg_id = _HEADER.unpack_from(blob)
    if magic != FRAME_MAGIC:
        raise ValidationError(f"bad frame magic {magic!r}")
    body = blob[_HEADER.size :]
    expected = zlib.crc32(msg_id.to_bytes(8, "little") + body) & 0xFFFFFFFF
    if crc != expected:
        raise ValidationError("frame CRC mismatch (torn or tampered frame)")
    try:
        payload = pickle.loads(body)
    except Exception as exc:  # pickle raises a small zoo of error types
        raise ValidationError(f"frame body does not unpickle: {exc}") from exc
    return int(msg_id), payload


class FrameChannel:
    """One side of a framed duplex channel over a pipe connection.

    Thin, synchronous, and single-owner per direction: the shard's main
    loop is the only sender on its side, and the parent serialises
    sends under the shard handle's lock.  Counters record traffic and
    refused garbage for the fleet report.
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.frames_sent = 0
        self.frames_received = 0
        self.garbage_frames = 0

    def send(self, msg_id: int, payload: Any) -> None:
        """Frame and send one message."""
        self.conn.send_bytes(encode_frame(msg_id, payload))
        self.frames_sent += 1

    def recv(self) -> Tuple[int, Any]:
        """Receive one frame (blocking).

        Raises :class:`ValidationError` for a garbage frame (counted),
        and lets ``EOFError``/``OSError`` propagate when the peer is
        gone — the caller owns the liveness decision.
        """
        blob = self.conn.recv_bytes()
        try:
            return decode_frame(blob)
        except (ValidationError, OversizedPayloadError):
            self.garbage_frames += 1
            raise
        finally:
            self.frames_received += 1

    def close(self) -> None:
        self.conn.close()
