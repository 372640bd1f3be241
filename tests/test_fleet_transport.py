"""The framed transport is total: garbage is refused typed, never crashes."""

import multiprocessing as mp

import pytest

from repro._util.errors import OversizedPayloadError, ValidationError
from repro.fleet.transport import (
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
    FrameChannel,
    decode_frame,
    encode_frame,
)


class TestFraming:
    def test_roundtrip(self):
        msg_id, payload = decode_frame(encode_frame(7, {"a": [1, 2, 3]}))
        assert msg_id == 7
        assert payload == {"a": [1, 2, 3]}

    def test_deterministic_bytes(self):
        assert encode_frame(3, ("x", 1.5)) == encode_frame(3, ("x", 1.5))

    def test_magic_prefix(self):
        assert encode_frame(0, None).startswith(FRAME_MAGIC)

    def test_negative_msg_id_refused(self):
        with pytest.raises(ValidationError):
            encode_frame(-1, None)


class TestGarbageRefusal:
    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"\x00\x01\x02",
            b"XXXX" + b"\x00" * 16,  # wrong magic
            FRAME_MAGIC + b"\xff" * 20,  # CRC mismatch
            encode_frame(1, "ok")[:-1],  # truncated body
        ],
    )
    def test_malformed_frames_refused_typed(self, blob):
        with pytest.raises(ValidationError):
            decode_frame(blob)

    def test_non_bytes_refused(self):
        with pytest.raises(ValidationError):
            decode_frame("not bytes")

    def test_oversized_frame_refused(self):
        with pytest.raises(OversizedPayloadError):
            decode_frame(b"\x00" * (MAX_FRAME_BYTES + 1))

    def test_flipped_payload_byte_fails_crc(self):
        frame = bytearray(encode_frame(9, {"k": "v"}))
        frame[-1] ^= 0xFF
        with pytest.raises(ValidationError):
            decode_frame(bytes(frame))


class TestFrameChannel:
    def test_channel_roundtrip_and_counters(self):
        parent, child = mp.Pipe()
        try:
            a, b = FrameChannel(parent), FrameChannel(child)
            a.send(11, "hello")
            assert child.poll(1.0)
            assert b.recv() == (11, "hello")
            assert a.frames_sent == 1
            assert b.frames_received == 1
            assert b.garbage_frames == 0
        finally:
            parent.close()
            child.close()

    def test_channel_counts_garbage(self):
        parent, child = mp.Pipe()
        try:
            receiver = FrameChannel(child)
            parent.send_bytes(b"garbage, not a frame")
            with pytest.raises(ValidationError):
                receiver.recv()
            assert receiver.garbage_frames == 1
        finally:
            parent.close()
            child.close()
