"""Known-answer vectors for every sealed wire format.

Plans (§VII-B key sharing), MSE1/MSE2 report envelopes, MSF1/MSF2
freshness tokens, MSS1 stream chunks and the stream gateway's derived
session key and resume token all share one construction: XOR with
SHAKE-256(key || nonce), then HMAC-SHA256 over header + ciphertext,
under keys from ``derive_key`` (labels ending ``-shake256-enc`` and
``-shake256-mac``).  The freshness tokens and the stream session key
and resume token use the HMAC step alone.  These digests pin the exact
bytes each format puts on the wire for a fixed secret and nonce, so a
refactor of the shared construction cannot drift any of them.
"""

import hashlib

import numpy as np
import pytest

import repro.guard.envelope as guard_envelope
import repro.guard.freshness as freshness
import repro.stream.envelope as stream_envelope
import repro.stream.session as stream_session
from repro._util.errors import EnvelopeError, IntegrityError
from repro.crypto import keyshare
from repro.crypto.encryptor import EncryptionPlan
from repro.crypto.gains import GainTable
from repro.crypto.keygen import EntropySource, KeyGenerator
from repro.crypto.keyshare import ENC_SUFFIX, MAC_SUFFIX, keystream, open_plan, seal_plan
from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.guard.envelope import open_report_with_context, seal_report
from repro.guard.freshness import TokenMinter, mint_token, parse_token
from repro.hardware.electrodes import standard_array
from repro.microfluidics.flow import FlowSpeedTable
from repro.obs import TraceContext
from repro.stream import StreamGateway, open_chunk, seal_chunk

SECRET = b"known-answer-secret"
NONCE = bytes(range(16))
CONTEXT = TraceContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=True)


def sha(blob) -> str:
    return hashlib.sha256(blob if isinstance(blob, bytes) else blob.encode()).hexdigest()


def make_plan() -> EncryptionPlan:
    generator = KeyGenerator(n_electrodes=9)
    schedule = generator.generate_schedule(6.0, 1.0, EntropySource(rng=11))
    return EncryptionPlan(schedule, standard_array(9), GainTable(), FlowSpeedTable())


def make_report() -> PeakReport:
    peaks = tuple(
        DetectedPeak(
            time_s=0.25 * (i + 1),
            depth=0.001 * (i + 2),
            width_s=0.0005 * (i + 1),
            amplitudes=np.array([0.001 * (i + 2), 0.0005 * (i + 3)]),
            sample_index=112 * (i + 1),
        )
        for i in range(5)
    )
    return PeakReport(peaks, 2.0, 450.0, 0)


def make_samples() -> np.ndarray:
    return (np.arange(2 * 300, dtype=np.float64).reshape(2, 300) - 150.0) / 1024.0


# SHA-256 of keystream(b"k" * 32, bytes(range(16)), length): 16-hex prefixes.
KEYSTREAM_PREFIXES = {
    0: "e3b0c44298fc1c14",
    1: "b12dc850a3b0a3b7",
    31: "3db7cbd62ec13bdb",
    32: "6ae1cf669ec3411c",
    33: "f0648b4682a86ec7",
    81920: "a98b6e566368aec7",
}

SEALED_DIGESTS = {
    "plan": "4f8e3aa165a5f924a05d2fa142b88fb5341c294f28ab4cf99069b9f24484dafa",
    "mse1": "a6009eef5f27434b7c41f670341931c4661e65533d72bc29f21fef29f826acb7",
    "mse2": "898b3c15ad0c19cf67642086d0020c8be328307e190955fbcf9899ff31b183c6",
    "mss1": "463b2b1ad639cd24fa13740edbd7e12d8d083cb4ae04eef3efeb47e89990fc37",
    "msf1": "df43715bfd4c61e1fc2ad3e278e08492c6a37147cd15a917e78b8bd173d05dd7",
    "msf2": "0dfd401a45ac37b96329213b741659f7fba10aed9f62f96cfcd49db7019c74ae",
    "stream-open": "3d8c7e4a6c27414641e0ec7cc86a6592ce3d7f36e6d026ca6d844bffde6c7b54",
}


def sealed_blobs():
    gateway = StreamGateway(SECRET)
    minter = TokenMinter(SECRET, key_epoch=0)
    opened = gateway.open_session("clinic-kat", 2, 450.0, minter.mint())
    return {
        "plan": seal_plan(make_plan(), SECRET, nonce=NONCE),
        "mse1": seal_report(make_report(), SECRET, key_epoch=3, nonce=NONCE),
        "mse2": seal_report(
            make_report(), SECRET, key_epoch=3, nonce=NONCE, trace_context=CONTEXT
        ),
        "mss1": seal_chunk(
            make_samples(),
            SECRET,
            session_key=bytes(range(100, 116)),
            seq=7,
            key_epoch=2,
            sampling_rate_hz=450.0,
            nonce=NONCE,
        ),
        "msf1": mint_token(SECRET, 5, nonce=NONCE, minted_at_s=12.5),
        "msf2": mint_token(
            SECRET, 5, nonce=NONCE, minted_at_s=12.5, trace_context=CONTEXT
        ),
        "stream-open": opened.resume_token.encode("ascii") + opened.session_key,
    }


@pytest.mark.parametrize("length", sorted(KEYSTREAM_PREFIXES))
def test_keystream_known_answer(length):
    stream = keystream(b"k" * 32, bytes(range(16)), length)
    assert len(stream) == length
    assert sha(stream)[:16] == KEYSTREAM_PREFIXES[length]


@pytest.mark.parametrize("name", sorted(SEALED_DIGESTS))
def test_sealed_format_known_answer(name):
    assert sha(sealed_blobs()[name]) == SEALED_DIGESTS[name], name


def test_known_answer_blobs_open():
    blobs = sealed_blobs()
    assert open_plan(blobs["plan"], SECRET).schedule.n_epochs == 6
    report, context = open_report_with_context(blobs["mse2"], SECRET)
    assert context == CONTEXT and report.count == 5
    np.testing.assert_array_equal(open_chunk(blobs["mss1"], SECRET).samples, make_samples())
    token = parse_token(blobs["msf2"], SECRET)
    assert (token.nonce, token.key_epoch, token.context) == (NONCE, 5, CONTEXT)


# ---------------------------------------------------------------------------
# The construction before SHAKE-256, kept only here: a SHA-256 counter-mode
# keystream under keys labelled ``-enc`` / ``-mac``.  Its digests are the
# wire bytes the sealed formats carried under it, so the monkeypatched
# sealers below are checked to really be that construction.
# ---------------------------------------------------------------------------
SHA256_CTR_DIGESTS = {
    "plan": "db047e27e69ac6a4efe7c2242a4ed2cc4629ec84087ef98ed39f54e6356183f5",
    "mse2": "1942422e18850e657f71bb333e6ef961260df31ae6d98523be4e76040d3ec54f",
    "mss1": "4820abff959c6186afcb85754d8ccf939a1fbd9749d33eeaf15299880f8bd8df",
}


def sha256_ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Block ``i`` is SHA-256(key || nonce || i as 8-byte little endian)."""
    return b"".join(
        hashlib.sha256(key + nonce + counter.to_bytes(8, "little")).digest()
        for counter in range(-(-length // 32))
    )[:length]


@pytest.fixture
def sha256_ctr_blobs(monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(keyshare, "keystream", sha256_ctr_keystream)
        patched.setattr(keyshare, "ENC_SUFFIX", b"-enc")
        patched.setattr(keyshare, "MAC_SUFFIX", b"-mac")
        blobs = sealed_blobs()
    return {name: blobs[name] for name in SHA256_CTR_DIGESTS}


def test_sha256_ctr_blobs_are_the_old_wire_bytes(sha256_ctr_blobs):
    for name, blob in sha256_ctr_blobs.items():
        assert sha(blob) == SHA256_CTR_DIGESTS[name], name


def test_sha256_ctr_blobs_refused(sha256_ctr_blobs):
    # Same secret, same headers: only the construction differs, and the
    # relabelled MAC key turns that into a failed tag, not garbage.
    with pytest.raises(IntegrityError, match="failed authentication"):
        open_plan(sha256_ctr_blobs["plan"], SECRET)
    with pytest.raises(EnvelopeError, match="failed authentication"):
        open_report_with_context(sha256_ctr_blobs["mse2"], SECRET)
    with pytest.raises(EnvelopeError, match="failed authentication"):
        open_chunk(sha256_ctr_blobs["mss1"], SECRET)


def test_derived_key_labels_are_distinct():
    # Every label a program path hands ``derive_key`` (directly, or via
    # ``mac`` and ``seal``), old sealed-box labels included: no two keys
    # coincide, and no label holds the ``|`` that ends it in the KDF input.
    stems = (keyshare._LABEL, guard_envelope._LABEL, stream_envelope._LABEL)
    sealed = [stem + suffix for stem in stems for suffix in (ENC_SUFFIX, MAC_SUFFIX)]
    old = [stem + suffix for stem in stems for suffix in (b"-enc", b"-mac")]
    mac_only = [
        freshness._MAC_LABEL,
        stream_session._RESUME_LABEL,
        stream_session._SESSION_KEY_LABEL,
    ]
    labels = sealed + old + mac_only
    assert len(set(labels)) == len(labels) == 15
    assert not any(b"|" in label for label in labels)
