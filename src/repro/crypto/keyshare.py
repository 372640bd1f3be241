"""Practitioner key sharing (§VII-B, implemented).

"MedSen's design also allows (not implemented) sharing of the generated
keys with trusted parties, e.g., the patient's practitioners, so that
they could also access the cloud-based analysis outcomes remotely."

This module implements that design point.  The controller seals the
serialized encryption plan under a secret shared out-of-band with the
practitioner (e.g. printed in the pipette box); the practitioner can
then fetch the patient's *encrypted* records from the cloud and decrypt
them independently, without the device in the loop.

The sealing is an authenticated stream cipher built from the standard
library: SHAKE-256(key || nonce) as the keystream and HMAC-SHA256 in
encrypt-then-MAC order for integrity, under key labels that name the
construction.  (Not a production AEAD — the point here is the *system*
property: key material moves only between TCB-trusted parties and only
confidentially+authenticated.)

:func:`seal` / :func:`unseal` are that construction, written once; the
plan blob, the MSE report envelopes and the MSS stream chunks differ
only in label stem and header, and the MSF freshness tokens and stream
session keys use :func:`mac` alone.
"""

import hashlib
import hmac
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro._util.errors import DecryptionError, IntegrityError, ValidationError
from repro.crypto.decryptor import DecryptionResult, SignalDecryptor
from repro.crypto.encryptor import EncryptionPlan
from repro.crypto.serialization import MAX_PLAN_BYTES, plan_from_bytes, plan_to_bytes

if TYPE_CHECKING:
    from repro.cloud.storage import RecordStore, StoredRecord

#: Nonce and HMAC-SHA256 tag sizes shared by every sealed format.
NONCE_BYTES = 16
TAG_BYTES = 32
_LABEL = b"medsen-keyshare"
#: Label suffixes of the keys :func:`seal` derives.  They name the
#: construction, so a blob sealed under another one fails its tag.
ENC_SUFFIX = b"-shake256-enc"
MAC_SUFFIX = b"-shake256-mac"


def derive_key(secret: bytes, label: bytes) -> bytes:
    """Domain-separated key derivation: SHA-256(label | secret).

    Distinct labels keep every derived key independent.
    """
    return hashlib.sha256(label + b"|" + secret).digest()


def keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """The first ``length`` bytes of SHAKE-256(key || nonce)."""
    return hashlib.shake_256(key + nonce).digest(length)


def mac(secret: bytes, label: bytes, body: bytes) -> bytes:
    """HMAC-SHA256 of ``body`` under the key derived for ``label``."""
    return hmac.new(derive_key(secret, label), body, hashlib.sha256).digest()


def new_nonce(nonce: Optional[bytes] = None) -> bytes:
    """A random nonce, or the caller's after a length check."""
    nonce = os.urandom(NONCE_BYTES) if nonce is None else bytes(nonce)
    if len(nonce) != NONCE_BYTES:
        raise ValidationError(f"nonce must be {NONCE_BYTES} bytes")
    return nonce


def _xor_stream(secret: bytes, label: bytes, nonce: bytes, data: bytes) -> bytes:
    stream = keystream(derive_key(secret, label + ENC_SUFFIX), nonce, len(data))
    return (np.frombuffer(data, np.uint8) ^ np.frombuffer(stream, np.uint8)).tobytes()


def seal(
    secret: bytes, label: bytes, nonce: bytes, header: bytes, plaintext: bytes
) -> bytes:
    """Encrypt-then-MAC: ``header || ciphertext || tag``.

    The tag covers header and ciphertext; keys derive from ``label``
    with :data:`ENC_SUFFIX` and :data:`MAC_SUFFIX` appended.
    """
    body = header + _xor_stream(secret, label, nonce, plaintext)
    return body + mac(secret, label + MAC_SUFFIX, body)


def unseal(
    secret: bytes, label: bytes, nonce: bytes, blob: bytes, header_bytes: int
) -> Optional[bytes]:
    """Verify, then decrypt, a :func:`seal` output; ``None`` if forged.

    The caller has checked ``blob`` holds a ``header_bytes`` header and
    a tag, and read ``nonce`` from that header.
    """
    body, tag = blob[:-TAG_BYTES], blob[-TAG_BYTES:]
    if not hmac.compare_digest(tag, mac(secret, label + MAC_SUFFIX, body)):
        return None
    return _xor_stream(secret, label, nonce, body[header_bytes:])


def seal_plan(plan: EncryptionPlan, secret: bytes, nonce: Optional[bytes] = None) -> bytes:
    """Seal a plan for a trusted party: nonce || ciphertext || tag."""
    if not secret:
        raise ValidationError("secret must be non-empty")
    nonce = new_nonce(nonce)
    return seal(secret, _LABEL, nonce, nonce, plan_to_bytes(plan))


def open_plan(blob: bytes, secret: bytes) -> EncryptionPlan:
    """Open a sealed plan; raises :class:`IntegrityError` on tampering."""
    if not secret:
        raise ValidationError("secret must be non-empty")
    try:
        blob = bytes(blob)
    except (TypeError, ValueError) as error:
        raise ValidationError(f"sealed blob is not bytes-like: {error}") from error
    if len(blob) < NONCE_BYTES + TAG_BYTES:
        raise ValidationError("sealed blob too short")
    if len(blob) > MAX_PLAN_BYTES + NONCE_BYTES + TAG_BYTES:
        raise ValidationError("sealed blob exceeds the plan size cap")
    plaintext = unseal(secret, _LABEL, blob[:NONCE_BYTES], blob, NONCE_BYTES)
    if plaintext is None:
        raise IntegrityError("sealed key blob failed authentication")
    return plan_from_bytes(plaintext)


@dataclass
class PractitionerPortal:
    """The practitioner's independent decryption endpoint.

    Receives sealed key blobs from the patient's controller and fetches
    encrypted records from the cloud store; decryption happens locally,
    so the cloud never learns anything new.
    """

    secret: bytes

    def __post_init__(self) -> None:
        if not self.secret:
            raise ValidationError("secret must be non-empty")
        self._plans: List[EncryptionPlan] = []

    def receive_sealed_plan(self, blob: bytes) -> EncryptionPlan:
        """Unseal and retain a key plan from the patient's device."""
        plan = open_plan(blob, self.secret)
        self._plans.append(plan)
        return plan

    @property
    def n_plans(self) -> int:
        """Plans received so far (one per capture, typically)."""
        return len(self._plans)

    def review_record(self, record: "StoredRecord") -> DecryptionResult:
        """Decrypt one stored record with any held plan that fits.

        A plan fits when its schedule covers the record's duration; the
        newest fitting plan wins (schedules are per-capture).
        """
        errors = []
        for plan in reversed(self._plans):
            decryptor = SignalDecryptor(plan=plan)
            try:
                return decryptor.decrypt(record.report)
            except DecryptionError as error:
                errors.append(str(error))
        raise DecryptionError(
            "no held key plan decrypts this record"
            + (f" (tried {len(errors)}: {errors[-1]})" if errors else "")
        )

    def review_latest(self, store: "RecordStore", identifier_key: str) -> DecryptionResult:
        """Fetch and decrypt the newest record for an identifier."""
        record = store.fetch_latest(identifier_key)
        return self.review_record(record)
