"""Seeded protocol fuzzer: every parser rejects garbage *typedly*.

The admission contract (:mod:`repro.guard.admission`) is only as
strong as the parsers behind it.  This module deterministically mutates
honest serialized artifacts — key plans, sealed plans, freshness
tokens, report envelopes, journal lines, protocol messages, CSV trace
payloads, sealed stream chunks — with the classic corruption operators
(truncate, bit-flip,
splice, resize) and asserts the corresponding parser either accepts
the payload or raises inside its *declared* error hierarchy.  Anything
else — a raw ``struct.error``, ``IndexError``, ``KeyError``,
``RecursionError`` — is an **escape**: a crash an attacker can trigger
from outside the trust boundary.

Everything is seeded: the same ``seed`` reproduces the same mutation
stream bit-for-bit, so an escape found in CI replays locally with
``python -m repro harden --seed N``.
"""

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._util.errors import AdmissionError, IntegrityError, ValidationError
from repro.crypto.keyshare import open_plan, seal_plan
from repro.obs import NULL_OBSERVER

# ---------------------------------------------------------------------------
# Mutation operators
# ---------------------------------------------------------------------------
MUTATION_OPS = ("truncate", "bitflip", "splice", "resize")


def mutate(data: bytes, rng: np.random.Generator, n_ops: Optional[int] = None) -> bytes:
    """Apply 1..3 random corruption operators to ``data``."""
    out = bytearray(data)
    for _ in range(int(n_ops) if n_ops is not None else int(rng.integers(1, 4))):
        if not out:
            out = bytearray(rng.integers(0, 256, size=8, dtype=np.uint8).tobytes())
            continue
        op = MUTATION_OPS[int(rng.integers(0, len(MUTATION_OPS)))]
        if op == "truncate":
            cut = int(rng.integers(0, len(out)))
            out = out[cut:] if rng.integers(0, 2) else out[:cut]
        elif op == "bitflip":
            for _ in range(int(rng.integers(1, 9))):
                if not out:
                    break
                index = int(rng.integers(0, len(out)))
                out[index] ^= 1 << int(rng.integers(0, 8))
        elif op == "splice":
            length = int(rng.integers(1, max(2, len(out) // 2)))
            src = int(rng.integers(0, max(1, len(out) - length + 1)))
            dst = int(rng.integers(0, max(1, len(out) - length + 1)))
            out[dst : dst + length] = out[src : src + length]
        elif op == "resize":
            if rng.integers(0, 2):
                at = int(rng.integers(0, len(out) + 1))
                insert = rng.integers(
                    0, 256, size=int(rng.integers(1, 64)), dtype=np.uint8
                ).tobytes()
                out[at:at] = insert
            else:
                length = int(rng.integers(1, max(2, len(out) // 2)))
                src = int(rng.integers(0, max(1, len(out) - length + 1)))
                out.extend(out[src : src + length])
    return bytes(out)


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ParserTarget:
    """One parser under fuzz, with its declared error hierarchy."""

    name: str
    seeds: Tuple[bytes, ...]
    parse: Callable[[bytes], Any]
    allowed_errors: Tuple[type, ...]

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValidationError(f"target {self.name} needs a seed corpus")


@dataclass(frozen=True)
class Escape:
    """One untyped exception that crossed the boundary."""

    target: str
    mutation_index: int
    exception_type: str
    detail: str


@dataclass(frozen=True)
class TargetResult:
    """Containment stats for one parser."""

    name: str
    n_mutations: int
    n_accepted: int
    n_rejected: int
    escapes: Tuple[Escape, ...]

    @property
    def contained(self) -> bool:
        return not self.escapes


def fuzz_parser(
    target: ParserTarget,
    seed: int = 0,
    n_mutations: int = 10_000,
    observer: Any = NULL_OBSERVER,
) -> TargetResult:
    """Drive ``n_mutations`` corrupted payloads through one parser.

    Every declared rejection counts toward ``n_rejected``; a clean
    parse (the mutation happened to stay valid) counts toward
    ``n_accepted``; anything else is an :class:`Escape`.
    """
    name_key = int.from_bytes(
        hashlib.blake2b(target.name.encode("utf-8"), digest_size=4).digest(), "little"
    )
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(name_key,))
    )
    n_accepted = 0
    n_rejected = 0
    escapes: List[Escape] = []
    for index in range(n_mutations):
        base = target.seeds[int(rng.integers(0, len(target.seeds)))]
        payload = mutate(base, rng)
        try:
            target.parse(payload)
            n_accepted += 1
        except target.allowed_errors:
            n_rejected += 1
        except Exception as error:  # the whole point: catch *everything*
            if len(escapes) < 32:
                escapes.append(
                    Escape(
                        target=target.name,
                        mutation_index=index,
                        exception_type=type(error).__name__,
                        detail=str(error)[:200],
                    )
                )
            observer.incr("fuzz.escapes")
    observer.incr("fuzz.mutations", n_mutations)
    return TargetResult(
        name=target.name,
        n_mutations=n_mutations,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        escapes=tuple(escapes),
    )


# ---------------------------------------------------------------------------
# The default corpus: one honest artifact per wire format
# ---------------------------------------------------------------------------
def _make_plans():
    from repro.crypto.encryptor import EncryptionPlan
    from repro.crypto.gains import GainTable
    from repro.crypto.keygen import EntropySource, KeyGenerator
    from repro.hardware.electrodes import standard_array
    from repro.microfluidics.flow import FlowSpeedTable

    plans = []
    for seed, n_outputs, n_epochs in ((0, 9, 10), (1, 5, 4)):
        array = standard_array(n_outputs)
        schedule = KeyGenerator(n_electrodes=n_outputs).generate_schedule(
            float(n_epochs), 1.0, EntropySource(rng=seed)
        )
        plans.append(
            EncryptionPlan(schedule, array, GainTable(), FlowSpeedTable())
        )
    return plans


def _make_report():
    from repro.dsp.peakdetect import DetectedPeak, PeakReport

    peaks = tuple(
        DetectedPeak(
            time_s=0.5 * i + 0.25,
            depth=0.01 * (i + 1),
            width_s=0.02,
            amplitudes=np.asarray([0.01, 0.02, 0.03]),
            sample_index=100 * i,
        )
        for i in range(5)
    )
    return PeakReport(
        peaks=peaks, duration_s=10.0, sampling_rate_hz=450.0, detection_channel=0
    )


def _make_journal_lines(report) -> Tuple[bytes, ...]:
    from repro.cloud.storage import StoredRecord, payload_checksum, record_payload_dict
    from repro.resilience.journal import encode_entry

    lines = []
    for sequence in (1, 2):
        key = f"bead_3.58um:{sequence}|bead_7.8um:0"
        metadata = (("capture_id", f"cap-{sequence}"),)
        payload = record_payload_dict(key, report, sequence, 12.5 * sequence, metadata)
        record = StoredRecord(
            identifier_key=key,
            report=report,
            sequence_number=sequence,
            stored_at_s=12.5 * sequence,
            metadata=metadata,
            checksum=payload_checksum(payload),
        )
        lines.append(encode_entry(record).encode("utf-8"))
    return tuple(lines)


def default_targets(secret: bytes = b"fuzz-shared-secret") -> Tuple[ParserTarget, ...]:
    """The nine wire formats an attacker can reach, with honest seeds."""
    from repro.cloud.api import AnalysisRequest, AnalysisResponse, StoreRequest
    from repro.crypto.serialization import plan_from_bytes, plan_to_bytes
    from repro.dsp.recording import CsvRecordingModel
    from repro.guard.envelope import open_report, seal_report
    from repro.guard.freshness import mint_token, parse_token
    from repro.obs.context import TraceContext, derive_trace_context
    from repro.resilience.journal import decode_entry
    from repro.stream.envelope import seal_chunk

    plans = _make_plans()
    report = _make_report()
    nonce = bytes(range(16))
    contexts = (
        derive_trace_context(0, "fuzz-tenant", 0),
        derive_trace_context(1, "fuzz-tenant", 7),
    )
    recorder = CsvRecordingModel()
    trace = np.linspace(0.0, 1.0, 64).reshape(2, 32)
    csv_payload = recorder.encode(trace, sampling_rate_hz=450.0)
    messages = (
        AnalysisRequest(
            capture_id="cap-1",
            n_channels=3,
            n_samples=4500,
            sampling_rate_hz=450.0,
            compressed_bytes=1024,
        ).to_json(),
        AnalysisResponse(capture_id="cap-1", report=report).to_json(),
        StoreRequest(
            identifier_key="bead_3.58um:2|bead_7.8um:0",
            capture_id="cap-1",
            metadata=(("site", "clinic-7"),),
        ).to_json(),
    )
    return (
        ParserTarget(
            name="plan_from_bytes",
            seeds=tuple(plan_to_bytes(plan) for plan in plans),
            parse=plan_from_bytes,
            allowed_errors=(ValidationError,),
        ),
        ParserTarget(
            name="open_plan",
            seeds=tuple(seal_plan(plan, secret, nonce=nonce) for plan in plans),
            parse=lambda blob: open_plan(blob, secret),
            allowed_errors=(ValidationError, IntegrityError),
        ),
        ParserTarget(
            name="parse_token",
            seeds=(
                mint_token(secret, key_epoch=0, nonce=nonce),
                mint_token(secret, key_epoch=7, nonce=nonce[::-1]),
                # MSF2: context-carrying layout under the same parser.
                mint_token(
                    secret, key_epoch=2, nonce=nonce, trace_context=contexts[0]
                ),
            ),
            parse=lambda blob: parse_token(blob, secret),
            allowed_errors=(AdmissionError,),
        ),
        ParserTarget(
            name="open_report",
            seeds=(
                seal_report(report, secret, key_epoch=0, nonce=nonce),
                seal_report(report, secret, key_epoch=3, nonce=nonce[::-1]),
                # MSE2: context-carrying header under the same opener.
                seal_report(
                    report,
                    secret,
                    key_epoch=1,
                    nonce=nonce,
                    trace_context=contexts[1],
                ),
            ),
            parse=lambda blob: open_report(blob, secret),
            allowed_errors=(AdmissionError,),
        ),
        ParserTarget(
            name="trace_context",
            seeds=tuple(context.to_bytes() for context in contexts),
            parse=TraceContext.from_bytes,
            allowed_errors=(ValidationError,),
        ),
        ParserTarget(
            name="journal_decode_entry",
            seeds=_make_journal_lines(report),
            parse=lambda blob: decode_entry(blob.decode("utf-8", errors="replace")),
            allowed_errors=(ValueError,),
        ),
        ParserTarget(
            name="api_from_json",
            seeds=tuple(message.encode("utf-8") for message in messages),
            parse=lambda blob: _parse_any_message(
                blob.decode("utf-8", errors="replace")
            ),
            allowed_errors=(ValidationError,),
        ),
        ParserTarget(
            name="csv_trace_decode",
            seeds=(csv_payload,),
            parse=recorder.decode,
            allowed_errors=(ValidationError,),
        ),
        ParserTarget(
            name="open_chunk",
            seeds=(
                seal_chunk(
                    trace,
                    secret,
                    session_key=nonce,
                    seq=0,
                    key_epoch=0,
                    sampling_rate_hz=450.0,
                    nonce=nonce,
                ),
                seal_chunk(
                    trace,
                    secret,
                    session_key=nonce[::-1],
                    seq=7,
                    key_epoch=3,
                    sampling_rate_hz=1000.0,
                    nonce=nonce[::-1],
                ),
            ),
            parse=lambda blob: _parse_chunk(blob, secret),
            allowed_errors=(AdmissionError,),
        ),
    )


def _parse_chunk(blob: bytes, secret: bytes):
    from repro.stream.envelope import open_chunk

    return open_chunk(blob, secret)


def _parse_any_message(text: str):
    """Dispatch a protocol message to whichever parser claims its type."""
    from repro.cloud.api import AnalysisRequest, AnalysisResponse, StoreRequest, _parse_json

    payload = _parse_json(text)
    kind = payload.get("type")
    if kind == "analysis_request":
        return AnalysisRequest.from_json(text)
    if kind == "analysis_response":
        return AnalysisResponse.from_json(text)
    if kind == "store_request":
        return StoreRequest.from_json(text)
    raise ValidationError(f"unknown message type {kind!r}")


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzReport:
    """Aggregate containment report across all targets."""

    seed: int
    results: Tuple[TargetResult, ...]

    @property
    def contained(self) -> bool:
        """True when no parser leaked an untyped exception."""
        return all(result.contained for result in self.results)

    @property
    def n_mutations(self) -> int:
        return sum(result.n_mutations for result in self.results)

    @property
    def n_escapes(self) -> int:
        return sum(len(result.escapes) for result in self.results)

    def digest(self) -> str:
        """Deterministic digest of the full outcome (CI comparison)."""
        h = hashlib.blake2b(digest_size=16)
        h.update(str(self.seed).encode())
        for result in self.results:
            h.update(
                f"{result.name}:{result.n_mutations}:{result.n_accepted}:"
                f"{result.n_rejected}:{len(result.escapes)}".encode()
            )
        return h.hexdigest()

    def format(self) -> str:
        lines = [
            f"protocol fuzz · seed={self.seed} · "
            f"{self.n_mutations} mutations · digest {self.digest()}"
        ]
        for result in self.results:
            status = "ok" if result.contained else "ESCAPED"
            lines.append(
                f"  [{status:>7}] {result.name:<22} "
                f"{result.n_mutations:>6} mutated  "
                f"{result.n_rejected:>6} rejected  "
                f"{result.n_accepted:>4} still-valid"
            )
            for escape in result.escapes[:3]:
                lines.append(
                    f"            escape @{escape.mutation_index}: "
                    f"{escape.exception_type}: {escape.detail}"
                )
        return "\n".join(lines)


def run_fuzz(
    seed: int = 0,
    n_per_parser: int = 10_000,
    targets: Optional[Sequence[ParserTarget]] = None,
    observer: Any = NULL_OBSERVER,
) -> FuzzReport:
    """Fuzz every default target ``n_per_parser`` times."""
    if n_per_parser < 1:
        raise ValidationError("n_per_parser must be >= 1")
    chosen = tuple(targets) if targets is not None else default_targets()
    results = tuple(
        fuzz_parser(target, seed=seed, n_mutations=n_per_parser, observer=observer)
        for target in chosen
    )
    return FuzzReport(seed=seed, results=results)
