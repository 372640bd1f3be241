"""Trust-boundary hardening (the §IV adversary, taken seriously).

PR 3's resilience layer survives *random* faults; this package defends
against a *malicious* network peer and an online password guesser:

* :mod:`~repro.guard.admission` — typed, non-crashing rejection of
  malformed/oversized/NaN-poisoned payloads at every boundary;
* :mod:`~repro.guard.freshness` — authenticated nonce + key-epoch
  tokens that refuse replayed and stale exchanges even when the
  attacker rewrites ``request_id``;
* :mod:`~repro.guard.envelope` — HMAC-sealed report transit, verified
  on the phone *before* anything reaches the TCB's decryptor;
* :mod:`~repro.guard.lockout` — per-source attempt budgets with
  exponential backoff, quantified against the §V password space by
  :mod:`repro.attacks.bruteforce`;
* :mod:`~repro.guard.fuzz` — the seeded protocol fuzzer that holds the
  whole contract: every parser round-trips or raises its typed error.

The adversarial campaign wiring lives in :mod:`repro.guard.campaign`
(import it explicitly; it pulls in the serving stack) and runs as
``python -m repro harden --smoke``.  See ``docs/security.md``.
"""

from repro._util.errors import (
    AdmissionError,
    EnvelopeError,
    LockoutError,
    MalformedPayloadError,
    OversizedPayloadError,
    ReplayError,
    StaleEpochError,
)
from repro.guard.admission import (
    DEFAULT_TRACE_POLICY,
    REJECTED_METRIC,
    TraceAdmissionPolicy,
    admit_identifier_key,
    admit_metadata,
    admit_report,
    admit_trace,
)
from repro.guard.envelope import (
    MAX_ENVELOPE_BYTES,
    SecureChannel,
    open_report,
    open_report_with_context,
    seal_report,
)
from repro.guard.freshness import (
    TOKEN_BYTES,
    TOKEN_V2_BYTES,
    FreshnessGuard,
    FreshnessToken,
    TokenMinter,
    mint_token,
    parse_token,
)
from repro.guard.fuzz import (
    MUTATION_OPS,
    Escape,
    FuzzReport,
    ParserTarget,
    TargetResult,
    default_targets,
    fuzz_parser,
    mutate,
    run_fuzz,
)
from repro.guard.lockout import (
    DEFAULT_LOCKOUT_POLICY,
    AttemptThrottle,
    LockoutPolicy,
)

__all__ = [
    "AdmissionError",
    "MalformedPayloadError",
    "OversizedPayloadError",
    "ReplayError",
    "StaleEpochError",
    "EnvelopeError",
    "LockoutError",
    "TraceAdmissionPolicy",
    "DEFAULT_TRACE_POLICY",
    "REJECTED_METRIC",
    "admit_trace",
    "admit_report",
    "admit_identifier_key",
    "admit_metadata",
    "FreshnessToken",
    "FreshnessGuard",
    "TokenMinter",
    "mint_token",
    "parse_token",
    "TOKEN_BYTES",
    "TOKEN_V2_BYTES",
    "SecureChannel",
    "seal_report",
    "open_report",
    "open_report_with_context",
    "MAX_ENVELOPE_BYTES",
    "LockoutPolicy",
    "DEFAULT_LOCKOUT_POLICY",
    "AttemptThrottle",
    "ParserTarget",
    "TargetResult",
    "Escape",
    "FuzzReport",
    "MUTATION_OPS",
    "mutate",
    "fuzz_parser",
    "default_targets",
    "run_fuzz",
]
