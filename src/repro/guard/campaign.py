"""The hardening campaign: ``python -m repro harden``.

The fourth adversarial campaign (after the eavesdropper suite, the
serving smoke, and the chaos campaigns): a seeded, end-to-end check
that the §IV trust boundaries actually refuse what they claim to
refuse.  Five phases, each pinned by invariants the CLI and CI render:

* **Phase A — protocol fuzz.**  Every reachable parser survives
  ``n_mutations`` seeded corruptions (:mod:`repro.guard.fuzz`) without
  leaking an untyped exception.
* **Phase B — garbage admission.**  Malformed, oversized, and
  NaN-poisoned payloads are refused with typed
  :class:`~repro._util.errors.AdmissionError`\\ s at all four
  boundaries — cloud ingest, phone relay, record store, and the fleet
  scheduler's submit — with exact ``guard.rejected`` accounting, while
  an honest capture sails through untouched.
* **Phase C — replay & freshness.**  A captured exchange replayed with
  a rewritten ``request_id`` is refused (``guard.replay_detected``);
  stale- and future-epoch tokens are refused (``guard.stale_epoch``);
  forged tokens fail authentication.
* **Phase D — envelope tamper-evidence.**  A sealed report opens
  verbatim; the same envelope with one flipped bit is refused
  (``guard.envelope_rejected``) without ever being decrypted.
* **Phase E — lockout.**  A failure streak locks its source out on the
  exact exponential schedule, an innocent source stays unaffected, and
  the :mod:`repro.attacks.bruteforce` lockout model agrees with the
  throttle's actual behaviour.

Determinism: the same ``(seed, n_mutations)`` produces the same fuzz
stream, counters, and hence the same :attr:`HardeningReport.digest`.

This module deliberately sits outside ``repro.guard``'s public
``__init__`` — it pulls in the serving stack; import it explicitly or
run it via the CLI.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, List, Optional, Tuple

import numpy as np

from repro._util.drill import DrillReport, InvariantResult, canonical_digest
from repro._util.errors import (
    AdmissionError,
    EnvelopeError,
    LockoutError,
    MalformedPayloadError,
    ReplayError,
    StaleEpochError,
)
from repro.guard.envelope import SecureChannel
from repro.guard.freshness import FreshnessGuard, mint_token
from repro.guard.fuzz import FuzzReport, run_fuzz
from repro.guard.lockout import AttemptThrottle, LockoutPolicy
from repro.obs import NULL_OBSERVER, EventLog, ManualClock, MetricsRegistry, Observer

_SECRET = b"hardening-campaign-secret"


@dataclass
class HardeningReport(DrillReport):
    """Everything one hardening run produced."""

    seed: int = 0
    n_mutations: int = 0
    fuzz: Optional[FuzzReport] = None
    n_rejected: int = 0
    n_replays_refused: int = 0
    n_stale_refused: int = 0
    n_envelopes_refused: int = 0
    n_lockout_refusals: int = 0

    def title(self) -> str:
        return f"hardening campaign seed {self.seed}"

    def summary_lines(self) -> List[str]:
        lines = [
            f"guard accounting  {self.n_rejected} payloads rejected, "
            f"{self.n_replays_refused} replays, {self.n_stale_refused} stale, "
            f"{self.n_envelopes_refused} envelopes, "
            f"{self.n_lockout_refusals} lockout refusals",
        ]
        if self.fuzz is not None:
            lines.append(self.fuzz.format())
        return lines


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------
def _honest_capture(seed: int):
    """One honest encrypted capture (device + trace), seeded."""
    from repro.core.device import MedSenDevice
    from repro.particles.library import get_particle_type
    from repro.particles.sample import Sample
    from repro.serving.request import derive_request_rng

    rng = derive_request_rng(seed, "__hardening__", 0)
    sample = Sample.from_concentrations(
        {get_particle_type("blood_cell"): 400.0}, volume_ul=10.0, rng=rng
    )
    device = MedSenDevice(rng=rng)
    capture = device.run_capture(sample, 4.0, encrypt=True)
    return device, capture


def _garbage_traces() -> Tuple[Any, ...]:
    """The malformed-payload corpus; each must refuse typedly."""
    good = np.zeros((2, 16))
    carriers = (1000.0, 2000.0)

    def fake(**overrides: Any) -> SimpleNamespace:
        fields = {
            "voltages": good,
            "sampling_rate_hz": 450.0,
            "carrier_frequencies_hz": carriers,
        }
        fields.update(overrides)
        return SimpleNamespace(**fields)

    nan_poisoned = good.copy()
    nan_poisoned[1, 3] = np.nan
    return (
        object(),  # not a trace at all
        fake(voltages=[[0.0, 1.0]]),  # not an ndarray
        fake(voltages=np.zeros(16)),  # wrong rank
        fake(voltages=np.zeros((2, 16), dtype=object)),  # non-numeric
        fake(voltages=np.zeros((0, 16))),  # empty axis
        fake(voltages=np.zeros((65, 4))),  # channel cap
        fake(voltages=nan_poisoned),  # NaN-poisoned
        fake(sampling_rate_hz=float("inf")),  # absurd rate
        fake(carrier_frequencies_hz=(1000.0,)),  # carrier mismatch
        fake(voltages=np.full((2, 16), 1e9)),  # voltage ceiling
    )


def _refuses(check_name: str, fn, *errors: type) -> Optional[str]:
    """Run ``fn``; return None when it raises one of ``errors``, else a
    failure detail string."""
    try:
        fn()
    except errors:
        return None
    except Exception as error:  # wrong exception type: an escape
        return f"{check_name}: escaped with {type(error).__name__}: {error}"
    return f"{check_name}: accepted instead of refusing"


def _counter(observer: Any, name: str) -> float:
    return observer.metrics.counter(name).value


# ---------------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------------
def run_hardening(
    seed: int = 0,
    n_mutations: int = 10_000,
    smoke: bool = False,
    observer: Any = NULL_OBSERVER,
) -> HardeningReport:
    """Execute the hardening campaign and check its invariants.

    ``smoke`` shrinks the fuzz budget to a CI-friendly size.  Never
    raises on an invariant violation — the report carries the verdicts
    (``report.passed``) for the CLI/CI to render.
    """
    if observer is NULL_OBSERVER:
        # The campaign *verifies* guard accounting, so it always needs
        # readable counters even when the caller doesn't care.
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
    n_per_parser = min(n_mutations, 400) if smoke else n_mutations
    report = HardeningReport(seed=int(seed), n_mutations=n_per_parser)
    checks = report.invariants

    # ------------------------------------------------------------------
    # Phase A — protocol fuzz
    # ------------------------------------------------------------------
    fuzz = run_fuzz(seed=seed, n_per_parser=n_per_parser, observer=observer)
    report.fuzz = fuzz
    escapes = [
        f"{e.target}@{e.mutation_index}: {e.exception_type}"
        for result in fuzz.results
        for e in result.escapes[:2]
    ]
    checks.append(
        InvariantResult(
            name="fuzz-contained",
            ok=fuzz.contained,
            detail=(
                f"{fuzz.n_mutations} mutations across {len(fuzz.results)} parsers"
                if fuzz.contained
                else "; ".join(escapes)
            ),
        )
    )

    # ------------------------------------------------------------------
    # Phase B — garbage admission at the four boundaries
    # ------------------------------------------------------------------
    from repro.cloud.server import AnalysisServer
    from repro.cloud.storage import RecordStore
    from repro.mobile.phone import Smartphone

    device, capture = _honest_capture(seed)
    server = AnalysisServer(observer=observer)
    phone = Smartphone(observer=observer)
    store = RecordStore(clock=ManualClock(), observer=observer)
    garbage = _garbage_traces()

    failures: List[str] = []
    before = _counter(observer, "guard.rejected")
    for index, trace in enumerate(garbage):
        detail = _refuses(f"ingest[{index}]", lambda t=trace: server.analyze(t), AdmissionError)
        if detail:
            failures.append(detail)
    for index, trace in enumerate(garbage[:3]):
        detail = _refuses(
            f"relay[{index}]", lambda t=trace: phone.relay(t, server), AdmissionError
        )
        if detail:
            failures.append(detail)
    honest_report = server.analyze(capture.trace)
    for name, call in (
        ("store-key", lambda: store.store(123, honest_report)),
        ("store-report", lambda: store.store("key-1", object())),
        (
            "store-metadata",
            lambda: store.store("key-1", honest_report, metadata={"x": object()}),
        ),
    ):
        detail = _refuses(name, call, AdmissionError)
        if detail:
            failures.append(detail)
    n_garbage = len(garbage) + 3 + 3
    rejected = _counter(observer, "guard.rejected") - before
    checks.append(
        InvariantResult(
            name="garbage-refused-typed",
            ok=not failures,
            detail="; ".join(failures[:4])
            or f"{n_garbage} garbage payloads refused at ingest/relay/store",
        )
    )
    checks.append(
        InvariantResult(
            name="guard-rejected-accounting",
            ok=rejected == n_garbage,
            detail=f"guard.rejected grew {rejected:.0f}, expected {n_garbage}",
        )
    )
    # Honest traffic is untouched by the guard.
    honest_failures: List[str] = []
    try:
        stored = store.store(
            "bead_3.58um:2|bead_7.8um:0", honest_report, metadata={"site": "clinic"}
        )
        if not stored.verify():
            honest_failures.append("stored honest record fails verification")
    except Exception as error:
        honest_failures.append(f"honest store refused: {type(error).__name__}")
    try:
        outcome = phone.relay(capture.trace, server)
        if outcome.report.count != honest_report.count:
            honest_failures.append("honest relay changed the report")
    except Exception as error:
        honest_failures.append(f"honest relay refused: {type(error).__name__}")
    checks.append(
        InvariantResult(
            name="honest-traffic-admitted",
            ok=not honest_failures,
            detail="; ".join(honest_failures),
        )
    )

    # The fleet front door (scheduler.submit) refuses garbage too.
    from repro.serving.scheduler import FleetConfig, FleetScheduler

    submit_failures: List[str] = []
    config = FleetConfig(seed=seed, n_workers=1, queue_capacity=4)
    with FleetScheduler(config, observer=observer) as scheduler:
        blood = SimpleNamespace()  # never reaches the queue
        for name, call in (
            ("submit-tenant", lambda: scheduler.submit(
                "bad\ntenant", blood, None)),
            ("submit-duration", lambda: scheduler.submit(
                "clinic-1", blood, None, duration_s=float("nan"))),
            ("submit-duration-cap", lambda: scheduler.submit(
                "clinic-1", blood, None, duration_s=1e9)),
            ("submit-volume", lambda: scheduler.submit(
                "clinic-1", blood, None, pipette_volume_ul=-2.0)),
        ):
            detail = _refuses(name, call, AdmissionError)
            if detail:
                submit_failures.append(detail)
    checks.append(
        InvariantResult(
            name="submit-refuses-garbage",
            ok=not submit_failures,
            detail="; ".join(submit_failures),
        )
    )

    # ------------------------------------------------------------------
    # Phase C — replay & freshness
    # ------------------------------------------------------------------
    guard = FreshnessGuard(_SECRET, key_epoch=2, epoch_window=1)
    guarded = AnalysisServer(
        observer=observer, freshness=guard, transit_secret=_SECRET
    )
    minter = guard.minter()
    replay_failures: List[str] = []
    replays_before = _counter(observer, "guard.replay_detected")
    stale_before = _counter(observer, "guard.stale_epoch")
    token = minter.mint()
    try:
        first = guarded.analyze(capture.trace, request_id="req-A", freshness_token=token)
    except Exception as error:
        first = None
        replay_failures.append(f"honest tokened exchange refused: {error}")
    # The §IV attacker replays the captured exchange, rewriting the
    # request id so honest dedup cannot help.
    detail = _refuses(
        "replay",
        lambda: guarded.analyze(
            capture.trace, request_id="req-B", freshness_token=token
        ),
        ReplayError,
    )
    if detail:
        replay_failures.append(detail)
    for name, bad_token, expected in (
        ("stale-epoch", mint_token(_SECRET, key_epoch=0), StaleEpochError),
        ("future-epoch", mint_token(_SECRET, key_epoch=3), StaleEpochError),
        ("forged-token", bytes(64), MalformedPayloadError),
        ("missing-token", None, MalformedPayloadError),
    ):
        detail = _refuses(
            name,
            lambda t=bad_token: guarded.analyze(capture.trace, freshness_token=t),
            expected,
        )
        if detail:
            replay_failures.append(detail)
    tampered_token = bytearray(minter.mint())
    tampered_token[7] ^= 0x20
    detail = _refuses(
        "bitflipped-token",
        lambda: guarded.analyze(
            capture.trace, freshness_token=bytes(tampered_token)
        ),
        MalformedPayloadError,
    )
    if detail:
        replay_failures.append(detail)
    report.n_replays_refused = int(
        _counter(observer, "guard.replay_detected") - replays_before
    )
    report.n_stale_refused = int(_counter(observer, "guard.stale_epoch") - stale_before)
    checks.append(
        InvariantResult(
            name="replay-and-freshness-refused",
            ok=not replay_failures
            and report.n_replays_refused >= 1
            and report.n_stale_refused >= 2,
            detail="; ".join(replay_failures)
            or (
                f"{report.n_replays_refused} replays, "
                f"{report.n_stale_refused} stale-epoch refusals"
            ),
        )
    )

    # ------------------------------------------------------------------
    # Phase D — tamper-evident envelopes
    # ------------------------------------------------------------------
    channel = SecureChannel(_SECRET, key_epoch=2, observer=observer)
    envelope_failures: List[str] = []
    envelopes_before = _counter(observer, "guard.envelope_rejected")
    sealed = guarded.analyze_sealed(
        capture.trace, freshness_token=channel.new_token()
    )
    try:
        opened = channel.receive(sealed)
        if first is not None and opened.count != first.count:
            envelope_failures.append("sealed report decodes to different counts")
    except Exception as error:
        envelope_failures.append(f"genuine envelope refused: {error}")
    for index in (0, len(sealed) // 2, len(sealed) - 1):
        tampered = bytearray(sealed)
        tampered[index] ^= 0x01
        detail = _refuses(
            f"envelope-bitflip@{index}",
            lambda blob=bytes(tampered): channel.receive(blob),
            EnvelopeError,
        )
        if detail:
            envelope_failures.append(detail)
    detail = _refuses(
        "envelope-truncated", lambda: channel.receive(sealed[:10]), EnvelopeError
    )
    if detail:
        envelope_failures.append(detail)
    report.n_envelopes_refused = int(
        _counter(observer, "guard.envelope_rejected") - envelopes_before
    )
    checks.append(
        InvariantResult(
            name="forged-envelopes-refused",
            ok=not envelope_failures and report.n_envelopes_refused >= 4,
            detail="; ".join(envelope_failures)
            or f"{report.n_envelopes_refused} tampered envelopes refused, "
            "genuine envelope opened",
        )
    )

    # ------------------------------------------------------------------
    # Phase E — lockout schedule and the bruteforce model
    # ------------------------------------------------------------------
    from repro.attacks.bruteforce import (
        bruteforce_expected_time_s,
        lockout_delay_s,
    )
    from repro.auth.alphabet import DEFAULT_ALPHABET

    clock = ManualClock()
    policy = LockoutPolicy(
        max_failures=3, base_lockout_s=8.0, backoff_factor=2.0, max_lockout_s=64.0
    )
    throttle = AttemptThrottle(policy, clock=clock, observer=observer)
    lockout_failures: List[str] = []
    lockouts_before = _counter(observer, "auth.lockout_refusals")
    # Burn the budget; the trip must match the schedule exactly.
    for _ in range(policy.max_failures):
        throttle.check("mallory")
        throttle.record_failure("mallory")
    if not throttle.is_locked("mallory"):
        lockout_failures.append("streak did not trip a lockout")
    if throttle.retry_after_s("mallory") != policy.lockout_duration_s(1):
        lockout_failures.append(
            f"first window {throttle.retry_after_s('mallory')} != "
            f"{policy.lockout_duration_s(1)}"
        )
    detail = _refuses(
        "locked-out-check", lambda: throttle.check("mallory"), LockoutError
    )
    if detail:
        lockout_failures.append(detail)
    # An innocent source is untouched (no victim-lockout DoS).
    try:
        throttle.check("alice")
    except Exception as error:
        lockout_failures.append(f"innocent source refused: {error}")
    # After the window the source may try again — and one more failure
    # escalates to the doubled window, no fresh free budget.
    clock.advance(policy.lockout_duration_s(1) + 0.5)
    try:
        throttle.check("mallory")
    except LockoutError:
        lockout_failures.append("lockout did not expire with the clock")
    throttle.record_failure("mallory")
    if throttle.retry_after_s("mallory") != policy.lockout_duration_s(2):
        lockout_failures.append("second window did not escalate to 2x")
    report.n_lockout_refusals = int(
        _counter(observer, "auth.lockout_refusals") - lockouts_before
    )
    checks.append(
        InvariantResult(
            name="lockout-schedule-exact",
            ok=not lockout_failures and report.n_lockout_refusals >= 1,
            detail="; ".join(lockout_failures)
            or f"{report.n_lockout_refusals} refusals on the exact schedule",
        )
    )

    # The analytical model must agree with the throttle it describes:
    # drive a fresh throttle through n failures, waiting out each
    # window, and compare the waited total with lockout_delay_s(n).
    model_failures: List[str] = []
    for n_failures in (2, 3, 5, 9):
        sim_clock = ManualClock()
        sim = AttemptThrottle(policy, clock=sim_clock)
        waited = 0.0
        for _ in range(n_failures):
            wait = sim.retry_after_s("eve")
            if wait > 0:
                sim_clock.advance(wait)
                waited += wait
            sim.check("eve")
            sim.record_failure("eve")
        # The wait incurred by the final failure is served before the
        # *next* attempt, so include the pending window too.
        waited += sim.retry_after_s("eve")
        predicted = lockout_delay_s(n_failures, policy)
        if abs(waited - predicted) > 1e-9:
            model_failures.append(
                f"{n_failures} failures: simulated {waited}s vs model {predicted}s"
            )
    time_plain = bruteforce_expected_time_s(DEFAULT_ALPHABET, attempt_s=60.0)
    time_locked = bruteforce_expected_time_s(
        DEFAULT_ALPHABET, policy=policy, attempt_s=60.0
    )
    if not time_locked > time_plain:
        model_failures.append(
            f"lockout did not increase expected time ({time_locked} <= {time_plain})"
        )
    checks.append(
        InvariantResult(
            name="bruteforce-model-matches-throttle",
            ok=not model_failures,
            detail="; ".join(model_failures)
            or (
                f"model exact for 2/3/5/9 failures; expected brute-force time "
                f"{time_plain:.0f}s -> {time_locked:.0f}s under lockout"
            ),
        )
    )

    # ------------------------------------------------------------------
    # Final accounting + deterministic digest
    # ------------------------------------------------------------------
    report.n_rejected = int(_counter(observer, "guard.rejected"))
    report.digest = canonical_digest(
        {
            "seed": report.seed,
            "n_mutations": report.n_mutations,
            "fuzz": fuzz.digest(),
            "invariants": [[inv.name, inv.ok] for inv in report.invariants],
            "counts": [
                report.n_replays_refused,
                report.n_stale_refused,
                report.n_envelopes_refused,
                report.n_lockout_refusals,
            ],
        },
        16,
    )
    return report
