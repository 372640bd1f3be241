"""Resilient cloud client: retry, deadline, and load shedding.

:class:`ResilientAnalysisClient` wraps an analysis backend (the shared
:class:`~repro.cloud.server.AnalysisServer`) behind the lossy link
model.  Each ``analyze`` call:

1. asks the circuit breaker for admission (shed with
   :class:`~repro.serving.retry.CircuitOpenError` if open);
2. attempts the exchange over the
   :class:`~repro.cloud.network.UnreliableNetworkModel`;
3. on a drop or timeout, backs off per the
   :class:`~repro.serving.retry.RetryPolicy` and tries again, charging
   the *modelled* attempt time plus the backoff delay against the
   request deadline.

Deadline accounting is in **virtual time** — the sum of modelled
attempt durations and backoff delays — so whether a run exceeds its
deadline is a pure function of (seed, policy, link), independent of
host speed.  A duplicated delivery reaches the backend twice (the
curious server logs the job twice); the client returns the first
report and counts the duplicate.

The client quacks like an :class:`~repro.cloud.server.AnalysisServer`
(``detector``, ``analyze``, timing accessors) so the unmodified
:meth:`Smartphone.relay <repro.mobile.phone.Smartphone.relay>` path
works through it — the phone never learns retries exist.
"""

from typing import Optional

from repro._util.errors import AdmissionError, MedSenError
from repro._util.rng import RngLike, ensure_rng
from repro.cloud.network import (
    TransferDropped,
    TransferError,
    TransferTimeout,
    UnreliableNetworkModel,
)
from repro.guard.freshness import TokenMinter
from repro.hardware.acquisition import AcquiredTrace
from repro.obs import LOAD_SHED, NULL_OBSERVER, RELAY_RETRIED
from repro.serving.retry import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceeded,
    RetryPolicy,
)

#: Nominal payload sizes used for the link-time model.  The client does
#: not re-encode the trace (the phone already modelled compression); it
#: charges a representative exchange so retries cost realistic time.
_FALLBACK_UPLOAD_BYTES = 64_000.0
_RESPONSE_BYTES = 1_024.0


class RetryBudgetExceeded(MedSenError):
    """Every allowed attempt failed; the request gives up.

    Carries the underlying :class:`TransferError` of the final attempt
    as ``last_error``.
    """

    def __init__(self, message: str, last_error: Optional[TransferError] = None) -> None:
        super().__init__(message)
        self.last_error = last_error


class ResilientAnalysisClient:
    """Retrying, deadline-aware, breaker-guarded analysis client.

    Parameters
    ----------
    backend:
        The real analysis service; called only for
        attempts the link actually delivers.
    link:
        The lossy network; ``None`` or a reliable link short-circuits
        to a single attempt.
    policy, breaker:
        Retry policy and (shared, fleet-wide) circuit breaker.
    rng:
        The *request's* derived generator — drives both the link's
        failure draws and the backoff jitter, keeping the whole failure
        history replayable.
    deadline_s:
        Virtual-time budget for the exchange (attempt times plus
        backoff delays); ``None`` disables it.
    request_id:
        Stable idempotency token forwarded to the backend so that
        radio-layer duplicates and crash-restart re-submissions are
        deduplicated server-side.  ``None`` (the default) preserves the
        legacy at-least-once behaviour: duplicates reach the backend as
        fresh jobs.  Never drawn from ``rng`` — a draw here would shift
        every downstream stream and break bit-identical replay.
    token_minter:
        Optional :class:`~repro.guard.freshness.TokenMinter` paired
        with the backend's :class:`~repro.guard.freshness.FreshnessGuard`.
        Each transmission *attempt* mints a fresh token; a radio
        duplicate re-delivers the same attempt — same token bytes — so
        the server's nonce registry refuses it with
        :class:`~repro._util.errors.ReplayError` even if an attacker
        rewrites the ``request_id``.  Nonces come from ``os.urandom``,
        never from ``rng``, so minting cannot perturb replayable
        streams.
    """

    def __init__(
        self,
        backend,
        link: Optional[UnreliableNetworkModel] = None,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        rng: RngLike = None,
        deadline_s: Optional[float] = None,
        observer=NULL_OBSERVER,
        request_id: Optional[str] = None,
        token_minter: Optional[TokenMinter] = None,
    ) -> None:
        self.backend = backend
        self.link = link
        self.policy = policy or RetryPolicy()
        self.breaker = breaker
        self.rng = ensure_rng(rng)
        self.deadline_s = deadline_s
        self.observer = observer
        self.request_id = request_id
        self.token_minter = token_minter
        #: Virtual seconds this client burned on failed attempts and
        #: backoff waits (successful-attempt transfer time is already
        #: modelled by the phone's own network accounting).
        self.retry_overhead_s = 0.0
        self.attempts_made = 0
        self.duplicates_seen = 0
        #: Duplicate deliveries the backend's replay protection refused
        #: (only grows when a freshness guard is in play).
        self.duplicates_refused = 0

    # ------------------------------------------------------------------
    # AnalysisServer facade, so Smartphone.relay works unchanged.
    # ------------------------------------------------------------------
    @property
    def detector(self):
        return self.backend.detector

    @property
    def jobs_processed(self) -> int:
        return self.backend.jobs_processed

    @property
    def total_processing_time_s(self) -> float:
        return self.backend.total_processing_time_s

    @property
    def last_processing_time_s(self):
        return self.backend.last_processing_time_s

    # ------------------------------------------------------------------
    def analyze(self, trace: AcquiredTrace):
        """Analyse ``trace`` through the lossy link, retrying as allowed.

        Raises :class:`CircuitOpenError` (shed), :class:`DeadlineExceeded`
        (budget burned), or :class:`RetryBudgetExceeded` (all attempts
        failed).
        """
        if self.link is None or self.link.is_reliable:
            return self._attempt_backend(trace, self._mint())

        upload_bytes = self._upload_bytes(trace)
        spent_s = 0.0
        last_error: Optional[TransferError] = None
        for attempt in range(self.policy.max_attempts):
            if self.deadline_s is not None and spent_s >= self.deadline_s:
                raise DeadlineExceeded(
                    f"burned {spent_s:.3f} s of a {self.deadline_s:.3f} s "
                    f"deadline after {attempt} attempts"
                )
            if self.breaker is not None and not self.breaker.allow():
                self.observer.event(LOAD_SHED, attempts=attempt)
                self.observer.incr("serve.sheds")
                raise CircuitOpenError(
                    "circuit open: request shed without attempting the cloud"
                )
            self.attempts_made += 1
            # One token per transmission attempt: a retry is a new
            # exchange, but a radio duplicate of *this* attempt carries
            # these exact bytes and trips the server's nonce registry.
            token = self._mint()
            try:
                delivery = self.link.attempt(
                    upload_bytes, _RESPONSE_BYTES, rng=self.rng,
                    observer=self.observer,
                )
            except TransferDropped as error:
                last_error = error
                spent_s += self.link.base.round_trip_latency_s
                self._register_failure(attempt, "dropped")
            except TransferTimeout as error:
                last_error = error
                spent_s += error.waited_s
                self._register_failure(attempt, "timed_out")
            else:
                report = self._attempt_backend(trace, token)
                if delivery.n_deliveries > 1:
                    # Radio-layer duplicate: the same attempt (same
                    # token bytes) re-delivered to the backend.  With a
                    # freshness guard the nonce registry refuses it
                    # (ReplayError); with only a request id, idempotent
                    # ingest drops it; with neither, the curious server
                    # logs the job again.
                    self.duplicates_seen += 1
                    self.observer.incr("serve.duplicate_deliveries")
                    try:
                        self._attempt_backend(trace, token)
                    except AdmissionError:
                        self.duplicates_refused += 1
                        self.observer.incr("serve.duplicates_refused")
                if self.breaker is not None:
                    self.breaker.record_success()
                self.retry_overhead_s = spent_s
                return report
            # Failed attempt: back off before the next one (if any).
            if attempt + 1 < self.policy.max_attempts:
                delay_s = self.policy.backoff_s(attempt, rng=self.rng)
                spent_s += delay_s
                self.observer.observe("serve.backoff_s", delay_s)
        self.retry_overhead_s = spent_s
        raise RetryBudgetExceeded(
            f"all {self.policy.max_attempts} attempts failed "
            f"(last: {last_error})",
            last_error=last_error,
        )

    # ------------------------------------------------------------------
    def _mint(self) -> Optional[bytes]:
        if self.token_minter is None:
            return None
        # Attach the caller's live span context (if any) so the token
        # carries the trace across the wire (MSF2); context comes from
        # the tracer's counter, never from ``rng``, so replay holds.
        context = None
        current = getattr(self.observer, "current_context", None)
        if current is not None:
            context = current()
        return self.token_minter.mint(trace_context=context)

    def _attempt_backend(self, trace: AcquiredTrace, token: Optional[bytes] = None):
        kwargs = {}
        if self.request_id is not None:
            kwargs["request_id"] = self.request_id
        if token is not None:
            kwargs["freshness_token"] = token
        return self.backend.analyze(trace, **kwargs)

    def _register_failure(self, attempt: int, outcome: str) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()
        self.observer.event(RELAY_RETRIED, attempt=attempt, outcome=outcome)
        self.observer.incr("serve.retries")

    @staticmethod
    def _upload_bytes(trace: AcquiredTrace) -> float:
        """Rough compressed-capture size for the link-time model."""
        try:
            # 8 bytes/sample raw, ~6:1 zip on CSV-ish payloads.
            return max(trace.n_channels * trace.n_samples * 8.0 / 6.0, 1.0)
        except AttributeError:
            return _FALLBACK_UPLOAD_BYTES
