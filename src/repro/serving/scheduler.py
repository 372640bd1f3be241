"""The fleet scheduler: a thread pool serving many tenants' sessions.

:class:`FleetScheduler` is the serving stack's centrepiece.  It owns
the shared deployment state — one :class:`~repro.core.config.MedSenConfig`,
one enrolled classifier, one :class:`~repro.auth.authenticator.ServerAuthenticator`,
one :class:`~repro.cloud.storage.RecordStore`, one
:class:`~repro.cloud.server.AnalysisServer`, one fleet-wide
circuit breaker — and a pool of worker threads draining the fair
submission queue.

Per request, a worker builds *fresh* stateful components — a
:class:`~repro.core.device.MedSenDevice` (its controller key schedule
is per-session state), a :class:`~repro.mobile.phone.Smartphone`, and
a :class:`~repro.serving.client.ResilientAnalysisClient` — all seeded
from the request's derived RNG, so results are a pure function of
``(fleet seed, tenant, tenant sequence)`` and an 8-worker run matches
a serial run bit for bit (``tests/test_serving_scheduler.py``).

Concurrency pays off because a session's wall-clock is dominated by
*waiting* (network transfer of the compressed capture, §VII-B), not
compute: with ``realtime_network=True`` each worker actually sleeps
the modelled transfer time, and the pool overlaps those waits exactly
as a real fleet overlaps its uplinks.
"""

import threading
from dataclasses import dataclass, field
from time import monotonic as _monotonic
from time import sleep as _sleep
from typing import Dict, List, Optional

from repro._util.errors import MedSenError
from repro.auth.authenticator import ServerAuthenticator
from repro.auth.enrollment import enroll_classifier
from repro.auth.identifier import CytoIdentifier
from repro.cloud.network import NetworkModel, UnreliableNetworkModel
from repro.cloud.server import AnalysisServer
from repro.cloud.storage import RecordStore
from repro.core.config import MedSenConfig
from repro.core.device import MedSenDevice
from repro.core.diagnosis import CD4_STAGING, ThresholdDiagnostic
from repro.core.protocol import MedSenSession
from repro.guard.admission import admit_session_params
from repro.guard.freshness import FreshnessGuard
from repro.guard.lockout import LockoutPolicy
from repro.mobile.phone import Smartphone
from repro.obs import (
    NULL_OBSERVER,
    derive_trace_context,
    REQUEST_COMPLETED,
    REQUEST_FAILED,
    REQUEST_QUARANTINED,
    REQUEST_QUEUED,
    REQUEST_REJECTED,
    WORKER_CRASHED,
    WORKER_RESTARTED,
)
from repro.particles.library import get_particle_type
from repro.particles.sample import Sample
from repro.serving.client import ResilientAnalysisClient
from repro.serving.queue import FairSubmissionQueue, QueueFull
from repro.serving.request import (
    RequestState,
    SessionFuture,
    SessionRequest,
    derive_request_rng,
)
from repro.serving.retry import CircuitBreaker, RetryPolicy


class WorkerCrash(MedSenError):
    """A worker thread died mid-request (injected or real).

    Raised *through* :meth:`FleetScheduler._run_one` so the worker loop
    can distinguish "this request failed" (handled in place) from "this
    worker is gone" (the supervisor restarts the worker and requeues or
    quarantines the request).
    """


class PoisonRequestError(MedSenError):
    """A request crashed ``poison_threshold`` workers and was quarantined.

    The offending future lands in :attr:`FleetScheduler.dead_letters`
    instead of being retried forever; ``last_crash`` carries the final
    :class:`WorkerCrash`.
    """

    def __init__(self, message: str, last_crash: Optional[WorkerCrash] = None) -> None:
        super().__init__(message)
        self.last_crash = last_crash


@dataclass(frozen=True)
class FleetConfig:
    """Everything that parameterises a serving fleet.

    Parameters
    ----------
    seed:
        Fleet seed; with the per-tenant sequence it fully determines
        every request's randomness.
    n_workers:
        Worker threads draining the queue (1 = the serial baseline).
    queue_capacity:
        Bound on the submission queue (backpressure threshold).
    network:
        The uplink model shared by every phone in the fleet.
    drop_probability, timeout_probability, duplicate_probability,
    network_timeout_s:
        Failure injection for the cloud exchange (all zero = reliable).
    retry:
        Backoff policy for failed exchanges.
    breaker_failure_threshold, breaker_recovery_s:
        Fleet-wide circuit breaker; consecutive failures trip it.
    deadline_s:
        Default per-request virtual-time budget for the cloud exchange.
    realtime_network:
        When True, workers *sleep* each session's modelled network +
        compression + retry time, so concurrency genuinely overlaps the
        waits (throughput benchmarks); when False, sessions run at
        compute speed (tests).
    keep_history, max_history:
        Curious-server log retention on the shared analysis server.
    supervise_workers:
        When True (default), a worker that crashes mid-request is
        replaced by a fresh thread and the interrupted request is
        requeued; when False a crash permanently shrinks the pool and
        fails the request.
    poison_threshold:
        Crashes the *same* request may cause before it is quarantined
        to :attr:`FleetScheduler.dead_letters` instead of retried (a
        poison request would otherwise kill workers forever).
    freshness_secret:
        When set, the shared analysis server carries a
        :class:`~repro.guard.freshness.FreshnessGuard` under this
        phone↔cloud secret, every per-request client mints one
        authenticated token per transmission attempt, and replayed or
        stale-epoch exchanges are refused at ingest — even when the
        replay rewrites its ``request_id``.  ``None`` (default) keeps
        the honest-sender dedup only.
    auth_lockout:
        Optional :class:`~repro.guard.lockout.LockoutPolicy` for the
        shared authenticator: tenants burning their failure budget are
        locked out with exponential backoff (keyed by tenant id).
    max_duration_s, max_pipette_volume_ul:
        Admission caps enforced at :meth:`FleetScheduler.submit`; a
        request exceeding them is refused with a typed
        :class:`~repro._util.errors.AdmissionError` before it can
        occupy a queue slot.
    """

    seed: int = 0
    n_workers: int = 4
    queue_capacity: int = 64
    network: NetworkModel = field(default_factory=NetworkModel)
    drop_probability: float = 0.0
    timeout_probability: float = 0.0
    duplicate_probability: float = 0.0
    network_timeout_s: float = 2.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: int = 5
    breaker_recovery_s: float = 5.0
    deadline_s: Optional[float] = None
    realtime_network: bool = False
    keep_history: bool = False
    max_history: int = 4096
    marker_type_name: str = "blood_cell"
    diagnostic: ThresholdDiagnostic = CD4_STAGING
    supervise_workers: bool = True
    poison_threshold: int = 2
    freshness_secret: Optional[bytes] = None
    auth_lockout: Optional[LockoutPolicy] = None
    max_duration_s: float = 3600.0
    max_pipette_volume_ul: float = 1000.0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )

    @property
    def flaky(self) -> bool:
        """Whether any network failure mode is enabled."""
        return (
            self.drop_probability > 0
            or self.timeout_probability > 0
            or self.duplicate_probability > 0
        )


class FleetScheduler:
    """Thread-pool scheduler for multi-tenant diagnostic sessions.

    Parameters
    ----------
    config, observer:
        Fleet parameters and observability sink.
    store:
        Optional pre-built :class:`~repro.cloud.storage.RecordStore`
        (e.g. one with a resilience journal attached, or one recovered
        from a journal after a crash); defaults to a fresh in-memory
        store.
    fault_injector:
        Optional chaos hook (see :mod:`repro.resilience.faults`).  Duck
        typed: ``on_request_start(tenant, sequence, attempt)`` may raise
        :class:`WorkerCrash` to kill the executing worker, and
        ``sensor_fault_model(tenant, sequence)`` may return a
        :class:`~repro.hardware.faults.FaultModel` for the request's
        device.  ``None`` (the default) injects nothing.
    """

    def __init__(
        self,
        config: FleetConfig = FleetConfig(),
        observer=NULL_OBSERVER,
        store: Optional[RecordStore] = None,
        fault_injector=None,
    ) -> None:
        self.config = config
        self.observer = observer
        self.fault_injector = fault_injector
        # --- shared, effectively-immutable deployment state ----------
        self.device_config = MedSenConfig()
        self.server = AnalysisServer(
            keep_history=config.keep_history,
            max_history=config.max_history,
            observer=observer,
            freshness=(
                FreshnessGuard(config.freshness_secret)
                if config.freshness_secret
                else None
            ),
            transit_secret=config.freshness_secret,
        )
        self.authenticator = ServerAuthenticator(
            self.device_config.alphabet,
            observer=observer,
            lockout=config.auth_lockout,
        )
        self.store = store if store is not None else RecordStore(observer=observer)
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failure_threshold,
            recovery_time_s=config.breaker_recovery_s,
            observer=observer,
        )
        self.link = (
            UnreliableNetworkModel(
                base=config.network,
                drop_probability=config.drop_probability,
                timeout_probability=config.timeout_probability,
                duplicate_probability=config.duplicate_probability,
                timeout_s=config.network_timeout_s,
            )
            if config.flaky
            else None
        )
        # One classifier for the whole fleet, enrolled from a dedicated
        # derived stream so it never perturbs per-request randomness.
        reference_types = list(self.device_config.alphabet.bead_types)
        if not any(t.name == config.marker_type_name for t in reference_types):
            reference_types.append(get_particle_type(config.marker_type_name))
        self.classifier = enroll_classifier(
            reference_types,
            circuit=self.device_config.circuit,
            rng=derive_request_rng(config.seed, "__fleet_enrollment__", 0),
        )
        # --- submission state ----------------------------------------
        self.queue = FairSubmissionQueue(config.queue_capacity, observer=observer)
        # _submit_lock may be held across a *blocking* put, so workers
        # must never need it; completion stats get their own lock.
        self._submit_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._sequence = 0
        self._tenant_sequences: Dict[str, int] = {}
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._crashes = 0
        self._restarts = 0
        self._dead_letters: List[SessionFuture] = []
        self._workers: List[threading.Thread] = []
        self._worker_index = 0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetScheduler":
        """Spin up the worker pool (idempotent)."""
        if self._started:
            return self
        self._started = True
        for _ in range(self.config.n_workers):
            self._spawn_worker(restart=False)
        return self

    def _spawn_worker(self, restart: bool = True) -> None:
        with self._stats_lock:
            index = self._worker_index
            self._worker_index += 1
        worker = threading.Thread(
            target=self._worker_loop, name=f"fleet-worker-{index}", daemon=True
        )
        worker.start()
        with self._stats_lock:
            self._workers.append(worker)
            if restart:
                self._restarts += 1
        if restart:
            self.observer.event(WORKER_RESTARTED, worker=worker.name)
            self.observer.incr("serve.worker_restarts")

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work, drain the queue, join the workers."""
        self.queue.close()
        if wait:
            # Supervision may append replacement workers while we join,
            # so drain the list instead of iterating a snapshot.
            while True:
                with self._stats_lock:
                    if not self._workers:
                        break
                    worker = self._workers.pop()
                worker.join()
        else:
            with self._stats_lock:
                self._workers = []
        self._started = False

    def __enter__(self) -> "FleetScheduler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def register_tenant(self, tenant_id: str, identifier: CytoIdentifier) -> None:
        """Enrol a tenant's cyto-coded password with the authenticator."""
        self.authenticator.register(tenant_id, identifier)

    def submit(
        self,
        tenant_id: str,
        blood: Sample,
        identifier: CytoIdentifier,
        duration_s: float = 20.0,
        pipette_volume_ul: float = 2.0,
        deadline_s: Optional[float] = None,
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> SessionFuture:
        """Queue one diagnostic session; returns its future.

        Backpressure: with ``block=False`` a full queue raises
        :class:`~repro.serving.queue.QueueFull` (the event and the
        ``serve.rejected`` counter record the shed); with ``block=True``
        the call waits for space (up to ``timeout`` seconds).

        The submit boundary is admission-guarded: a malformed tenant
        id, a non-finite or out-of-cap duration, or an absurd pipette
        volume is refused with a typed
        :class:`~repro._util.errors.AdmissionError` (counted under
        ``guard.rejected``) before touching the queue.
        """
        if not self._started:
            raise MedSenError("scheduler not started; use start() or a with-block")
        self._admit_submission(tenant_id, duration_s, pipette_volume_ul)
        with self._submit_lock:
            sequence = self._sequence
            tenant_sequence = self._tenant_sequences.get(tenant_id, 0)
            # Claim the numbers only after the queue accepts the put —
            # a rejected submission must not consume a sequence, or a
            # replay with a larger queue would diverge.
            request = SessionRequest(
                tenant_id=tenant_id,
                blood=blood,
                identifier=identifier,
                duration_s=duration_s,
                pipette_volume_ul=pipette_volume_ul,
                sequence=sequence,
                tenant_sequence=tenant_sequence,
                deadline_s=deadline_s if deadline_s is not None else self.config.deadline_s,
            )
            future = SessionFuture(request=request)
            future._enqueued_at = _monotonic()
            try:
                self.queue.put(tenant_id, future, block=block, timeout=timeout)
            except QueueFull:
                self._rejected += 1
                self.observer.event(
                    REQUEST_REJECTED, tenant=tenant_id, depth=self.queue.depth
                )
                self.observer.incr("serve.rejected")
                raise
            self._sequence = sequence + 1
            self._tenant_sequences[tenant_id] = tenant_sequence + 1
        self.observer.event(REQUEST_QUEUED, tenant=tenant_id, sequence=sequence)
        self.observer.incr("serve.submitted")
        return future

    def _admit_submission(
        self, tenant_id: str, duration_s: float, pipette_volume_ul: float
    ) -> None:
        """Typed refusal of garbage submissions at the fleet front door."""
        admit_session_params(
            tenant_id,
            duration_s,
            pipette_volume_ul,
            max_duration_s=self.config.max_duration_s,
            max_pipette_volume_ul=self.config.max_pipette_volume_ul,
            observer=self.observer,
            boundary="submit",
        )

    def resume_tenant_sequence(self, tenant_id: str, next_sequence: int) -> None:
        """Fast-forward a tenant's submission counter after recovery.

        A restarted shard process rebuilds its scheduler with counters
        at zero while the fleet front door keeps routing with the
        pre-crash sequence numbers; resuming keeps the per-request RNG
        coordinates ``(seed, tenant, tenant_sequence)`` — and therefore
        every honest numeric output — bit-identical across the restart.
        Counters only move forward: rewinding would let a replayed
        submission re-derive an already-spent request RNG.
        """
        if next_sequence < 0:
            raise MedSenError(f"next_sequence must be >= 0, got {next_sequence}")
        with self._submit_lock:
            current = self._tenant_sequences.get(tenant_id, 0)
            if next_sequence < current:
                raise MedSenError(
                    f"tenant {tenant_id!r} sequence cannot rewind from "
                    f"{current} to {next_sequence}"
                )
            self._tenant_sequences[tenant_id] = next_sequence

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return self._completed

    @property
    def failed(self) -> int:
        return self._failed

    @property
    def rejected(self) -> int:
        return self._rejected

    @property
    def worker_crashes(self) -> int:
        """Workers lost to crashes so far."""
        return self._crashes

    @property
    def worker_restarts(self) -> int:
        """Replacement workers the supervisor has spawned."""
        return self._restarts

    @property
    def dead_letters(self) -> "tuple":
        """Futures quarantined after crashing ``poison_threshold`` workers."""
        with self._stats_lock:
            return tuple(self._dead_letters)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            future = self.queue.get()
            if future is None:
                return
            try:
                self._run_one(future)
            except WorkerCrash as crash:
                # This worker is dead.  Supervision decides the fate of
                # both the worker (replacement) and the request
                # (requeue / dead-letter), then the thread exits.
                self._supervise_crash(future, crash)
                return

    def _supervise_crash(self, future: SessionFuture, crash: WorkerCrash) -> None:
        request = future.request
        crashes = getattr(future, "_crash_count", 0) + 1
        future._crash_count = crashes
        with self._stats_lock:
            self._crashes += 1
        self.observer.event(
            WORKER_CRASHED,
            tenant=request.tenant_id,
            sequence=request.sequence,
            crashes=crashes,
            reason=str(crash),
        )
        self.observer.incr("serve.worker_crashes")
        supervised = self.config.supervise_workers
        if supervised and not self.queue.closed:
            # Replacement first, so the pool keeps draining while we
            # decide what to do with the interrupted request.
            self._spawn_worker()
        if not supervised or crashes >= self.config.poison_threshold:
            with self._stats_lock:
                self._failed += 1
                if supervised:
                    self._dead_letters.append(future)
            if supervised:
                self.observer.event(
                    REQUEST_QUARANTINED,
                    tenant=request.tenant_id,
                    sequence=request.sequence,
                    crashes=crashes,
                )
                self.observer.incr("serve.quarantined")
                future._fail(
                    PoisonRequestError(
                        f"request {request.tenant_id}:{request.tenant_sequence} "
                        f"crashed {crashes} workers; quarantined",
                        last_crash=crash,
                    )
                )
            else:
                future._fail(crash)
            return
        # Transient crash: give the request another attempt.  Its RNG
        # derives from (seed, tenant, tenant_sequence) alone, so the
        # retry replays the session bit-identically.
        future.state = RequestState.PENDING
        try:
            self.queue.put(request.tenant_id, future, block=True, timeout=5.0)
        except MedSenError:
            # Queue closed (shutdown) or still full after the wait —
            # the request fails rather than deadlocking the drain.
            with self._stats_lock:
                self._failed += 1
            future._fail(crash)

    def _run_one(self, future: SessionFuture) -> None:
        request = future.request
        started = _monotonic()
        future.queue_wait_s = started - getattr(future, "_enqueued_at", started)
        future._mark_running()
        try:
            if self.fault_injector is not None:
                self.fault_injector.on_request_start(
                    request.tenant_id,
                    request.tenant_sequence,
                    attempt=getattr(future, "_crash_count", 0),
                )
            result = self._execute(request)
        except WorkerCrash:
            raise  # kills this worker; _supervise_crash owns the future
        except BaseException as error:
            with self._stats_lock:
                self._failed += 1
            future.latency_s = _monotonic() - started + future.queue_wait_s
            self.observer.event(
                REQUEST_FAILED,
                tenant=request.tenant_id,
                sequence=request.sequence,
                error=type(error).__name__,
            )
            self.observer.incr("serve.failed")
            future._fail(error)
            return
        with self._stats_lock:
            self._completed += 1
        future.latency_s = _monotonic() - started + future.queue_wait_s
        self.observer.observe("serve.e2e_s", future.latency_s)
        self.observer.observe("serve.queue_wait_s", future.queue_wait_s)
        self.observer.event(
            REQUEST_COMPLETED,
            tenant=request.tenant_id,
            sequence=request.sequence,
            latency_s=future.latency_s,
        )
        self.observer.incr("serve.completed")
        future._resolve(result)

    def _execute(self, request: SessionRequest):
        """Run one session with fresh per-request stateful components.

        The whole session runs inside a ``fleet_request`` root span
        whose trace id derives deterministically from
        ``(seed, tenant, tenant_sequence)`` — the same coordinates as
        the request RNG, but via a separate BLAKE2b hash, so tracing
        never touches a pipeline random stream.  Every downstream span
        (device capture, relay, cloud analysis) nests under
        or links to this trace, stitching the fleet run together.
        """
        root = derive_trace_context(
            self.config.seed, request.tenant_id, request.tenant_sequence
        )
        with self.observer.span(
            "fleet_request",
            remote_parent=root,
            service="scheduler",
            tenant=request.tenant_id,
            sequence=request.sequence,
            tenant_sequence=request.tenant_sequence,
        ):
            return self._execute_in_span(request)

    def _execute_in_span(self, request: SessionRequest):
        rng = derive_request_rng(
            self.config.seed, request.tenant_id, request.tenant_sequence
        )
        fault_model = None
        if self.fault_injector is not None:
            fault_model = self.fault_injector.sensor_fault_model(
                request.tenant_id, request.tenant_sequence
            )
        device = MedSenDevice(
            config=self.device_config,
            rng=rng,
            fault_model=fault_model,
            observer=self.observer,
        )
        phone = Smartphone(network=self.config.network, observer=self.observer)
        client = ResilientAnalysisClient(
            self.server,
            link=self.link,
            policy=self.config.retry,
            breaker=self.breaker,
            rng=rng,
            deadline_s=request.deadline_s,
            observer=self.observer,
            # Stable across retries and duplicates, so crash-restart
            # re-submissions and radio duplicates dedup server-side.
            request_id=f"{request.tenant_id}:{request.tenant_sequence}",
            # With a freshness secret, every transmission attempt also
            # carries an authenticated one-shot token — the replay
            # protection a rewritten request_id cannot evade.
            token_minter=(
                self.server.freshness.minter()
                if self.server.freshness is not None
                else None
            ),
        )
        session = MedSenSession(
            device=device,
            phone=phone,
            server=client,
            authenticator=self.authenticator,
            classifier=self.classifier,
            store=self.store,
            diagnostic=self.config.diagnostic,
            marker_type_name=self.config.marker_type_name,
            rng=rng,
            observer=self.observer,
        )
        result = session.run_diagnostic(
            request.blood,
            request.identifier,
            duration_s=request.duration_s,
            pipette_volume_ul=request.pipette_volume_ul,
            rng=rng,
            # Tenant-keyed lockout accounting (no-op without a policy).
            auth_source=request.tenant_id,
        )
        if self.config.realtime_network:
            # Sleep the modelled wait so the pool overlaps real I/O time:
            # compression + transfer of this session plus whatever the
            # retry loop burned in backoff and failed attempts.
            wait_s = (
                result.relay.compression_time_s
                + result.relay.transfer_time_s
                + client.retry_overhead_s
            )
            if wait_s > 0:
                _sleep(wait_s)
        return result
