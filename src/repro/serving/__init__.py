"""Multi-tenant serving: many patients, one untrusted cloud.

The paper's deployment story (§V-§VII) is a fleet of MedSen dongles
sharing one cloud; this package turns the one-shot
:class:`~repro.core.protocol.MedSenSession` pipeline into a serving
stack that can sustain that load:

* :mod:`repro.serving.request` — the job model: a
  :class:`SessionRequest` submitted by a tenant and the
  :class:`SessionFuture` its caller waits on, with a per-request RNG
  derived from ``(fleet seed, tenant, sequence)`` so a fleet run is
  reproducible regardless of worker interleaving;
* :mod:`repro.serving.queue` — a bounded submission queue with
  per-tenant lanes and round-robin fair dequeue; overflow either
  rejects (:class:`QueueFull`) or blocks, the caller's choice;
* :mod:`repro.serving.retry` — exponential backoff with deterministic
  injected jitter, per-request deadlines, and a circuit breaker that
  sheds load while the cloud is down;
* :mod:`repro.serving.client` — the resilient cloud client applying
  that policy over the lossy relay
  (:class:`repro.cloud.network.UnreliableNetworkModel`);
* :mod:`repro.serving.scheduler` — the thread-pool
  :class:`FleetScheduler` tying it all together;
* :mod:`repro.serving.workload` — synthetic clinic workloads and the
  throughput/latency report behind ``python -m repro serve``.

Everything is instrumented through :mod:`repro.obs` (queue-depth
gauge, end-to-end latency histograms, retry / shed /
circuit audit events).  See ``docs/serving.md``.
"""

from repro.serving.client import ResilientAnalysisClient, RetryBudgetExceeded
from repro.serving.queue import FairSubmissionQueue, QueueFull
from repro.serving.request import (
    RequestState,
    SessionFuture,
    SessionRequest,
    derive_request_rng,
)
from repro.serving.retry import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceeded,
    RetryPolicy,
)
from repro.serving.scheduler import (
    FleetConfig,
    FleetScheduler,
    PoisonRequestError,
    WorkerCrash,
)
from repro.serving.workload import ClinicReport, ClinicWorkload, run_clinic

__all__ = [
    "ResilientAnalysisClient",
    "RetryBudgetExceeded",
    "FairSubmissionQueue",
    "QueueFull",
    "RequestState",
    "SessionFuture",
    "SessionRequest",
    "derive_request_rng",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceeded",
    "RetryPolicy",
    "FleetConfig",
    "FleetScheduler",
    "PoisonRequestError",
    "WorkerCrash",
    "ClinicReport",
    "ClinicWorkload",
    "run_clinic",
]
