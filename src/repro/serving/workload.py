"""Synthetic clinic workloads and the serving throughput report.

A :class:`ClinicWorkload` models a day at a point-of-care site: a
handful of tenants (patients with enrolled cyto-coded passwords), each
submitting a stream of diagnostic requests with their own disease
stage (marker concentration baseline).  :func:`run_clinic` drives a
:class:`~repro.serving.scheduler.FleetScheduler` through the workload
and distils a :class:`ClinicReport` — sessions/sec, latency
percentiles, retry/shed/reject counts — which backs both
``python -m repro serve`` and ``benchmarks/bench_throughput.py``.

Workload generation is deterministic: samples and identifiers come
from ``derive_request_rng(seed, tenant, sequence)``-style child
streams, so two schedulers fed the same workload see byte-identical
submissions.
"""

from dataclasses import dataclass, field
from time import monotonic as _monotonic
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._util.validation import check_positive
from repro.auth.identifier import CytoIdentifier
from repro.core.config import MedSenConfig
from repro.particles.library import get_particle_type
from repro.particles.sample import Sample
from repro.serving.queue import QueueFull
from repro.serving.request import SessionFuture, derive_request_rng
from repro.serving.scheduler import FleetScheduler


@dataclass(frozen=True)
class ClinicWorkload:
    """A reproducible multi-tenant request stream.

    Parameters
    ----------
    n_tenants, requests_per_tenant:
        Shape of the stream (submissions interleave round-robin).
    seed:
        Drives identifier assignment and per-sample particle draws —
        independent of the fleet seed, so the same workload can be
        replayed against differently-seeded fleets.
    duration_s:
        Capture duration per session (shorter = faster benchmarks).
    marker_baselines_per_ul:
        Tenant disease stages to cycle through; defaults span the CD4
        staging thresholds (healthy, watch, ART, critical).
    """

    n_tenants: int = 4
    requests_per_tenant: int = 4
    seed: int = 2016
    duration_s: float = 20.0
    blood_volume_ul: float = 10.0
    marker_baselines_per_ul: Tuple[float, ...] = (700.0, 450.0, 300.0, 150.0)

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise ValueError(f"n_tenants must be >= 1, got {self.n_tenants}")
        if self.requests_per_tenant < 1:
            raise ValueError(
                f"requests_per_tenant must be >= 1, got {self.requests_per_tenant}"
            )
        check_positive("duration_s", self.duration_s)
        check_positive("blood_volume_ul", self.blood_volume_ul)

    @property
    def n_requests(self) -> int:
        return self.n_tenants * self.requests_per_tenant

    def tenant_ids(self) -> List[str]:
        return [f"clinic-{index:02d}" for index in range(self.n_tenants)]

    def identifiers(self, config: MedSenConfig) -> Dict[str, CytoIdentifier]:
        """A distinct cyto-coded password per tenant."""
        assignments: Dict[str, CytoIdentifier] = {}
        for index, tenant in enumerate(self.tenant_ids()):
            rng = derive_request_rng(self.seed, tenant + "#identifier", 0)
            taken = {i.as_string() for i in assignments.values()}
            # Re-draw until distinct (collisions would alias record-store
            # keys) and with every bead type present: an absent character
            # is unrecoverable from the short benchmark captures, and a
            # real enrolment station would reject such fragile passwords.
            while True:
                identifier = CytoIdentifier.random(config.alphabet, rng=rng)
                if min(identifier.levels) >= 1 and identifier.as_string() not in taken:
                    break
            assignments[tenant] = identifier
        return assignments

    def blood_sample(self, tenant_index: int, sequence: int) -> Sample:
        """The tenant's blood draw for one visit (deterministic)."""
        baseline = self.marker_baselines_per_ul[
            tenant_index % len(self.marker_baselines_per_ul)
        ]
        rng = derive_request_rng(
            self.seed, f"clinic-{tenant_index:02d}#blood", sequence
        )
        # Day-to-day biological variation around the stage baseline.
        concentration = baseline * float(rng.uniform(0.9, 1.1))
        return Sample.from_concentrations(
            {get_particle_type("blood_cell"): concentration},
            volume_ul=self.blood_volume_ul,
            rng=rng,
        )


@dataclass
class ClinicReport:
    """What one clinic run achieved."""

    n_submitted: int = 0
    n_completed: int = 0
    n_failed: int = 0
    n_rejected: int = 0
    wall_time_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    queue_waits_s: List[float] = field(default_factory=list)
    retries: int = 0
    sheds: int = 0
    duplicates: int = 0
    breaker_opens: int = 0
    failures_by_type: Dict[str, int] = field(default_factory=dict)

    @property
    def sessions_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.n_completed / self.wall_time_s

    def latency_percentile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))

    def format(self) -> str:
        """Human-readable summary for the CLI / benchmark output."""
        lines = [
            f"sessions      {self.n_completed}/{self.n_submitted} completed, "
            f"{self.n_failed} failed, {self.n_rejected} rejected",
            f"throughput    {self.sessions_per_second:.2f} sessions/s "
            f"({self.wall_time_s:.2f} s wall)",
            f"latency       p50 {self.latency_percentile(50):.3f} s   "
            f"p95 {self.latency_percentile(95):.3f} s   "
            f"p99 {self.latency_percentile(99):.3f} s",
            f"resilience    {self.retries} retries, {self.sheds} sheds, "
            f"{self.duplicates} duplicate deliveries, "
            f"{self.breaker_opens} breaker trips",
        ]
        if self.failures_by_type:
            summary = ", ".join(
                f"{name}×{count}" for name, count in sorted(self.failures_by_type.items())
            )
            lines.append(f"failures      {summary}")
        return "\n".join(lines)


def run_clinic(
    scheduler: FleetScheduler,
    workload: ClinicWorkload = ClinicWorkload(),
    block_on_backpressure: bool = True,
    submit_timeout_s: Optional[float] = 60.0,
) -> ClinicReport:
    """Drive the scheduler through the workload and collect the report.

    Submissions interleave round-robin across tenants (the fairness
    stress case).  When the queue pushes back, either block for space
    (default — measures sustained throughput) or count the reject and
    move on (``block_on_backpressure=False`` — measures shedding).
    """
    report = ClinicReport()
    identifiers = workload.identifiers(scheduler.device_config)
    for tenant, identifier in identifiers.items():
        scheduler.register_tenant(tenant, identifier)

    tenants = workload.tenant_ids()
    futures: List[SessionFuture] = []
    started = _monotonic()
    for sequence in range(workload.requests_per_tenant):
        for tenant_index, tenant in enumerate(tenants):
            blood = workload.blood_sample(tenant_index, sequence)
            report.n_submitted += 1
            try:
                futures.append(
                    scheduler.submit(
                        tenant,
                        blood,
                        identifiers[tenant],
                        duration_s=workload.duration_s,
                        block=block_on_backpressure,
                        timeout=submit_timeout_s,
                    )
                )
            except QueueFull:
                report.n_rejected += 1

    for future in futures:
        future.wait()
        if future.exception() is None:
            report.n_completed += 1
            report.latencies_s.append(future.latency_s)
            report.queue_waits_s.append(future.queue_wait_s)
        else:
            report.n_failed += 1
            name = type(future.exception()).__name__
            report.failures_by_type[name] = report.failures_by_type.get(name, 0) + 1
    report.wall_time_s = _monotonic() - started

    report.retries = _counter(scheduler, "serve.retries")
    report.sheds = _counter(scheduler, "serve.sheds")
    report.duplicates = _counter(scheduler, "serve.duplicate_deliveries")
    report.breaker_opens = scheduler.breaker.times_opened
    return report


def _counter(scheduler: FleetScheduler, name: str) -> int:
    """Read a counter off the scheduler's observer, if it keeps metrics."""
    metrics = getattr(scheduler.observer, "metrics", None)
    if metrics is None or name not in getattr(metrics, "names", lambda: [])():
        return 0
    return int(metrics.counter(name).value)
