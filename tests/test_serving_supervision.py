"""Worker supervision, poison quarantine, and idempotent server ingest."""

import pytest

from repro.cloud.server import AnalysisServer
from repro.hardware.acquisition import AcquiredTrace
from repro.obs import (
    REQUEST_QUARANTINED,
    WORKER_CRASHED,
    WORKER_RESTARTED,
    EventLog,
    MetricsRegistry,
    Observer,
)
from repro.physics.peaks import PulseTrain, synthesize_pulse_train
from repro.serving import (
    ClinicWorkload,
    FleetConfig,
    FleetScheduler,
    PoisonRequestError,
    WorkerCrash,
)
from repro.serving.scheduler import POISON_THRESHOLD

WORKLOAD = ClinicWorkload(n_tenants=2, requests_per_tenant=2, duration_s=6.0, seed=11)


def make_trace(centers=(5.0, 10.0), duration=20.0):
    events = PulseTrain(center_s=centers, width_s=0.02, amplitudes=[0.01])
    voltages = synthesize_pulse_train(events, 1, 450.0, duration)
    return AcquiredTrace(
        voltages=voltages, sampling_rate_hz=450.0, carrier_frequencies_hz=(500e3,)
    )


class CrashInjector:
    """Minimal fault_injector: crash chosen (tenant, sequence) attempts."""

    def __init__(self, crash_attempts):
        # {(tenant, sequence): n_attempts_that_crash}; -1 = always
        self.crash_attempts = dict(crash_attempts)

    def on_request_start(self, tenant_id, sequence, attempt=0):
        budget = self.crash_attempts.get((tenant_id, sequence), 0)
        if budget < 0 or attempt < budget:
            raise WorkerCrash(f"injected crash {tenant_id}:{sequence}@{attempt}")

    def sensor_fault_model(self, tenant_id, sequence):
        return None


def run_fleet(injector, observer=None, **config_kwargs):
    config_kwargs.setdefault("n_workers", 2)
    config = FleetConfig(
        seed=11,
        queue_capacity=WORKLOAD.n_requests,
        **config_kwargs,
    )
    scheduler = FleetScheduler(
        config,
        observer=observer if observer is not None else Observer(
            metrics=MetricsRegistry(), events=EventLog()
        ),
        fault_injector=injector,
    )
    futures = []
    with scheduler:
        identifiers = WORKLOAD.identifiers(scheduler.device_config)
        for tenant, identifier in identifiers.items():
            scheduler.register_tenant(tenant, identifier)
        for sequence in range(WORKLOAD.requests_per_tenant):
            for tenant_index, tenant in enumerate(WORKLOAD.tenant_ids()):
                futures.append(
                    scheduler.submit(
                        tenant,
                        WORKLOAD.blood_sample(tenant_index, sequence),
                        identifiers[tenant],
                        duration_s=WORKLOAD.duration_s,
                    )
                )
        for future in futures:
            assert future.wait(timeout=120)
    return scheduler, futures


class TestSupervision:
    def test_transient_crash_restarts_worker_and_retries(self):
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        injector = CrashInjector({("clinic-00", 0): 1})  # crash first attempt
        scheduler, futures = run_fleet(injector, observer=observer)
        assert scheduler.completed == WORKLOAD.n_requests
        assert scheduler.failed == 0
        assert scheduler.worker_crashes == 1
        assert scheduler.worker_restarts == 1
        assert scheduler.dead_letters == ()
        for future in futures:
            assert future.exception() is None
        kinds = [e.kind for e in observer.events.events]
        assert WORKER_CRASHED in kinds and WORKER_RESTARTED in kinds

    def test_retried_request_bit_identical_to_unfaulted_run(self):
        baseline, base_futures = run_fleet(CrashInjector({}))
        crashed, crash_futures = run_fleet(CrashInjector({("clinic-01", 0): 1}))
        outcomes = lambda futures: {
            (f.request.tenant_id, f.request.tenant_sequence): (
                f.result().decryption.total_count,
                f.result().diagnosis.label,
                f.result().relay.report.count,
            )
            for f in futures
        }
        assert outcomes(base_futures) == outcomes(crash_futures)

    def test_poison_request_quarantined(self):
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        injector = CrashInjector({("clinic-01", 1): -1})  # crashes forever
        scheduler, futures = run_fleet(injector, observer=observer)
        assert scheduler.completed == WORKLOAD.n_requests - 1
        assert scheduler.failed == 1
        assert len(scheduler.dead_letters) == 1
        poisoned = scheduler.dead_letters[0]
        assert poisoned.request.tenant_id == "clinic-01"
        assert isinstance(poisoned.exception(), PoisonRequestError)
        assert isinstance(poisoned.exception().last_crash, WorkerCrash)
        # Crashed exactly POISON_THRESHOLD times, then quarantined.
        assert scheduler.worker_crashes == POISON_THRESHOLD
        assert REQUEST_QUARANTINED in [e.kind for e in observer.events.events]


class TestServerDedup:
    def test_duplicate_request_id_returns_cached_report(self):
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        server = AnalysisServer(observer=observer)
        first = server.analyze(make_trace(), request_id="req-1")
        second = server.analyze(make_trace(), request_id="req-1")
        assert second is first
        assert server.duplicates_dropped == 1
        assert server.jobs_processed == 1  # detection ran once
        assert observer.metrics.counter("serve.duplicates_dropped").value == 1

    def test_distinct_ids_and_anonymous_requests_not_deduped(self):
        server = AnalysisServer()
        server.analyze(make_trace(), request_id="req-1")
        server.analyze(make_trace(), request_id="req-2")
        server.analyze(make_trace())
        server.analyze(make_trace())
        assert server.duplicates_dropped == 0
        assert server.jobs_processed == 4

    def test_dedup_cache_bounded(self):
        server = AnalysisServer(dedup_capacity=2)
        for i in range(3):
            server.analyze(make_trace(), request_id=f"req-{i}")
        # req-0 evicted: replaying it re-runs detection, no dedup hit.
        server.analyze(make_trace(), request_id="req-0")
        assert server.duplicates_dropped == 0
        server.analyze(make_trace(), request_id="req-2")
        assert server.duplicates_dropped == 1

    def test_invalid_dedup_capacity_rejected(self):
        with pytest.raises(Exception):
            AnalysisServer(dedup_capacity=0)
