"""Fleet scheduler: determinism under concurrency, backpressure, events."""

import sys
import threading

import pytest

from repro._util.errors import MedSenError
from repro.obs import (
    REQUEST_COMPLETED,
    REQUEST_QUEUED,
    REQUEST_REJECTED,
    EventLog,
    MetricsRegistry,
    Observer,
)
from repro.serving import (
    ClinicWorkload,
    FleetConfig,
    FleetScheduler,
    QueueFull,
    derive_request_rng,
    run_clinic,
)
from repro.serving.request import RequestState, SessionFuture, SessionRequest

WORKLOAD = ClinicWorkload(n_tenants=2, requests_per_tenant=2, duration_s=8.0, seed=11)


def fleet_outcomes(n_workers, seed=11):
    """Run the shared workload; outcomes keyed by (tenant, sequence)."""
    config = FleetConfig(
        seed=seed,
        n_workers=n_workers,
        queue_capacity=WORKLOAD.n_requests,
    )
    outcomes = {}
    with FleetScheduler(config) as scheduler:
        identifiers = WORKLOAD.identifiers(scheduler.device_config)
        for tenant, identifier in identifiers.items():
            scheduler.register_tenant(tenant, identifier)
        futures = []
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
            result = future.result(timeout=120)
            request = future.request
            outcomes[(request.tenant_id, request.tenant_sequence)] = (
                result.diagnosis.label,
                result.diagnosis.concentration_per_ul,
                result.auth.accepted,
                result.auth.user_id,
                result.record_key,
                result.relay.report.count,
                result.decryption.total_count,
                result.marker_count,
            )
    return outcomes


class TestDeterminism:
    def test_eight_workers_bit_identical_to_serial(self):
        """The determinism guard: worker interleaving must not leak into
        any session outcome."""
        serial = fleet_outcomes(n_workers=1)
        pooled = fleet_outcomes(n_workers=8)
        assert serial == pooled

    def test_request_rng_depends_on_all_inputs(self):
        base = derive_request_rng(1, "alice", 0).integers(0, 2**32, 4)
        assert (derive_request_rng(1, "alice", 0).integers(0, 2**32, 4) == base).all()
        for other in (
            derive_request_rng(2, "alice", 0),
            derive_request_rng(1, "bob", 0),
            derive_request_rng(1, "alice", 1),
        ):
            assert not (other.integers(0, 2**32, 4) == base).all()


class TestBackpressure:
    def test_nonblocking_submit_sheds_when_full(self):
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        config = FleetConfig(seed=3, n_workers=1, queue_capacity=2)
        with FleetScheduler(config, observer=observer) as scheduler:
            identifiers = WORKLOAD.identifiers(scheduler.device_config)
            tenant = WORKLOAD.tenant_ids()[0]
            scheduler.register_tenant(tenant, identifiers[tenant])
            blood = WORKLOAD.blood_sample(0, 0)
            futures, rejected = [], 0
            # Flood far past capacity; the worker can drain at most a
            # couple before the burst lands.
            for _ in range(12):
                try:
                    futures.append(
                        scheduler.submit(
                            tenant, blood, identifiers[tenant], duration_s=8.0
                        )
                    )
                except QueueFull:
                    rejected += 1
            for future in futures:
                future.wait(timeout=120)
        assert rejected >= 1
        assert scheduler.rejected == rejected
        assert scheduler.completed == len(futures)
        assert observer.metrics.counter("serve.rejected").value == rejected
        assert REQUEST_REJECTED in observer.events.kinds()

    def test_rejected_submission_does_not_consume_a_sequence(self):
        config = FleetConfig(seed=3, n_workers=1, queue_capacity=1)
        with FleetScheduler(config) as scheduler:
            identifiers = WORKLOAD.identifiers(scheduler.device_config)
            tenant = WORKLOAD.tenant_ids()[0]
            scheduler.register_tenant(tenant, identifiers[tenant])
            blood = WORKLOAD.blood_sample(0, 0)
            accepted = []
            for _ in range(12):
                try:
                    accepted.append(
                        scheduler.submit(
                            tenant, blood, identifiers[tenant], duration_s=8.0
                        )
                    )
                except QueueFull:
                    pass
            for future in accepted:
                future.wait(timeout=120)
        sequences = [f.request.tenant_sequence for f in accepted]
        assert sequences == list(range(len(accepted)))

    def test_blocking_submit_accepts_everything(self):
        config = FleetConfig(seed=3, n_workers=2, queue_capacity=1)
        workload = ClinicWorkload(
            n_tenants=2, requests_per_tenant=2, duration_s=8.0, seed=11
        )
        with FleetScheduler(config) as scheduler:
            report = run_clinic(scheduler, workload, block_on_backpressure=True)
        assert report.n_rejected == 0
        assert report.n_completed == workload.n_requests


class TestLifecycleAndEvents:
    def test_submit_before_start_raises(self):
        scheduler = FleetScheduler(FleetConfig(seed=1, n_workers=1))
        identifiers = WORKLOAD.identifiers(scheduler.device_config)
        tenant = WORKLOAD.tenant_ids()[0]
        with pytest.raises(MedSenError):
            scheduler.submit(
                tenant, WORKLOAD.blood_sample(0, 0), identifiers[tenant]
            )

    def test_events_and_metrics_cover_the_run(self):
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        config = FleetConfig(seed=11, n_workers=2, queue_capacity=8)
        with FleetScheduler(config, observer=observer) as scheduler:
            report = run_clinic(scheduler, WORKLOAD)
        assert report.n_completed == WORKLOAD.n_requests
        kinds = observer.events.kinds()
        assert kinds.count(REQUEST_QUEUED) == WORKLOAD.n_requests
        assert kinds.count(REQUEST_COMPLETED) == WORKLOAD.n_requests
        metrics = observer.metrics
        assert metrics.counter("serve.submitted").value == WORKLOAD.n_requests
        assert metrics.counter("serve.completed").value == WORKLOAD.n_requests
        histogram = metrics.histogram("serve.e2e_s")
        assert histogram.count == WORKLOAD.n_requests
        assert metrics.gauge("serve.queue_depth").value == 0

    def test_shared_record_store_collects_every_session(self):
        config = FleetConfig(seed=11, n_workers=4, queue_capacity=8)
        with FleetScheduler(config) as scheduler:
            report = run_clinic(scheduler, WORKLOAD)
        assert report.n_completed == WORKLOAD.n_requests
        assert scheduler.store.n_records == WORKLOAD.n_requests
        # Records key on the *recovered* identifier, which can quantise
        # differently between a tenant's visits — so at least one key
        # per tenant, at most one per session.
        assert (
            WORKLOAD.n_tenants
            <= scheduler.store.n_identifiers
            <= WORKLOAD.n_requests
        )


class TestGuardedFleet:
    """Freshness + lockout threaded through the whole serving stack."""

    def run_guarded(self, duplicate_probability=0.0, seed=11):
        from repro.guard.lockout import LockoutPolicy

        workload = ClinicWorkload(
            n_tenants=2, requests_per_tenant=2, duration_s=8.0, seed=seed
        )
        config = FleetConfig(
            seed=seed,
            n_workers=2,
            queue_capacity=workload.n_requests,
            duplicate_probability=duplicate_probability,
            freshness_secret=b"fleet-freshness-secret",
            auth_lockout=LockoutPolicy(max_failures=3, base_lockout_s=10.0),
        )
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        with FleetScheduler(config, observer=observer) as scheduler:
            report = run_clinic(scheduler, workload)
        return report, observer

    def test_honest_fleet_unaffected_by_guard(self):
        report, observer = self.run_guarded()
        assert report.n_failed == 0
        assert report.n_completed == 4
        assert observer.metrics.counter("guard.replay_detected").value == 0
        assert observer.metrics.counter("auth.lockout_refusals").value == 0

    def test_duplicate_deliveries_refused_not_failed(self):
        # Radio duplicates hit the nonce registry (ReplayError) but the
        # honest session still completes with its first report.
        report, observer = self.run_guarded(duplicate_probability=0.6)
        assert report.n_failed == 0
        assert report.n_completed == 4
        duplicates = observer.metrics.counter("serve.duplicate_deliveries").value
        refused = observer.metrics.counter("serve.duplicates_refused").value
        assert duplicates >= 1
        assert refused == duplicates

    def test_guarded_fleet_matches_unguarded_outputs(self):
        # The guard must not perturb any replayable stream: session
        # outcomes are bit-identical with and without it (token nonces
        # come from os.urandom, never from a request's rng).
        from repro.guard.lockout import LockoutPolicy

        config = FleetConfig(
            seed=11,
            n_workers=2,
            queue_capacity=WORKLOAD.n_requests,
            freshness_secret=b"fleet-freshness-secret",
            auth_lockout=LockoutPolicy(max_failures=3, base_lockout_s=10.0),
        )
        outcomes = {}
        with FleetScheduler(config) as scheduler:
            identifiers = WORKLOAD.identifiers(scheduler.device_config)
            for tenant, identifier in identifiers.items():
                scheduler.register_tenant(tenant, identifier)
            futures = []
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
                result = future.result(timeout=120)
                request = future.request
                outcomes[(request.tenant_id, request.tenant_sequence)] = (
                    result.diagnosis.label,
                    result.diagnosis.concentration_per_ul,
                )
        baseline = fleet_outcomes(n_workers=2)
        assert outcomes == {key: value[:2] for key, value in baseline.items()}


class Gate:
    """fault_injector that holds every session until ``opened`` is set."""

    def __init__(self):
        self.opened = threading.Event()

    def on_request_start(self, tenant_id, sequence, attempt=0):
        self.opened.wait(timeout=60)

    def sensor_fault_model(self, tenant_id, sequence):
        return None


class TestDoneCallback:
    def future(self):
        return SessionFuture(request=SessionRequest("clinic-00", None, None))

    def finish_on_worker(self, finish):
        worker = threading.Thread(target=finish)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    @pytest.mark.parametrize(
        "finish, state",
        [
            (lambda f: f._resolve("result"), RequestState.COMPLETED),
            (lambda f: f._fail(RuntimeError("boom")), RequestState.FAILED),
            (
                lambda f: f._fail(QueueFull("full"), rejected=True),
                RequestState.REJECTED,
            ),
        ],
        ids=["resolve", "fail", "rejected"],
    )
    def test_runs_once_when_the_future_finishes(self, finish, state):
        future = self.future()
        seen = []
        future.add_done_callback(lambda f: seen.append((f, f.done(), f.state)))
        assert seen == []
        self.finish_on_worker(lambda: finish(future))
        assert seen == [(future, True, state)]

    def test_added_after_completion_runs_at_once_and_once(self):
        future = self.future()
        future._resolve("result")
        seen = []
        future.add_done_callback(seen.append)
        assert seen == [future]

    def test_raising_callback_is_contained(self, caplog):
        future = self.future()
        seen = []

        def explode(f):
            raise RuntimeError("observer bug")

        future.add_done_callback(explode)
        future.add_done_callback(seen.append)
        future._resolve("result")  # the resolving thread never sees it
        assert seen == [future]
        future.add_done_callback(explode)  # nor does a late registrant
        logged = [record.exc_info[1] for record in caplog.records]
        assert [str(error) for error in logged] == ["observer bug"] * 2

    def test_racing_registration_runs_every_callback_once(self):
        # Registration races resolution on another thread; a lost or
        # doubled callback would show in the counts.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            futures = [self.future() for _ in range(400)]
            counts = [0] * len(futures)

            def resolve_all():
                for future in futures:
                    future._resolve("result")

            def register_all():
                for index, future in enumerate(futures):
                    future.add_done_callback(
                        lambda f, index=index: counts.__setitem__(
                            index, counts[index] + 1
                        )
                    )

            threads = [
                threading.Thread(target=resolve_all),
                threading.Thread(target=register_all),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert counts == [1] * len(futures)

    def test_scheduler_survives_a_raising_callback(self):
        gate = Gate()
        config = FleetConfig(seed=11, n_workers=1, queue_capacity=4)
        with FleetScheduler(config, fault_injector=gate) as scheduler:
            identifiers = WORKLOAD.identifiers(scheduler.device_config)
            tenant = WORKLOAD.tenant_ids()[0]
            scheduler.register_tenant(tenant, identifiers[tenant])
            submit = lambda sequence: scheduler.submit(  # noqa: E731
                tenant,
                WORKLOAD.blood_sample(0, sequence),
                identifiers[tenant],
                duration_s=8.0,
            )
            first = submit(0)
            calls = []

            def explode(future):
                calls.append(future)
                raise RuntimeError("observer bug")

            # The gate holds the session, so the callback runs on the
            # scheduler's only worker.
            first.add_done_callback(explode)
            gate.opened.set()
            second = submit(1)
            first.result(timeout=120)
            second.result(timeout=120)
        assert calls == [first]
        assert scheduler.completed == 2

