"""Failure paths of the lossy cloud link under the retry policy:
drops, timeouts, duplicate delivery, backoff schedule, deadlines, and
breaker-driven load shedding."""

import numpy as np
import pytest

from repro.cloud.network import (
    DELIVERED,
    DUPLICATED,
    NetworkModel,
    TransferDropped,
    TransferTimeout,
    UnreliableNetworkModel,
)
from repro.obs import (
    LOAD_SHED,
    RELAY_RETRIED,
    EventLog,
    ManualClock,
    MetricsRegistry,
    Observer,
)
from repro.serving import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceeded,
    ResilientAnalysisClient,
    RetryBudgetExceeded,
    RetryPolicy,
)


class FakeBackend:
    """Counts analyze calls; returns a sentinel report."""

    detector = None

    def __init__(self):
        self.calls = 0

    def analyze(self, trace):
        self.calls += 1
        return f"report-{self.calls}"

    @property
    def jobs_processed(self):
        return self.calls

    total_processing_time_s = 0.0
    last_processing_time_s = None


class FakeTrace:
    n_channels = 2
    n_samples = 10_000


def make_link(drop=0.0, timeout=0.0, duplicate=0.0, timeout_s=0.5):
    return UnreliableNetworkModel(
        base=NetworkModel(),
        drop_probability=drop,
        timeout_probability=timeout,
        duplicate_probability=duplicate,
        timeout_s=timeout_s,
    )


class TestUnreliableNetworkModel:
    def test_reliable_link_always_delivers(self):
        link = make_link()
        assert link.is_reliable
        attempt = link.attempt(1000, 100, rng=np.random.default_rng(0))
        assert attempt.outcome == DELIVERED
        assert attempt.n_deliveries == 1
        assert attempt.elapsed_s > 0

    def test_certain_drop_raises_quickly(self):
        link = make_link(drop=1.0)
        with pytest.raises(TransferDropped):
            link.attempt(1000, 100, rng=np.random.default_rng(0))

    def test_certain_timeout_charges_the_full_budget(self):
        link = make_link(timeout=1.0, timeout_s=0.75)
        with pytest.raises(TransferTimeout) as exc_info:
            link.attempt(1000, 100, rng=np.random.default_rng(0))
        assert exc_info.value.waited_s == 0.75

    def test_certain_duplicate_delivers_twice(self):
        link = make_link(duplicate=1.0)
        attempt = link.attempt(1000, 100, rng=np.random.default_rng(0))
        assert attempt.outcome == DUPLICATED
        assert attempt.n_deliveries == 2

    def test_probabilities_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            make_link(drop=0.6, timeout=0.5)

    def test_outcomes_are_a_pure_function_of_the_rng(self):
        link = make_link(drop=0.3, timeout=0.2, duplicate=0.2)

        def outcomes(seed):
            rng = np.random.default_rng(seed)
            trail = []
            for _ in range(50):
                try:
                    trail.append(link.attempt(1000, 100, rng=rng).outcome)
                except TransferDropped:
                    trail.append("dropped")
                except TransferTimeout:
                    trail.append("timed_out")
            return trail

        assert outcomes(9) == outcomes(9)
        assert outcomes(9) != outcomes(10)


class TestResilientClient:
    def test_reliable_link_goes_straight_through(self):
        backend = FakeBackend()
        client = ResilientAnalysisClient(backend, link=None)
        assert client.analyze(FakeTrace()) == "report-1"
        assert backend.calls == 1
        assert client.attempts_made == 0  # no lossy attempts needed

    def test_retries_through_drops_until_delivery(self):
        backend = FakeBackend()
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        # drop=0.5: a seeded run has some drops, then a delivery.
        client = ResilientAnalysisClient(
            backend,
            link=make_link(drop=0.5),
            policy=RetryPolicy(max_attempts=10, jitter_fraction=0.0),
            rng=np.random.default_rng(123),
            observer=observer,
        )
        assert client.analyze(FakeTrace()) == "report-1"
        assert backend.calls == 1
        retries = observer.metrics.counter("serve.retries").value
        assert client.attempts_made == retries + 1
        if retries:
            assert RELAY_RETRIED in observer.events.kinds()

    def test_all_attempts_failing_raises_retry_budget(self):
        backend = FakeBackend()
        client = ResilientAnalysisClient(
            backend,
            link=make_link(drop=1.0),
            policy=RetryPolicy(max_attempts=3, jitter_fraction=0.0),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(RetryBudgetExceeded) as exc_info:
            client.analyze(FakeTrace())
        assert backend.calls == 0
        assert client.attempts_made == 3
        assert isinstance(exc_info.value.last_error, TransferDropped)

    def test_virtual_deadline_counts_timeouts_and_backoff(self):
        backend = FakeBackend()
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=10.0, jitter_fraction=0.0,
        )
        client = ResilientAnalysisClient(
            backend,
            link=make_link(timeout=1.0, timeout_s=2.0),
            policy=policy,
            rng=np.random.default_rng(0),
            deadline_s=5.0,
        )
        with pytest.raises(DeadlineExceeded):
            client.analyze(FakeTrace())
        # Attempt 1 burns 2.0 (timeout) + 0.1 backoff = 2.1 < 5;
        # attempt 2 burns 2.0 + 0.2 -> 4.3 < 5; attempt 3 -> 6.3 >= 5,
        # so the 4th attempt is never made.  Machine speed is irrelevant.
        assert client.attempts_made == 3

    def test_duplicate_delivery_hits_the_backend_twice(self):
        backend = FakeBackend()
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        client = ResilientAnalysisClient(
            backend,
            link=make_link(duplicate=1.0),
            rng=np.random.default_rng(0),
            observer=observer,
        )
        report = client.analyze(FakeTrace())
        assert report == "report-1"  # caller sees the first report
        assert backend.calls == 2  # the curious server logged it twice
        assert client.duplicates_seen == 1
        assert observer.metrics.counter("serve.duplicate_deliveries").value == 1

    def test_open_breaker_sheds_without_attempting(self):
        backend = FakeBackend()
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time_s=60.0, clock=clock
        )
        breaker.record_failure()  # trip it
        client = ResilientAnalysisClient(
            backend,
            link=make_link(drop=0.5),
            breaker=breaker,
            rng=np.random.default_rng(0),
            observer=observer,
        )
        with pytest.raises(CircuitOpenError):
            client.analyze(FakeTrace())
        assert client.attempts_made == 0
        assert backend.calls == 0
        assert observer.metrics.counter("serve.sheds").value == 1
        assert LOAD_SHED in observer.events.kinds()

    def test_breaker_recovers_through_a_successful_probe(self):
        backend = FakeBackend()
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time_s=60.0, clock=clock
        )
        breaker.record_failure()
        # A vanishing failure probability keeps the link on the lossy
        # code path (exercising the breaker) without this seed ever
        # drawing a failure.
        client = ResilientAnalysisClient(
            backend,
            link=make_link(drop=1e-12),
            breaker=breaker,
            rng=np.random.default_rng(0),
        )
        clock.advance(60.0)
        assert client.analyze(FakeTrace()) == "report-1"
        from repro.serving import BREAKER_CLOSED

        assert breaker.state == BREAKER_CLOSED

    def test_fleet_run_survives_a_flaky_network(self):
        """End to end: a lossy fleet completes with retries recorded."""
        from repro.serving import ClinicWorkload, FleetConfig, FleetScheduler, run_clinic

        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        config = FleetConfig(
            seed=3,
            n_workers=4,
            queue_capacity=16,
            drop_probability=0.2,
            timeout_probability=0.1,
            duplicate_probability=0.1,
            deadline_s=30.0,
            retry=RetryPolicy(max_attempts=6, jitter_fraction=0.1),
        )
        workload = ClinicWorkload(
            n_tenants=2, requests_per_tenant=3, duration_s=8.0, seed=11
        )
        with FleetScheduler(config, observer=observer) as scheduler:
            report = run_clinic(scheduler, workload)
        assert report.n_completed + report.n_failed == workload.n_requests
        assert report.n_completed >= workload.n_requests - 1
        assert report.retries + report.duplicates > 0
