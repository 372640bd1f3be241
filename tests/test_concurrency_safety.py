"""Thread-safety stress tests for the components a serving fleet
shares: the record store, the metrics registry, the event log, the
per-thread tracer, and the freshness guard."""

import sys
import threading

import pytest

from repro.cloud.storage import RecordStore
from repro._util.errors import ReplayError
from repro.dsp.peakdetect import PeakReport
from repro.guard.freshness import FreshnessGuard, mint_token
from repro.obs import EventLog, MetricsRegistry, Observer, Tracer

N_THREADS = 8
N_OPS = 200


REPORT = PeakReport((), 1.0, 10_000.0, 0)


def hammer(worker, n_threads=N_THREADS):
    """Run ``worker(thread_index)`` concurrently; re-raise any failure."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as error:  # pragma: no cover - only on bug
            errors.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    if errors:
        raise errors[0]


class TestRecordStoreConcurrency:
    def test_interleaved_stores_and_fetches_lose_nothing(self):
        store = RecordStore()

        def worker(index):
            key = f"tenant-{index % 4}"
            for op in range(N_OPS):
                store.store(key, REPORT, metadata={"thread": str(index), "op": str(op)})
                records = store.fetch(key)
                assert records  # our own write is visible
                store.fetch_latest(key)

        hammer(worker)
        assert store.n_records == N_THREADS * N_OPS
        assert store.n_identifiers == 4

    def test_concurrent_deletes_and_stores_stay_consistent(self):
        store = RecordStore()
        for i in range(4):
            store.store(f"key-{i}", REPORT)

        def worker(index):
            key = f"key-{index % 4}"
            for op in range(50):
                store.store(key, REPORT, metadata={"thread": str(index), "op": str(op)})
                if op % 10 == 9:
                    store.delete_identifier(key)

        hammer(worker)
        # No torn state: counts are internally consistent.
        total = sum(len(store.fetch(f"key-{i}")) for i in range(4))
        assert total == store.n_records


class TestMetricsRegistryConcurrency:
    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()

        def worker(index):
            for _ in range(N_OPS):
                registry.counter("shared").inc()
                registry.counter(f"own-{index}").inc(2.0)

        hammer(worker)
        assert registry.counter("shared").value == N_THREADS * N_OPS
        for index in range(N_THREADS):
            assert registry.counter(f"own-{index}").value == 2.0 * N_OPS

    def test_gauge_add_is_atomic(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")

        def worker(index):
            for _ in range(N_OPS):
                gauge.add(1.0)
                gauge.add(-1.0)

        hammer(worker)
        assert gauge.value == 0.0

    def test_histogram_observations_all_land(self):
        registry = MetricsRegistry()

        def worker(index):
            for op in range(N_OPS):
                registry.histogram("latency").observe(float(op))

        hammer(worker)
        histogram = registry.histogram("latency")
        assert histogram.count == N_THREADS * N_OPS
        assert histogram.percentile(100) == float(N_OPS - 1)

    def test_mixed_instrument_creation_is_safe(self):
        registry = MetricsRegistry()

        def worker(index):
            for op in range(N_OPS):
                registry.counter(f"c{op % 10}").inc()
                registry.gauge(f"g{op % 10}").set(op)
                registry.histogram(f"h{op % 10}").observe(op)

        hammer(worker)
        assert registry.counter("c0").value == N_THREADS * (N_OPS // 10)


class TestEventLogConcurrency:
    def test_sequence_numbers_are_unique_and_dense(self):
        log = EventLog(ring_capacity=N_THREADS * N_OPS)

        def worker(index):
            for op in range(N_OPS):
                log.emit("serve.request_queued", thread=index, op=op)

        hammer(worker)
        sequences = [event.sequence for event in log.events]
        assert len(sequences) == N_THREADS * N_OPS
        assert sorted(sequences) == list(range(1, N_THREADS * N_OPS + 1))


class TestTracerConcurrency:
    def test_each_thread_builds_its_own_span_tree(self):
        tracer = Tracer()

        def worker(index):
            for op in range(20):
                with tracer.span(f"outer-{index}"):
                    with tracer.span("inner"):
                        pass

        hammer(worker, n_threads=4)
        roots = tracer.roots
        assert len(roots) == 4 * 20
        for root in roots:
            assert len(root.children) == 1
            assert root.children[0].name == "inner"

    def test_observer_facade_is_usable_from_many_threads(self):
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())

        def worker(index):
            for op in range(50):
                with observer.span("work", thread=index):
                    observer.incr("ops")
                    observer.observe("op_size", float(op))

        hammer(worker)
        assert observer.metrics.counter("ops").value == N_THREADS * 50
        assert observer.metrics.histogram("op_size").count == N_THREADS * 50


class TestFreshnessGuardConcurrency:
    def test_one_token_admitted_once_across_threads(self):
        guard = FreshnessGuard(b"concurrency-secret")
        token = mint_token(b"concurrency-secret", 0)
        barrier = threading.Barrier(N_THREADS)
        outcomes = []

        def worker(index):
            barrier.wait()
            try:
                guard.admit(token)
                outcomes.append("admitted")
            except ReplayError:
                outcomes.append("replay")

        hammer(worker)
        assert sorted(outcomes) == ["admitted"] + ["replay"] * (N_THREADS - 1)
        assert guard.admitted == 1

    def test_rollover_prune_races_admission(self):
        # The window keeps every nonce, so each rollover walks the whole
        # registry while the other threads insert into it.
        guard = FreshnessGuard(b"concurrency-secret", epoch_window=1 << 20)
        tokens = [mint_token(b"concurrency-secret", 0) for _ in range(8000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def worker(index):
            if index == 0:
                for _ in range(2000):
                    guard.advance_epoch()
            else:
                for token in tokens[index - 1 :: N_THREADS - 1]:
                    guard.admit(token)

        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert guard.key_epoch == 2000
        assert guard.admitted == guard.n_seen == len(tokens)
