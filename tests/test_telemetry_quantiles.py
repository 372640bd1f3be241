"""Exponential quantile sketches: accuracy, merging, roll-up, threads."""

import threading

import numpy as np
import pytest

from repro._util.errors import ConfigurationError
from repro.fleet import ShardTelemetry, rollup_telemetry
from repro.obs import ExponentialHistogram, MetricsRegistry


class TestExponentialHistogram:
    def test_empty(self):
        h = ExponentialHistogram("x")
        assert h.summary() == {
            "count": 0, "mean": 0.0, "min": 0.0, "p50": 0.0,
            "p95": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_quantile_error_bounded_by_growth(self):
        h = ExponentialHistogram("x", growth=1.15)
        values = np.linspace(0.001, 10.0, 5000)
        for v in values:
            h.observe(float(v))
        for q in (10, 50, 90, 95, 99):
            exact = float(np.percentile(values, q))
            estimate = h.percentile(q)
            assert abs(estimate - exact) / exact <= 0.16, (q, exact, estimate)

    def test_exact_count_sum_min_max(self):
        h = ExponentialHistogram("x")
        for v in (0.5, 1.5, 2.5):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(4.5)
        s = h.summary()
        assert (s["min"], s["max"]) == (0.5, 2.5)

    def test_zero_and_tiny_values(self):
        h = ExponentialHistogram("x")
        h.observe(0.0)
        h.observe(0.0)
        h.observe(1.0)
        assert h.count == 3
        assert h.percentile(50.0) == 0.0

    def test_negative_refused(self):
        with pytest.raises(ConfigurationError):
            ExponentialHistogram("x").observe(-1.0)

    def test_bad_geometry_refused(self):
        with pytest.raises(ConfigurationError):
            ExponentialHistogram("x", growth=1.0)
        with pytest.raises(ConfigurationError):
            ExponentialHistogram("x", min_value=0.0)

    def test_merge_equals_combined_stream(self):
        a, b, combined = (ExponentialHistogram("x") for _ in range(3))
        rng = np.random.default_rng(7)
        xs, ys = rng.exponential(1.0, 500), rng.exponential(3.0, 500)
        for v in xs:
            a.observe(v)
            combined.observe(v)
        for v in ys:
            b.observe(v)
            combined.observe(v)
        a.merge_from(b)
        # bucket counts are exact; sums may differ in the last ulp from
        # addition order, so compare numerically
        assert a.summary() == pytest.approx(combined.summary())

    def test_merge_geometry_mismatch_refused(self):
        with pytest.raises(ConfigurationError):
            ExponentialHistogram("x").merge_from(
                ExponentialHistogram("y", growth=2.0)
            )

    def test_concurrent_observe_no_lost_or_torn_updates(self):
        """Hammer one sketch from many threads; totals must be exact and
        every mid-flight snapshot internally consistent."""
        h = ExponentialHistogram("x")
        n_threads, per_thread = 8, 2000
        torn = []
        stop = threading.Event()

        def writer():
            for i in range(per_thread):
                h.observe(0.001 + (i % 100) * 0.01)

        def reader():
            while not stop.is_set():
                s = h.summary()
                if s["count"] > 0 and not (s["min"] <= s["p50"] <= s["max"]):
                    torn.append(s)
                if s["count"] > 0 and not (
                    s["min"] <= s["mean"] <= s["max"] + 1e-12
                ):
                    torn.append(s)

        threads = [threading.Thread(target=writer) for _ in range(n_threads)]
        snap = threading.Thread(target=reader)
        snap.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        snap.join()
        assert h.count == n_threads * per_thread
        assert torn == []


class TestRegistryRollup:
    def test_rollup_is_true_cross_worker_quantile(self):
        workers = [MetricsRegistry() for _ in range(3)]
        # worker 0 is slow, workers 1-2 fast: the fleet p99 must see
        # worker 0's tail even though it is a minority of traffic.
        for _ in range(10):
            workers[0].histogram("e2e").observe(9.0)
        for w in workers[1:]:
            for _ in range(200):
                w.histogram("e2e").observe(0.1)
        fleet = rollup_telemetry(
            [ShardTelemetry.from_registry(f"shard-{i:02d}", w) for i, w in enumerate(workers)]
        )
        s = fleet.histogram("e2e").summary()
        assert s["count"] == 410
        assert s["p99"] > 5.0  # tail survives the roll-up

    def test_empty_refused(self):
        with pytest.raises(ConfigurationError):
            rollup_telemetry([])

    def test_snapshot_names(self):
        r = MetricsRegistry()
        r.histogram("b").observe(1.0)
        r.histogram("a").observe(2.0)
        assert list(r.names()) == ["a", "b"]
        assert set(r.snapshot()["histograms"]) == {"a", "b"}
