"""obs.metrics: counters, gauges, histogram percentiles, registry reset."""

import pytest

from repro._util.errors import ConfigurationError
from repro.obs import (
    ExponentialHistogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.obs.render import format_metrics_table


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc()
        registry.counter("jobs").inc(4)
        assert registry.counter("jobs").value == 5

    def test_fractional_increments(self):
        registry = MetricsRegistry()
        registry.counter("beads").inc(2.5)
        assert registry.counter("beads").value == pytest.approx(2.5)

    def test_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("jobs").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("entropy").set(10)
        registry.gauge("entropy").set(3)
        assert registry.gauge("entropy").value == 3


class TestHistogramPercentiles:
    def test_empty_histogram(self):
        hist = MetricsRegistry().histogram("empty")
        assert isinstance(hist, ExponentialHistogram)
        assert hist.percentile(50) == 0.0
        assert hist.summary()["count"] == 0

    def test_rejects_bad_quantile(self):
        with pytest.raises(ConfigurationError):
            ExponentialHistogram("x").percentile(101)


class TestRegistry:
    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ConfigurationError):
            registry.gauge("name")
        with pytest.raises(ConfigurationError):
            registry.histogram("name")

    def test_reset_isolates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("b").observe(1.0)
        registry.reset()
        assert registry.n_metrics == 0
        assert registry.counter("a").value == 0

    def test_default_registry_reset(self):
        get_registry().counter("test.obs.leak").inc()
        reset_registry()
        assert "test.obs.leak" not in get_registry().names()

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2.0}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_render_table_lists_all_metrics(self):
        registry = MetricsRegistry()
        registry.counter("alpha").inc()
        registry.gauge("beta").set(2)
        registry.histogram("gamma").observe(0.5)
        table = format_metrics_table(registry)
        for name in ("alpha", "beta", "gamma"):
            assert name in table
