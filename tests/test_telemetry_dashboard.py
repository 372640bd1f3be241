"""Telemetry observer and the ``repro top`` frame (golden-filed)."""

from repro.fleet import ShardTelemetry, rollup_telemetry
from repro.obs import EventLog, ManualClock, MetricsRegistry, NULL_OBSERVER
from repro.telemetry import TelemetryObserver, render_dashboard, render_observer

GOLDEN_FRAME = """\
== fleet telemetry @ t=60.0s ==========================================
== SLOs (burn = error-rate / budget) ==================================
availability     ok      slo=99.00% met=95.00% burn   5.0/  5.0 (19/20)
ingest_latency   ok      slo=95.00% met=95.00% burn   1.0/  1.0 (19/20)
auth_acceptance  no_data slo=90.00% met=100.00% burn   0.0/  0.0 (0/0)
== counters & gauges ==================================================
auth.accepted                                           0
auth.rejected                                           0
serve.completed                                        19
serve.submitted                                        20
== latency quantiles (exp-bucket sketch) ==============================
histogram                   count      p50      p95      p99      max
serve.e2e_s                    20   0.5502   0.5502   4.0000   4.0000
== end ================================================================"""


def scripted_observer():
    """A fixed observation stream under a manual clock."""
    clock = ManualClock()
    observer = TelemetryObserver(
        metrics=MetricsRegistry(), events=EventLog(), clock=clock
    )
    observer.tick()
    for i in range(20):
        observer.incr("serve.submitted")
        if i != 7:
            observer.incr("serve.completed")
        observer.observe("serve.e2e_s", 4.0 if i == 13 else 0.5)
    clock.advance(60.0)
    observer.tick()
    return observer, clock


class TestGoldenFrame:
    def test_dashboard_renders_exactly(self):
        observer, _ = scripted_observer()
        assert render_observer(observer) == GOLDEN_FRAME

    def test_rendering_is_pure(self):
        observer, _ = scripted_observer()
        assert render_observer(observer) == render_observer(observer)

    def test_explicit_now_overrides_clock(self):
        observer, _ = scripted_observer()
        frame = render_observer(observer, now_s=120.0)
        assert "t=120.0s" in frame


class TestTelemetryObserver:
    def test_observe_feeds_all_three_sinks(self):
        observer, _ = scripted_observer()
        # the registry's one histogram: count and the 4 s tail
        histogram = observer.metrics.histogram("serve.e2e_s")
        assert histogram.count == 20
        assert histogram.percentile(100) == 4.0
        # SLO latency tallies
        good, total = observer.engine._latency_counts["ingest_latency"]
        assert (good, total) == (19.0, 20.0)

    def test_is_a_drop_in_observer(self):
        observer, _ = scripted_observer()
        # components only ever call these five methods
        with observer.span("x", service="test"):
            pass
        observer.event("capture.started", run=1)
        observer.gauge("g", 2.0)
        assert observer.enabled
        assert observer is not NULL_OBSERVER

    def test_rollup_across_workers(self):
        shards = []
        for w in range(3):
            obs = TelemetryObserver(
                metrics=MetricsRegistry(), events=EventLog(), clock=ManualClock()
            )
            obs.incr("serve.completed")
            obs.gauge("serve.queue_depth", float(w))
            obs.observe("serve.e2e_s", 0.1 * (w + 1))
            shards.append(ShardTelemetry.from_registry(f"shard-{w:02d}", obs.metrics))
        fleet = rollup_telemetry(shards)
        assert fleet.counter("serve.completed").value == 3
        assert fleet.histogram("serve.e2e_s").count == 3
        # gauges are point-in-time readings: namespaced, never summed
        assert fleet.gauge("serve.queue_depth[shard-02]").value == 2.0
        assert "serve.queue_depth" not in fleet.names()


class TestRenderEdgeCases:
    def test_empty_registry_renders(self):
        frame = render_dashboard(MetricsRegistry(), None, 0.0)
        assert frame.startswith("== fleet telemetry @ t=0.0s")
        assert frame.endswith("== end ================================================================")

    def test_row_cap(self):
        metrics = MetricsRegistry()
        for i in range(40):
            metrics.counter(f"c{i:02d}").inc()
        frame = render_dashboard(metrics, None, 0.0, max_rows=10)
        assert "... 30 more" in frame
