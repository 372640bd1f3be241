"""obs.tracing: spans, nesting, fake-clock timing, Chrome export."""

import json

import pytest

from repro.obs import ManualClock, NullObserver, Observer, Tracer
from repro.obs.render import format_span_tree
from repro.obs.tracing import MAX_ROOTS


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestSpanTiming:
    def test_duration_from_fake_clock(self, tracer, clock):
        with tracer.span("work") as span:
            clock.advance(0.25)
        assert span.duration_s == pytest.approx(0.25)
        assert span.finished

    def test_open_span_reports_elapsed_so_far(self, tracer, clock):
        with tracer.span("work") as span:
            clock.advance(0.1)
            assert span.duration_s == pytest.approx(0.1)
            clock.advance(0.1)
        assert span.duration_s == pytest.approx(0.2)

    def test_manual_clock_rejects_reverse(self, clock):
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestNesting:
    def test_children_attach_to_enclosing_span(self, tracer, clock):
        with tracer.span("parent"):
            clock.advance(0.1)
            with tracer.span("child_a"):
                clock.advance(0.2)
            with tracer.span("child_b"):
                clock.advance(0.3)
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert root.duration_s == pytest.approx(0.6)
        assert root.children[1].duration_s == pytest.approx(0.3)

    def test_sibling_roots(self, tracer):
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        assert [r.name for r in tracer.roots] == ["one", "two"]

    def test_current_tracks_stack(self, tracer):
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_exception_unwinds_and_tags(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("bad")
        (root,) = tracer.roots
        assert root.finished
        assert root.attributes["error"] == "RuntimeError"
        assert tracer.current is None

    def test_walk_is_depth_first(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        names = [s.name for s in tracer.roots[0].walk()]
        assert names == ["a", "b", "c", "d"]

    def test_reset_clears(self, tracer):
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.roots == []

    def test_retained_roots_are_bounded_oldest_first(self, tracer):
        for index in range(MAX_ROOTS + 6):
            with tracer.span(f"request-{index}"):
                with tracer.span("child"):
                    pass
        assert MAX_ROOTS == 1024
        assert len(tracer.roots) == MAX_ROOTS
        assert tracer.roots[0].name == "request-6"
        assert tracer.roots[-1].name == f"request-{MAX_ROOTS + 5}"
        tracer.reset()
        assert tracer.roots == []


class TestDecorator:
    def test_trace_decorator_times_calls(self, tracer, clock):
        @tracer.trace("step", kind="unit")
        def step():
            clock.advance(1.5)
            return 7

        assert step() == 7
        (root,) = tracer.roots
        assert root.name == "step"
        assert root.duration_s == pytest.approx(1.5)
        assert root.attributes["kind"] == "unit"


class TestChromeExport:
    def test_chrome_trace_round_trips_through_json(self, tracer, clock, tmp_path):
        with tracer.span("session", seed=7):
            clock.advance(0.5)
            with tracer.span("capture"):
                clock.advance(0.25)
        path = tracer.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path) as handle:
            loaded = json.load(handle)
        events = loaded["traceEvents"]
        assert [e["name"] for e in events] == ["session", "capture"]
        session, capture = events
        assert session["ph"] == "X"
        assert session["dur"] == pytest.approx(0.75e6)
        assert capture["dur"] == pytest.approx(0.25e6)
        assert session["args"]["seed"] == 7

    def test_to_dicts_nested(self, tracer, clock):
        with tracer.span("outer"):
            with tracer.span("inner"):
                clock.advance(1.0)
        (tree,) = tracer.to_dicts()
        assert tree["name"] == "outer"
        assert tree["children"][0]["name"] == "inner"
        assert tree["children"][0]["duration_s"] == pytest.approx(1.0)


class TestRendering:
    def test_format_span_tree_shows_hierarchy(self, tracer, clock):
        with tracer.span("session"):
            with tracer.span("capture"):
                clock.advance(0.25)
        rendered = format_span_tree(tracer)
        assert "session" in rendered
        assert "└─ capture" in rendered
        assert "250.000 ms" in rendered


class TestNullObserverSpans:
    def test_null_span_still_measures(self):
        clock = ManualClock()
        null = NullObserver(clock=clock)
        with null.span("anything", ignored=1) as span:
            clock.advance(0.125)
        assert span.duration_s == pytest.approx(0.125)

    def test_null_observer_records_nothing(self):
        null = NullObserver()
        null.event("capture.started", x=1)
        null.incr("count")
        null.gauge("g", 2.0)
        null.observe("h", 3.0)
        assert not null.enabled

    def test_live_observer_is_enabled(self):
        obs = Observer(clock=ManualClock())
        assert obs.enabled
