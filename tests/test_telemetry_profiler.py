"""Profiling from the span tree: folded stacks, and span coverage of a
real instrumented session."""

import pytest

from repro.obs import ManualClock, Observer, folded_from_tracer


def manual_observer():
    clock = ManualClock()
    return Observer(clock=clock), clock


class TestSpanTreeProfile:
    def test_nested_paths_and_self_time(self):
        observer, clock = manual_observer()
        with observer.span("analysis"):
            clock.advance(1.0)
            with observer.span("detrend"):
                clock.advance(2.0)
            with observer.span("threshold"):
                clock.advance(0.5)
        assert folded_from_tracer(observer.tracer) == (
            "analysis 1000000\nanalysis;detrend 2000000\nanalysis;threshold 500000"
        )

    def test_repeat_calls_aggregate(self):
        observer, clock = manual_observer()
        with observer.span("session"):
            for _ in range(3):
                with observer.span("step"):
                    clock.advance(1.0)
        assert folded_from_tracer(observer.tracer) == "session 0\nsession;step 3000000"

    def test_folded_output_deterministic(self):
        observer, clock = manual_observer()
        with observer.span("a"):
            clock.advance(0.001)
            with observer.span("b"):
                clock.advance(0.002)
        assert folded_from_tracer(observer.tracer) == "a 1000\na;b 2000"

    def test_exception_still_recorded(self):
        observer, clock = manual_observer()
        with pytest.raises(RuntimeError):
            with observer.span("boom"):
                clock.advance(1.0)
                raise RuntimeError("x")
        # the stack unwound: a new span is really a root
        with observer.span("next"):
            pass
        assert folded_from_tracer(observer.tracer) == "boom 1000000\nnext 0"


class TestFoldedFromTracer:
    def test_span_tree_to_folded(self):
        clock = ManualClock()
        observer = Observer(clock=clock)
        with observer.span("session"):
            clock.advance(1.0)
            with observer.span("capture"):
                clock.advance(2.0)
        folded = folded_from_tracer(observer.tracer)
        assert folded == "session 1000000\nsession;capture 2000000"


class TestProfilePipeline:
    """The real pipeline, profiled from a 60 s instrumented session."""

    @pytest.fixture(scope="class")
    def profile(self):
        from repro.cli import _run_instrumented_session

        return _run_instrumented_session(seed=7, duration_s=60.0, concentration=400.0)

    def test_all_five_stages_present(self, profile):
        _, observer = profile
        names = {span.name for root in observer.tracer.roots for span in root.walk()}
        assert {"capture", "relay", "cloud_analysis", "decrypt", "authenticate"} <= names

    def test_pipeline_finds_and_authenticates(self, profile):
        result, _ = profile
        assert result.relay.report.count > 0
        assert result.decryption.total_count > 0
        assert result.auth.accepted

    def test_folded_covers_pipeline(self, profile):
        _, observer = profile
        folded = folded_from_tracer(observer.tracer)
        assert "session;relay;encode " in folded
        assert "session;decrypt;signal_decrypt;template_match " in folded

    def test_validation(self):
        from repro._util.errors import ConfigurationError
        from repro.cli import _run_instrumented_session

        with pytest.raises(ConfigurationError):
            _run_instrumented_session(seed=7, duration_s=0.0, concentration=400.0)

    def test_children_cover_their_parent(self, profile):
        """Every span with children spends >= 95% of its wall time in them."""
        _, observer = profile
        for root in observer.tracer.roots:
            for span in root.walk():
                if span.children:
                    covered = sum(child.duration_s for child in span.children)
                    assert covered >= 0.95 * span.duration_s, (
                        span.name, covered, span.duration_s
                    )
