"""The curious analysis server's bounded history: the retention cap,
eviction accounting, and the disabled-history mode."""

import pytest

from repro.cloud.server import AnalysisServer
from repro.obs import EventLog, MetricsRegistry, Observer


@pytest.fixture(scope="module")
def captured_traces():
    """Four distinct encrypted captures straight off the device."""
    from repro.core.device import MedSenDevice
    from repro.particles import BLOOD_CELL
    from repro.particles.sample import Sample

    traces = []
    for seed in (21, 22, 23, 24):
        device = MedSenDevice(rng=seed)
        sample = Sample.from_concentrations({BLOOD_CELL: 500.0}, volume_ul=10)
        capture = device.run_capture(sample, duration_s=8.0, rng=seed)
        traces.append(capture.trace)
    return traces


class TestBoundedHistory:
    def test_history_capped_and_evictions_counted(self, captured_traces):
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        server = AnalysisServer(max_history=3, observer=observer)
        for _ in range(2):
            for trace in captured_traces:  # 8 jobs through a 3-slot log
                server.analyze(trace)
        assert server.jobs_processed == 8
        assert len(server.history) == 3
        assert server.history_dropped == 5
        assert observer.metrics.counter("cloud.history_dropped").value == 5
        # The survivors are the newest jobs, oldest first.
        assert [job.trace is t for job, t in zip(
            server.history, [captured_traces[1], captured_traces[2], captured_traces[3]]
        )] == [True, True, True]

    def test_history_disabled_drops_nothing(self, captured_traces):
        server = AnalysisServer(keep_history=False, max_history=1)
        for trace in captured_traces:
            server.analyze(trace)
        assert server.history == ()
        assert server.history_dropped == 0

    def test_max_history_validated(self):
        from repro._util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            AnalysisServer(max_history=0)
