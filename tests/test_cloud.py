"""Cloud side: analysis server, record store, network model."""

import threading

import numpy as np
import pytest

from repro._util.errors import ConfigurationError
from repro.cloud.network import NetworkModel
from repro.cloud.server import AnalysisServer
from repro.cloud.storage import RecordStore
from repro.dsp.peakdetect import PeakReport
from repro.hardware.acquisition import AcquiredTrace
from repro.physics.peaks import PulseEvent, synthesize_pulse_train


def make_trace(centers=(5.0, 10.0), duration=20.0):
    events = [
        PulseEvent(center_s=c, width_s=0.02, amplitudes=np.array([0.01]))
        for c in centers
    ]
    voltages = synthesize_pulse_train(events, 1, 450.0, duration)
    return AcquiredTrace(
        voltages=voltages, sampling_rate_hz=450.0, carrier_frequencies_hz=(500e3,)
    )


class TestAnalysisServer:
    def test_analyze_returns_report(self):
        server = AnalysisServer()
        report = server.analyze(make_trace())
        assert report.count == 2

    def test_processing_time_recorded(self):
        server = AnalysisServer()
        server.analyze(make_trace())
        assert server.total_processing_time_s > 0
        assert server.jobs_processed == 1
        assert server.last_job().processing_time_s > 0

    def test_per_thread_processing_time_visible(self):
        server = AnalysisServer()
        assert server.last_processing_time_s is None
        server.analyze(make_trace())
        assert server.last_processing_time_s > 0
        # Thread-local: a thread that ran no job of its own sees None.
        seen = []
        reader = threading.Thread(
            target=lambda: seen.append(server.last_processing_time_s)
        )
        reader.start()
        reader.join()
        assert seen == [None]

    def test_curious_server_keeps_history(self):
        server = AnalysisServer()
        server.analyze(make_trace())
        server.analyze(make_trace())
        assert len(server.history) == 2

    def test_history_can_be_disabled(self):
        server = AnalysisServer(keep_history=False)
        server.analyze(make_trace())
        assert server.history == ()
        with pytest.raises(LookupError):
            server.last_job()


class TestDedupCache:
    def test_capacity_bounds_cache_and_counts_evictions(self):
        from repro.obs import EventLog, MetricsRegistry, Observer

        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        server = AnalysisServer(dedup_capacity=3, observer=observer)
        for i in range(5):
            server.analyze(make_trace(), request_id=f"req-{i}")
        assert server.dedup_evicted == 2
        assert observer.metrics.counter("dedup.evicted").value == 2
        # The evicted ids re-analyse (no stale cache hit); the retained
        # ones still dedup.
        jobs_before = server.jobs_processed
        server.analyze(make_trace(), request_id="req-4")
        assert server.jobs_processed == jobs_before
        assert server.duplicates_dropped == 1
        server.analyze(make_trace(), request_id="req-0")
        assert server.jobs_processed == jobs_before + 1

    def test_lru_hit_refreshes_against_eviction(self):
        server = AnalysisServer(dedup_capacity=2)
        server.analyze(make_trace(), request_id="hot")
        server.analyze(make_trace(), request_id="cold")
        # A duplicate of the oldest entry refreshes it...
        server.analyze(make_trace(), request_id="hot")
        assert server.duplicates_dropped == 1
        # ...so the next insertion evicts "cold", not "hot".
        server.analyze(make_trace(), request_id="new")
        jobs_before = server.jobs_processed
        server.analyze(make_trace(), request_id="hot")
        assert server.jobs_processed == jobs_before  # still cached
        server.analyze(make_trace(), request_id="cold")
        assert server.jobs_processed == jobs_before + 1  # was evicted
        assert server.dedup_evicted == 2

    def test_bad_capacity_refused(self):
        with pytest.raises(ConfigurationError):
            AnalysisServer(dedup_capacity=0)


class TestRecordStore:
    def report(self):
        return PeakReport((), 1.0, 450.0, 0)

    def test_store_and_fetch(self):
        store = RecordStore()
        store.store("id-a", self.report())
        store.store("id-a", self.report())
        store.store("id-b", self.report(), metadata={"k": "v"})
        assert store.n_identifiers == 2
        assert store.n_records == 3
        assert len(store.fetch("id-a")) == 2
        assert store.fetch("id-b")[0].metadata_dict() == {"k": "v"}

    def test_fetch_latest_order(self):
        store = RecordStore()
        first = store.store("id", self.report())
        second = store.store("id", self.report())
        assert store.fetch_latest("id") is second
        assert first.sequence_number < second.sequence_number

    def test_fetch_unknown_empty(self):
        assert RecordStore().fetch("nothing") == ()

    def test_fetch_latest_unknown_raises(self):
        with pytest.raises(LookupError):
            RecordStore().fetch_latest("nothing")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigurationError):
            RecordStore().store("", self.report())


class TestNetworkModel:
    def test_upload_time_components(self):
        network = NetworkModel(round_trip_latency_s=0.1, uplink_bytes_per_s=1e6)
        estimate = network.upload(2e6)
        assert estimate.latency_s == pytest.approx(0.05)
        assert estimate.transmission_s == pytest.approx(2.0)
        assert estimate.total_s == pytest.approx(2.05)

    def test_download_faster_than_upload(self):
        network = NetworkModel()
        up = network.upload(1e6).total_s
        down = network.download(1e6).total_s
        assert down < up

    def test_round_trip(self):
        network = NetworkModel()
        total = network.round_trip(1e6, 1e3)
        assert total == pytest.approx(
            network.upload(1e6).total_s + network.download(1e3).total_s
        )

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel().upload(-1)

    def test_zero_payload_latency_only(self):
        network = NetworkModel(round_trip_latency_s=0.05)
        assert network.round_trip(0, 0) == pytest.approx(0.05)
