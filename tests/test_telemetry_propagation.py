"""Cross-process trace stitching, concurrency safety, and the
no-perturbation guarantee (telemetry must not move pipeline numbers)."""

import threading

import numpy as np
import pytest

from repro import CytoIdentifier, MedSenSession, Sample
from repro.obs import EventLog, MetricsRegistry, NULL_OBSERVER, Observer
from repro.particles import BLOOD_CELL
from repro.serving import ClinicWorkload, FleetConfig, FleetScheduler, run_clinic
from repro.telemetry import TelemetryObserver


def run_fleet(observer, n_tenants=2, requests=2):
    config = FleetConfig(
        seed=2016,
        n_workers=2,
        queue_capacity=max(8, n_tenants * requests),
    )
    workload = ClinicWorkload(
        n_tenants=n_tenants,
        requests_per_tenant=requests,
        duration_s=8.0,
        seed=2016,
    )
    with FleetScheduler(config, observer=observer) as scheduler:
        report = run_clinic(scheduler, workload)
    return report


@pytest.fixture(scope="module")
def fleet_spans():
    """All spans from one instrumented fleet run, as a flat list."""
    observer = Observer()
    report = run_fleet(observer)
    assert report.n_completed == 4
    spans = [s for root in observer.tracer.roots for s in root.walk()]
    return spans


class TestTraceStitching:
    def test_every_span_carries_trace_identity(self, fleet_spans):
        for span in fleet_spans:
            assert span.trace_id is not None, span.name
            assert span.span_id is not None, span.name

    def test_one_trace_spans_multiple_services(self, fleet_spans):
        """The acceptance criterion: device -> relay -> cloud spans of a
        single request stitch into ONE trace across process lanes."""
        services_by_trace = {}
        for span in fleet_spans:
            service = span.attributes.get("service")
            if isinstance(service, str):
                services_by_trace.setdefault(span.trace_id, set()).add(service)
        stitched = [s for s in services_by_trace.values() if len(s) >= 2]
        assert len(stitched) == 4  # one per completed request
        for services in stitched:
            assert {"scheduler", "phone"} <= services

    def test_parent_links_resolve(self, fleet_spans):
        """Every parent pointer lands on a recorded span in the same
        trace — except fleet_request roots, whose parent is the
        synthetic wire-derived context (by design)."""
        by_id = {s.span_id: s for s in fleet_spans}
        for span in fleet_spans:
            if span.parent_span_id is None:
                continue
            parent = by_id.get(span.parent_span_id)
            if parent is None:
                assert span.name == "fleet_request", (
                    f"{span.name}: dangling parent {span.parent_span_id}"
                )
                continue
            assert parent.trace_id == span.trace_id, span.name

    def test_remote_parents_keep_the_trace(self, fleet_spans):
        remote = [s for s in fleet_spans if s.remote_parent is not None]
        assert remote, "cross-process hops must record remote parents"
        for span in remote:
            assert span.trace_id == span.remote_parent.trace_id

    def test_requests_get_distinct_traces(self, fleet_spans):
        roots = [s for s in fleet_spans if s.name == "fleet_request"]
        assert len(roots) == 4
        assert len({s.trace_id for s in roots}) == 4


class TestConcurrentTelemetry:
    def test_no_torn_reads_under_fleet_load(self):
        """Snapshot the metrics registry continuously while scheduler
        workers record into it from multiple threads."""
        observer = TelemetryObserver(
            metrics=MetricsRegistry(), events=EventLog()
        )
        torn = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                snapshot = observer.metrics.snapshot()
                for name, summary in snapshot["histograms"].items():
                    if summary["count"] == 0:
                        continue
                    if not (summary["min"] <= summary["p50"] <= summary["max"]):
                        torn.append((name, summary))
                    if not (
                        summary["min"]
                        <= summary["mean"]
                        <= summary["max"] + 1e-12
                    ):
                        torn.append((name, summary))
                for name, value in snapshot["counters"].items():
                    if value < 0:
                        torn.append(("counter", name, value))

        snap = threading.Thread(target=reader)
        snap.start()
        try:
            report = run_fleet(observer)
        finally:
            stop.set()
            snap.join()
        assert report.n_completed == 4
        assert torn == []
        assert observer.metrics.histogram("serve.e2e_s").count == 4


class TestNoPerturbation:
    """Telemetry is read-only: enabling it must not move a single
    number the honest pipeline produces."""

    @staticmethod
    def run_session(observer):
        session = MedSenSession(rng=2024, observer=observer)
        alphabet = session.config.alphabet
        identifier = CytoIdentifier(alphabet, (2, 1))
        session.authenticator.register("alice", identifier)
        blood = Sample.from_concentrations({BLOOD_CELL: 400.0}, volume_ul=10)
        return session.run_diagnostic(
            blood, identifier, duration_s=20.0, rng=7
        )

    def test_outputs_bit_identical_with_telemetry_enabled(self):
        plain = self.run_session(NULL_OBSERVER)
        telemetry = self.run_session(
            TelemetryObserver(metrics=MetricsRegistry(), events=EventLog())
        )
        assert plain.decryption.epoch_counts == telemetry.decryption.epoch_counts
        assert plain.decryption.total_count == telemetry.decryption.total_count
        assert len(plain.decryption.particles) == len(telemetry.decryption.particles)
        for a, b in zip(plain.decryption.particles, telemetry.decryption.particles):
            assert np.array_equal(a.amplitudes, b.amplitudes)
        assert plain.bead_counts == telemetry.bead_counts
        assert plain.marker_count == telemetry.marker_count
        assert plain.auth.accepted == telemetry.auth.accepted
        assert plain.diagnosis.concentration_per_ul == telemetry.diagnosis.concentration_per_ul
        assert plain.diagnosis.label == telemetry.diagnosis.label
