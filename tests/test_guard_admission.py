"""Admission validation at the §IV trust boundaries."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro._util.errors import (
    AdmissionError,
    MalformedPayloadError,
    OversizedPayloadError,
)
from repro.cloud.server import AnalysisServer
from repro.cloud.storage import RecordStore
from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.guard.admission import (
    DEFAULT_TRACE_POLICY,
    TraceAdmissionPolicy,
    admit_identifier_key,
    admit_metadata,
    admit_report,
    admit_trace,
)
from repro.mobile.phone import Smartphone
from repro.obs import GUARD_REJECTED, EventLog, ManualClock, MetricsRegistry, Observer


@pytest.fixture
def observer():
    return Observer(metrics=MetricsRegistry(), events=EventLog())


def fake_trace(**overrides):
    """A structurally honest trace look-alike, overridable per test."""
    voltages = overrides.pop("voltages", np.zeros((2, 128)))
    fields = {
        "voltages": voltages,
        "sampling_rate_hz": 450.0,
        "carrier_frequencies_hz": (500e3, 2500e3),
        "n_channels": voltages.shape[0] if hasattr(voltages, "shape") else 2,
        "n_samples": voltages.shape[-1] if hasattr(voltages, "shape") else 128,
    }
    fields.update(overrides)
    return SimpleNamespace(**fields)


def make_report(n_peaks=3, **peak_overrides):
    peaks = []
    for i in range(n_peaks):
        fields = {
            "time_s": 0.5 * i + 0.25,
            "depth": 0.01,
            "width_s": 0.02,
            "amplitudes": np.asarray([0.01, 0.02]),
            "sample_index": 100 * i,
        }
        fields.update(peak_overrides)
        peaks.append(DetectedPeak(**fields))
    return PeakReport(
        peaks=tuple(peaks),
        duration_s=10.0,
        sampling_rate_hz=450.0,
        detection_channel=0,
    )


class TestAdmitTrace:
    def test_honest_trace_admitted(self, observer):
        admit_trace(fake_trace(), observer=observer)
        assert observer.metrics.counter("guard.rejected").value == 0

    @pytest.mark.parametrize(
        "trace",
        [
            object(),
            fake_trace(voltages=[[0.0, 1.0]]),
            fake_trace(voltages=np.zeros(16)),
            fake_trace(voltages=np.zeros((2, 16), dtype=object)),
            fake_trace(voltages=np.zeros((0, 16))),
            fake_trace(sampling_rate_hz=float("nan")),
            fake_trace(sampling_rate_hz=-450.0),
            fake_trace(carrier_frequencies_hz=(500e3,)),
            fake_trace(voltages=np.full((2, 8), 1e9)),
        ],
    )
    def test_malformed_refused(self, trace, observer):
        with pytest.raises(MalformedPayloadError):
            admit_trace(trace, observer=observer)
        assert observer.metrics.counter("guard.rejected").value == 1

    def test_nan_poisoned_refused(self):
        poisoned = np.zeros((2, 64))
        poisoned[1, 17] = np.nan
        with pytest.raises(MalformedPayloadError, match="non-finite"):
            admit_trace(fake_trace(voltages=poisoned))

    @pytest.mark.parametrize(
        "trace",
        [
            fake_trace(voltages=np.zeros((65, 4))),
            fake_trace(sampling_rate_hz=1e12),
        ],
    )
    def test_oversized_refused(self, trace):
        with pytest.raises(OversizedPayloadError):
            admit_trace(trace)

    def test_oversized_is_admission_error(self):
        # The whole hierarchy funnels into one catchable type.
        with pytest.raises(AdmissionError):
            admit_trace(fake_trace(voltages=np.zeros((65, 4))))

    def test_policy_overrides(self):
        tight = TraceAdmissionPolicy(max_samples=64)
        with pytest.raises(OversizedPayloadError):
            admit_trace(fake_trace(voltages=np.zeros((2, 65))), policy=tight)
        admit_trace(fake_trace(voltages=np.zeros((2, 65))))  # default admits

    def test_non_finite_allowed_when_policy_relaxed(self):
        poisoned = np.zeros((2, 8))
        poisoned[0, 0] = np.inf
        relaxed = TraceAdmissionPolicy(require_finite=False, max_abs_voltage=np.inf)
        admit_trace(fake_trace(voltages=poisoned), policy=relaxed)

    def test_rejection_accounting(self, observer):
        with pytest.raises(AdmissionError):
            admit_trace(object(), observer=observer, boundary="relay")
        assert observer.metrics.counter("guard.rejected").value == 1
        assert observer.metrics.counter("guard.rejected.relay").value == 1
        (event,) = observer.events.events
        assert event.kind == GUARD_REJECTED
        assert event.field_dict()["boundary"] == "relay"

    def test_default_policy_admits_long_honest_capture(self):
        # 20 hours at the lock-in's 450 Hz output rate.
        n = int(20 * 3600 * 450)
        assert n <= DEFAULT_TRACE_POLICY.max_samples


class TestAdmitReport:
    def test_honest_report_admitted(self):
        admit_report(make_report())

    def test_non_report_refused(self):
        with pytest.raises(MalformedPayloadError):
            admit_report("not a report")

    def test_non_finite_peak_refused(self):
        with pytest.raises(MalformedPayloadError):
            admit_report(make_report(depth=float("nan")))

    def test_non_finite_amplitudes_refused(self):
        with pytest.raises(MalformedPayloadError):
            admit_report(make_report(amplitudes=np.asarray([np.inf])))

    def test_peak_cap(self):
        with pytest.raises(OversizedPayloadError):
            admit_report(make_report(n_peaks=5), max_peaks=4)

    def test_bad_duration_refused(self):
        report = make_report()
        broken = SimpleNamespace(
            peaks=report.peaks, duration_s=-1.0, sampling_rate_hz=450.0
        )
        with pytest.raises(MalformedPayloadError):
            admit_report(broken)


class TestAdmitKeyAndMetadata:
    def test_honest_key(self):
        assert admit_identifier_key("bead_3.58um:2|bead_7.8um:0") != ""

    @pytest.mark.parametrize("key", [123, "", " padded ", "two\nlines", "a" * 513])
    def test_bad_keys_refused(self, key):
        with pytest.raises(AdmissionError):
            admit_identifier_key(key)

    def test_metadata_none_ok(self):
        admit_metadata(None)
        admit_metadata({"site": "clinic-7", "n": "3", "empty": ""})

    @pytest.mark.parametrize(
        "metadata",
        [
            "not a dict",
            {1: "non-string key"},
            {"obj": object()},
            {"inf": float("inf")},
            {"big": "x" * 5000},
            {f"k{i}": i for i in range(65)},
            # A journal replay reads every value back as a string.
            {"visit": 3},
            {"ok": True},
            {"x": None},
            {"ratio": 1.5},
        ],
    )
    def test_bad_metadata_refused(self, metadata):
        with pytest.raises(AdmissionError):
            admit_metadata(metadata)


class TestBoundaryWiring:
    """The admission module is actually called at each boundary."""

    def test_server_ingest_refuses_garbage(self, observer):
        server = AnalysisServer(observer=observer)
        with pytest.raises(AdmissionError):
            server.analyze(object())
        assert observer.metrics.counter("guard.rejected.ingest").value == 1

    def test_server_ingest_admits_honest_fake(self):
        server = AnalysisServer()
        rng = np.random.default_rng(0)
        trace = fake_trace(voltages=0.01 * rng.standard_normal((2, 900)))
        report = server.analyze(trace)
        assert report.duration_s == pytest.approx(2.0)

    def test_server_admission_can_be_disabled(self):
        server = AnalysisServer(admission=None)
        with pytest.raises(Exception) as excinfo:
            server.analyze(object())
        assert not isinstance(excinfo.value, AdmissionError)

    def test_phone_relay_refuses_garbage(self, observer):
        phone = Smartphone(observer=observer)
        server = AnalysisServer()
        with pytest.raises(AdmissionError):
            phone.relay(object(), server)
        assert observer.metrics.counter("guard.rejected.relay").value == 1

    def test_store_refuses_garbage(self, observer):
        store = RecordStore(clock=ManualClock(), observer=observer)
        report = make_report()
        with pytest.raises(AdmissionError):
            store.store("key", object())
        with pytest.raises(AdmissionError):
            store.store("two\nlines", report)
        with pytest.raises(AdmissionError):
            store.store("key", report, metadata={"x": object()})
        assert observer.metrics.counter("guard.rejected").value == 3
        assert store.n_records == 0

    def test_store_admits_honest_record(self):
        store = RecordStore(clock=ManualClock())
        record = store.store("user-key", make_report(), metadata={"site": "a"})
        assert record.verify()


class TestSchedulerSubmit:
    def test_submit_refuses_garbage_before_queue(self, observer):
        from repro.serving.scheduler import FleetConfig, FleetScheduler

        config = FleetConfig(seed=0, n_workers=1, queue_capacity=4)
        blood = SimpleNamespace()  # refused before anything touches it
        with FleetScheduler(config, observer=observer) as scheduler:
            with pytest.raises(AdmissionError):
                scheduler.submit("bad\ntenant", blood, None)
            with pytest.raises(AdmissionError):
                scheduler.submit("clinic", blood, None, duration_s=float("nan"))
            with pytest.raises(OversizedPayloadError):
                scheduler.submit("clinic", blood, None, duration_s=1e9)
            with pytest.raises(AdmissionError):
                scheduler.submit("clinic", blood, None, pipette_volume_ul=-1.0)
            assert scheduler.queue.depth == 0
        assert observer.metrics.counter("guard.rejected.submit").value == 4
        kinds = [e.kind for e in observer.events.events]
        assert kinds.count(GUARD_REJECTED) == 4
