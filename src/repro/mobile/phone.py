"""The smartphone relay app (paper §VI-D, §VII-B).

The app "provides an interface for the user to start the blood test
..., and relays the measurements to the cloud infrastructure in charge
of performing the heavy computation.  It also receives the analysis
outcomes and forwards them to MedSen device."  For network efficiency
it zip-compresses captures before upload (§VII-B), and for small
captures it can run the peak analysis locally instead (§VII-B /
Figure 14).
"""

from dataclasses import dataclass, field
from typing import Optional

from repro._util.validation import check_positive
from repro.cloud.network import NetworkModel
from repro.cloud.server import AnalysisServer
from repro.dsp.peakdetect import PeakDetector, PeakReport
from repro.dsp.recording import CsvRecordingModel, compressed_size_bytes
from repro.guard.admission import DEFAULT_TRACE_POLICY, TraceAdmissionPolicy, admit_trace
from repro.guard.envelope import SecureChannel
from repro.hardware.acquisition import AcquiredTrace
from repro.mobile.perf import NEXUS5, DevicePerfModel
from repro.obs import NULL_OBSERVER, TRACE_RELAYED

#: Approximate serialized size of a peak report entry (timestamp,
#: depth, width, channel amplitudes) sent back to the phone.
_REPORT_BYTES_PER_PEAK = 64.0
_REPORT_BYTES_BASE = 256.0


@dataclass(frozen=True)
class RelayOutcome:
    """What one relayed analysis cost and returned."""

    report: PeakReport
    analyzed_locally: bool
    raw_bytes: int
    uploaded_bytes: float
    compression_time_s: float
    transfer_time_s: float
    analysis_time_s: float

    @property
    def total_time_s(self) -> float:
        """Phone-observed time from capture handoff to report."""
        return self.compression_time_s + self.transfer_time_s + self.analysis_time_s


@dataclass
class Smartphone:
    """Relay app: compress, upload, and forward results.

    Parameters
    ----------
    network:
        Uplink/downlink model used for transfer estimates.
    perf:
        Local processing-time model (defaults to the Nexus 5 fit).
    local_analysis_threshold_samples:
        Captures with at most this many total samples are analysed on
        the phone instead of being uploaded ("For smaller samples,
        MedSen could be configured to perform the peak counting signal
        processing on the smartphone locally").  0 disables local mode.
    observer:
        Observability sink (relay spans, transfer metrics, audit
        events); the default records nothing.
    admission:
        Trace admission policy applied before any relay work — the
        phone refuses malformed/NaN-poisoned captures at its own
        boundary instead of shipping them on.  ``None`` disables.
    channel:
        Optional :class:`~repro.guard.envelope.SecureChannel` pairing
        this phone with the cloud.  When set, uploads carry a freshness
        token and the report comes back HMAC-sealed; the phone verifies
        the envelope *before* forwarding anything to the controller.
    """

    network: NetworkModel = field(default_factory=NetworkModel)
    perf: DevicePerfModel = NEXUS5
    recording: CsvRecordingModel = field(default_factory=CsvRecordingModel)
    local_analysis_threshold_samples: int = 0
    compression_bytes_per_s: float = 40e6
    compression_level: int = 6
    observer: object = NULL_OBSERVER
    admission: Optional[TraceAdmissionPolicy] = DEFAULT_TRACE_POLICY
    channel: Optional[SecureChannel] = None

    def __post_init__(self) -> None:
        if self.local_analysis_threshold_samples < 0:
            raise ValueError("local_analysis_threshold_samples must be >= 0")
        check_positive("compression_bytes_per_s", self.compression_bytes_per_s)

    # ------------------------------------------------------------------
    def relay(
        self,
        trace: AcquiredTrace,
        server: AnalysisServer,
        local_detector: Optional[PeakDetector] = None,
    ) -> RelayOutcome:
        """Process one capture: locally if small, otherwise via cloud.

        Timing is *modelled* (network/perf models) except the cloud's
        analysis time, which is actually measured by the server.

        The relay is itself a trust boundary: a malformed or poisoned
        capture is refused with a typed
        :class:`~repro._util.errors.AdmissionError` before compression,
        upload, or local analysis.
        """
        if self.admission is not None:
            admit_trace(
                trace, self.admission, observer=self.observer, boundary="relay"
            )
        with self.observer.span("relay", service="phone") as relay_span:
            total_samples = trace.n_channels * trace.n_samples
            with self.observer.span("encode", samples=total_samples):
                payload = self.recording.encode(
                    trace.voltages, trace.sampling_rate_hz
                )
            raw_bytes = len(payload)

            if (
                self.local_analysis_threshold_samples
                and total_samples <= self.local_analysis_threshold_samples
            ):
                detector = local_detector or server.detector
                with self.observer.span("local_analysis", samples=total_samples):
                    report = detector.detect(trace.voltages, trace.sampling_rate_hz)
                relay_span.set_attribute("analyzed_locally", True)
                self.observer.incr("relay.local_analyses")
                self.observer.event(
                    TRACE_RELAYED,
                    analyzed_locally=True,
                    raw_bytes=raw_bytes,
                    uploaded_bytes=0.0,
                )
                return RelayOutcome(
                    report=report,
                    analyzed_locally=True,
                    raw_bytes=raw_bytes,
                    uploaded_bytes=0.0,
                    compression_time_s=0.0,
                    transfer_time_s=0.0,
                    analysis_time_s=self.perf.processing_time_s(total_samples),
                )

            with self.observer.span("compress", raw_bytes=raw_bytes):
                compressed = compressed_size_bytes(payload, level=self.compression_level)
            compression_time = raw_bytes / self.compression_bytes_per_s
            self.observer.event(
                TRACE_RELAYED,
                analyzed_locally=False,
                raw_bytes=raw_bytes,
                uploaded_bytes=float(compressed),
            )
            if self.channel is not None:
                # The MSF2 token carries this relay span's identity so
                # the cloud's span becomes a child of this trace; the
                # MSE2 response carries the cloud span back as a link.
                sealed = server.analyze_sealed(
                    trace,
                    freshness_token=self.channel.new_token(
                        trace_context=relay_span.context()
                    ),
                )
                report = self.channel.receive(sealed, boundary="relay")
                if self.channel.last_context is not None:
                    relay_span.add_link(self.channel.last_context)
            else:
                report = server.analyze(trace)
            response_bytes = _REPORT_BYTES_BASE + _REPORT_BYTES_PER_PEAK * report.count
            with self.observer.span(
                "transfer", uploaded_bytes=float(compressed)
            ) as transfer_span:
                transfer_time = self.network.round_trip(
                    compressed, response_bytes, observer=self.observer
                )
                transfer_span.set_attribute("modelled_s", transfer_time)
            relay_span.set_attribute("analyzed_locally", False)
            self.observer.incr("relay.uploads")
            self.observer.incr("relay.raw_bytes", raw_bytes)
            self.observer.observe("relay.compression_ratio", raw_bytes / max(compressed, 1))
            # The calling thread's own job time: concurrent relays must
            # not read whichever job another worker finished last.
            analysis_time = getattr(server, "last_processing_time_s", None)
            if analysis_time is None:
                analysis_time = server.total_processing_time_s / max(
                    server.jobs_processed, 1
                )
            return RelayOutcome(
                report=report,
                analyzed_locally=False,
                raw_bytes=raw_bytes,
                uploaded_bytes=float(compressed),
                compression_time_s=compression_time,
                transfer_time_s=transfer_time,
                analysis_time_s=analysis_time,
            )
