"""Cloud analysis server (paper §VI-C).

The server performs the heavyweight signal processing on encrypted
traces: detrend, threshold, and return the encoded peak report.  It is
*outside* the trusted computing base: it never receives key material,
and — being curious — it keeps a log of every trace and report it
handled, which the attack benchmarks mine.  Under sustained load that
log is bounded: at most ``max_history`` recent jobs are retained and
evictions are counted (``cloud.history_dropped``), so a long-running
deployment cannot grow without limit.

The server is thread-safe: the fleet scheduler's workers share one
instance, and accounting happens under a lock.  Each job is one trace
through :meth:`PeakDetector.detect <repro.dsp.peakdetect.PeakDetector.detect>`.

Analysis timing flows through the observability layer: each job runs
inside a ``cloud_analysis`` span whose duration backs the
``processing_time_s`` accounting (real even with the default no-op
observer, which measures but records nothing).
"""

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro._util.errors import ConfigurationError, MalformedPayloadError
from repro.dsp.peakdetect import PeakDetector, PeakReport
from repro.guard.admission import DEFAULT_TRACE_POLICY, TraceAdmissionPolicy, admit_trace
from repro.guard.freshness import FreshnessGuard, FreshnessToken
from repro.hardware.acquisition import AcquiredTrace
from repro.obs import GUARD_REJECTED, NULL_OBSERVER, PEAKS_REPORTED


@dataclass(frozen=True)
class AnalysisJob:
    """One completed analysis: what the curious server remembers."""

    trace: AcquiredTrace
    report: PeakReport
    processing_time_s: float


class AnalysisServer:
    """Untrusted peak-analysis service.

    Parameters
    ----------
    detector:
        The peak detection pipeline to run; defaults to the paper's
        detrend-and-threshold configuration.
    keep_history:
        Whether to retain analysed traces (the curious-but-honest
        behaviour).  Disable for long benchmark runs to bound memory.
    max_history:
        Cap on retained jobs; the oldest are evicted once the log is
        full and the eviction count is exposed as ``history_dropped``
        (and the ``cloud.history_dropped`` counter).
    observer:
        Observability sink for spans / metrics / audit events; the
        default records nothing.
    dedup_capacity:
        How many recent request ids to remember for idempotent ingest;
        a re-delivered request id within this window returns the cached
        report instead of re-running (and re-logging) the job.
    admission:
        Trace admission policy (:mod:`repro.guard.admission`), applied
        to every inbound trace before any processing.  The default is
        generous enough to admit all honest traffic; pass ``None`` to
        disable admission entirely (pre-guard behaviour).
    freshness:
        Optional :class:`~repro.guard.freshness.FreshnessGuard`.  When
        set, :meth:`analyze` demands an authenticated freshness token
        with every exchange and refuses replays and stale epochs — this
        is *authenticated* anti-replay, independent of the honest
        ``request_id`` dedup above it.
    transit_secret:
        Optional shared secret enabling :meth:`analyze_sealed`, which
        returns the report inside a tamper-evident HMAC envelope.
    """

    def __init__(
        self,
        detector: Optional[PeakDetector] = None,
        keep_history: bool = True,
        max_history: int = 4096,
        observer=NULL_OBSERVER,
        dedup_capacity: int = 4096,
        admission: Optional[TraceAdmissionPolicy] = DEFAULT_TRACE_POLICY,
        freshness: Optional[FreshnessGuard] = None,
        transit_secret: Optional[bytes] = None,
    ) -> None:
        if max_history < 1:
            raise ConfigurationError("max_history must be >= 1")
        if dedup_capacity < 1:
            raise ConfigurationError("dedup_capacity must be >= 1")
        self.detector = detector or PeakDetector()
        self.keep_history = keep_history
        self.max_history = max_history
        self.observer = observer
        self.dedup_capacity = dedup_capacity
        self.admission = admission
        self.freshness = freshness
        self.transit_secret = transit_secret
        self._history: Deque[AnalysisJob] = deque(maxlen=max_history)
        self._history_dropped = 0
        self._jobs_processed = 0
        self._total_processing_time_s = 0.0
        self._seen_requests: "OrderedDict[str, PeakReport]" = OrderedDict()
        self._duplicates_dropped = 0
        self._dedup_evicted = 0
        self._lock = threading.Lock()
        self._thread = threading.local()

    # ------------------------------------------------------------------
    def admit_ingress(
        self,
        trace: AcquiredTrace,
        freshness_token: Optional[bytes] = None,
        boundary: str = "ingest",
    ) -> Optional[FreshnessToken]:
        """Run the full trust-boundary check for one inbound exchange.

        Admission (shape/size/finiteness) first, then — when this
        server carries a :class:`FreshnessGuard` — authenticated
        freshness: a missing, forged, replayed, or stale-epoch token
        refuses the exchange with a typed
        :class:`~repro._util.errors.AdmissionError` *before* any
        analysis or dedup lookup, so an attacker rewriting
        ``request_id`` gains nothing.
        """
        if self.admission is not None:
            admit_trace(
                trace, self.admission, observer=self.observer, boundary=boundary
            )
        if self.freshness is None:
            return None
        if freshness_token is None:
            self.observer.incr("guard.rejected")
            self.observer.event(
                GUARD_REJECTED, boundary=boundary, reason="missing_token"
            )
            raise MalformedPayloadError(
                f"[{boundary}] this server requires a freshness token"
            )
        return self.freshness.admit(
            freshness_token, observer=self.observer, boundary=boundary
        )

    def analyze(
        self,
        trace: AcquiredTrace,
        request_id: Optional[str] = None,
        freshness_token: Optional[bytes] = None,
    ) -> PeakReport:
        """Run peak analysis on an encrypted trace.

        Returns only ciphertext-domain facts (peak count, timestamps,
        amplitudes, widths); the server cannot do better without the
        key — that is the point of the cipher.

        Pass a ``request_id`` to make ingest **idempotent**: a network
        duplicate re-delivering the same id gets the cached report back
        and is *not* re-analysed, re-billed, or re-logged (the
        ``serve.duplicates_dropped`` counter records the drop).  With
        no id (the default), every call is a fresh job — preserving the
        curious-server behaviour the attack suite mines.

        When the server carries a freshness guard, ``freshness_token``
        is mandatory and is consumed *before* the dedup lookup (see
        :meth:`admit_ingress`).
        """
        admitted = self.admit_ingress(trace, freshness_token, boundary="ingest")
        self._thread.last_span_context = None
        if request_id is not None:
            cached = self._check_duplicate(request_id)
            if cached is not None:
                return cached
        # An MSF2 token carries the caller's trace context inside its
        # authenticated body; adopting it as remote parent stitches the
        # cloud span into the device/phone trace.
        remote = admitted.context if admitted is not None else None
        with self.observer.span(
            "cloud_analysis",
            remote_parent=remote,
            service="cloud",
            samples=trace.n_samples,
            channels=trace.n_channels,
        ) as span:
            report = self.detector.detect(trace.voltages, trace.sampling_rate_hz)
        self._thread.last_span_context = span.context()
        self._account(trace, report, span.duration_s)
        if request_id is not None:
            self._remember_request(request_id, report)
        return report

    def _check_duplicate(self, request_id: str) -> Optional[PeakReport]:
        with self._lock:
            cached = self._seen_requests.get(request_id)
            if cached is None:
                return None
            # True LRU: a hit refreshes the entry, so a request id that
            # keeps being retried is not evicted by colder traffic.
            self._seen_requests.move_to_end(request_id)
            self._duplicates_dropped += 1
        self.observer.incr("serve.duplicates_dropped")
        return cached

    def _remember_request(self, request_id: str, report: PeakReport) -> None:
        evicted = 0
        with self._lock:
            self._seen_requests[request_id] = report
            self._seen_requests.move_to_end(request_id)
            while len(self._seen_requests) > self.dedup_capacity:
                self._seen_requests.popitem(last=False)
                evicted += 1
                self._dedup_evicted += 1
        for _ in range(evicted):
            self.observer.incr("dedup.evicted")

    def analyze_sealed(
        self,
        trace: AcquiredTrace,
        request_id: Optional[str] = None,
        freshness_token: Optional[bytes] = None,
    ) -> bytes:
        """Like :meth:`analyze`, but the report returns sealed.

        The report travels as a tamper-evident HMAC envelope
        (:mod:`repro.guard.envelope`) under the server's
        ``transit_secret``; the phone verifies it before anything
        reaches the TCB.  Requires ``transit_secret``.
        """
        from repro.guard.envelope import seal_report

        if self.transit_secret is None:
            raise ConfigurationError(
                "analyze_sealed requires a transit_secret; none configured"
            )
        report = self.analyze(
            trace, request_id=request_id, freshness_token=freshness_token
        )
        key_epoch = self.freshness.key_epoch if self.freshness is not None else 0
        # The response envelope carries the cloud span's context (MSE2)
        # so the phone can link its receive to the server-side work.
        return seal_report(
            report,
            self.transit_secret,
            key_epoch=key_epoch,
            trace_context=getattr(self._thread, "last_span_context", None),
        )

    # ------------------------------------------------------------------
    def _account(
        self, trace: AcquiredTrace, report: PeakReport, elapsed: float
    ) -> None:
        with self._lock:
            self._jobs_processed += 1
            self._total_processing_time_s += elapsed
            if self.keep_history:
                if len(self._history) == self._history.maxlen:
                    self._history_dropped += 1
                    self.observer.incr("cloud.history_dropped")
                self._history.append(
                    AnalysisJob(trace=trace, report=report, processing_time_s=elapsed)
                )
        self._thread.last_elapsed_s = elapsed
        self.observer.incr("cloud.jobs")
        self.observer.incr("cloud.peaks_reported", report.count)
        self.observer.observe("cloud.analysis_s", elapsed)
        self.observer.event(
            PEAKS_REPORTED, peaks=report.count, duration_s=report.duration_s
        )

    # ------------------------------------------------------------------
    @property
    def jobs_processed(self) -> int:
        """Number of analyses performed."""
        return self._jobs_processed

    @property
    def total_processing_time_s(self) -> float:
        """Cumulative wall-clock analysis time."""
        return self._total_processing_time_s

    @property
    def history(self) -> Tuple[AnalysisJob, ...]:
        """Everything the curious server still retains (oldest first)."""
        with self._lock:
            return tuple(self._history)

    @property
    def history_dropped(self) -> int:
        """Jobs evicted from the bounded history so far."""
        return self._history_dropped

    @property
    def duplicates_dropped(self) -> int:
        """Re-delivered request ids answered from the dedup cache."""
        return self._duplicates_dropped

    @property
    def dedup_evicted(self) -> int:
        """Entries pushed out of the LRU-bounded dedup cache so far."""
        return self._dedup_evicted

    @property
    def last_processing_time_s(self) -> Optional[float]:
        """Processing time of the calling thread's most recent job.

        Thread-local, so concurrent relays each read the time of *their
        own* analysis rather than whichever job finished last globally.
        ``None`` before this thread has completed a job.
        """
        return getattr(self._thread, "last_elapsed_s", None)

    def last_job(self) -> AnalysisJob:
        """Most recent analysis (raises if none or history disabled)."""
        with self._lock:
            if not self._history:
                raise LookupError("no analysis history available")
            return self._history[-1]
