"""Bench-side layer tracing for the end-to-end benchmark.

The program's own spans are not used here: this module wraps the
public entry points of each layer (class attributes and module
globals, found by dotted path), records one span per call in memory,
and restores every attribute on exit.  A span holds its name, start,
end, parent and op id; the spans of one session, chunk or request
share the op id of the root span the benchmark opens around it.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Entry points whose result is a
:class:`concurrent.futures.Future` (a shard round trip) stay open until
the future resolves, which may happen on another thread.
"""

import contextlib
import contextvars
import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class EntryPointError(LookupError):
    """A wrapped entry point no longer resolves; names its dotted path."""


class Entry(NamedTuple):
    """One wrapped entry point.

    ``layer`` names the spans; ``name_for`` (optional) picks the name
    per call from the arguments instead.  ``work`` maps
    ``(args, kwargs, result)`` to counters summed per layer.
    ``deferred`` marks entry points returning a future: their span ends
    when the future resolves.
    """

    layer: str
    path: str
    work: Optional[Callable[[tuple, dict, Any], Dict[str, float]]] = None
    deferred: bool = False
    name_for: Optional[Callable[[tuple], str]] = None


def _rtt_name(args: tuple) -> str:
    kind = type(args[1]).__name__
    if kind == "SubmitRequest":
        return "fleet.shard_rtt"
    if kind == "JournalShip":
        return "fleet.ship_ack"
    return "fleet.control_rtt"


#: Every wrapped entry point, in pipeline order.  Self time of a layer
#: excludes the layers listed inside it, so the table sums to the op.
ENTRIES: Tuple[Entry, ...] = (
    Entry("core.run_diagnostic", "repro.core.protocol.MedSenSession.run_diagnostic"),
    Entry("hardware.capture", "repro.core.device.MedSenDevice.run_capture"),
    Entry("hardware.provision", "repro.hardware.controller.MicroController.provision"),
    Entry(
        "microfluidics.schedule_arrivals",
        "repro.microfluidics.transport.TransportModel.schedule_arrivals",
        work=lambda a, k, r: {"arrivals": len(r)},
    ),
    Entry("crypto.encrypt_events", "repro.crypto.encryptor.SignalEncryptor.events_for_arrivals"),
    Entry(
        "hardware.acquire",
        "repro.hardware.acquisition.AcquisitionFrontEnd.acquire",
        work=lambda a, k, r: {"samples": r.n_channels * r.n_samples},
    ),
    Entry("mobile.relay", "repro.mobile.phone.Smartphone.relay"),
    Entry(
        "dsp.recording.encode",
        "repro.dsp.recording.CsvRecordingModel.encode",
        work=lambda a, k, r: {"bytes": len(r)},
    ),
    Entry(
        "dsp.recording.compress",
        "repro.mobile.phone.compressed_size_bytes",
        work=lambda a, k, r: {"raw_bytes": len(a[0]), "out_bytes": r},
    ),
    Entry("cloud.analyze", "repro.cloud.server.AnalysisServer.analyze"),
    Entry(
        "dsp.detect",
        "repro.dsp.peakdetect.PeakDetector.detect",
        work=lambda a, k, r: {"peaks": r.count},
    ),
    Entry(
        "crypto.decrypt",
        "repro.crypto.decryptor.SignalDecryptor.decrypt",
        work=lambda a, k, r: {
            "anomalous": r.anomalous_groups,
            "observed": r.observed_peak_count,
        },
    ),
    Entry("auth.classify", "repro.auth.classifier.ParticleClassifier.classify"),
    Entry(
        "auth.authenticate",
        "repro.auth.authenticator.ServerAuthenticator.authenticate",
        work=lambda a, k, r: {"accepted": int(r.accepted), "attempts": 1},
    ),
    Entry("cloud.store", "repro.cloud.storage.RecordStore.store"),
    Entry("stream.seal_chunk", "repro.stream.session.seal_chunk"),
    Entry("stream.ingest_chunk", "repro.stream.session.StreamGateway.ingest_chunk"),
    Entry("stream.open_chunk", "repro.stream.session.open_chunk"),
    Entry(
        "crypto.keystream",
        "repro.crypto.keyshare.keystream",
        work=lambda a, k, r: {"bytes": len(r)},
    ),
    Entry("dsp.windowed.feed", "repro.dsp.windowed.WindowedPeakDetector.feed"),
    Entry("stream.close_session", "repro.stream.session.StreamGateway.close_session"),
    Entry(
        "fleet.shard_rtt",
        "repro.fleet.cluster.ShardHandle.request",
        deferred=True,
        name_for=_rtt_name,
    ),
    Entry(
        "fleet.transport.encode_frame",
        "repro.fleet.transport.encode_frame",
        work=lambda a, k, r: {"bytes": len(r)},
    ),
    Entry(
        "fleet.transport.decode_frame",
        "repro.fleet.transport.decode_frame",
        work=lambda a, k, r: {"bytes": len(a[0])},
    ),
    # Deferred too: the ship's own ack round trip is its child span.
    Entry("fleet.replication.ship", "repro.fleet.replication.ReplicatedCluster.ship", deferred=True),
)

#: Root span the benchmark opens around each op; its self time is the
#: part of an op that no wrapped layer covers.
OP = "bench.op"

#: Every layer the per-layer table reports, whether or not a workload
#: reaches it (an unreached layer reads 0 calls and 0 ms).
LAYERS: Tuple[str, ...] = (
    tuple(entry.layer for entry in ENTRIES) + ("fleet.ship_ack", OP)
)


def resolve(path: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` for a dotted path; the owner is a module
    or a class inside one.  Raises :class:`EntryPointError` naming the
    path when any part of it is gone."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split])
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            getattr(owner, parts[-1])
        except AttributeError as error:
            raise EntryPointError(f"entry point {path} no longer resolves: {error}") from None
        return owner, parts[-1]
    raise EntryPointError(f"entry point {path} no longer resolves: no importable module")


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]
    op: Optional[int]
    thread: int


class Tracer:
    """Wraps :data:`ENTRIES` while installed; keeps spans in memory."""

    def __init__(self, entries: Tuple[Entry, ...] = ENTRIES) -> None:
        self.entries = entries
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"e2e-span-{id(self)}", default=None
        )
        self._lock = threading.Lock()
        self._ops = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        """Resolve every entry point first, so a stale path patches nothing."""
        targets = [(entry, *resolve(entry.path)) for entry in self.entries]
        for entry, owner, attr in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(entry, original))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- spans -------------------------------------------------------------
    def begin(self, name: str, new_op: bool = False):
        """Open a span under the current one; returns ``(span, token)``."""
        parent = self._current.get()
        with self._lock:
            if new_op:
                self._ops += 1
            span = Span(
                index=len(self.spans),
                name=name,
                start=time.perf_counter(),
                end=None,
                parent=None if parent is None else parent.index,
                op=self._ops if new_op else (None if parent is None else parent.op),
                thread=threading.get_ident(),
            )
            self.spans.append(span)
        return span, self._current.set(span)

    def end(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)

    @contextlib.contextmanager
    def op(self):
        """One op's root span, around a block."""
        span, token = self.begin(OP, new_op=True)
        try:
            yield span
        finally:
            self.end(span, token)

    def _count(self, layer: str, work: Dict[str, float]) -> None:
        with self._lock:
            for key, value in work.items():
                name = f"{layer}.{key}"
                self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def _wrap(self, entry: Entry, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = entry.name_for(args) if entry.name_for else entry.layer
            span, token = tracer.begin(name)
            if entry.deferred:
                try:
                    future = original(*args, **kwargs)
                finally:
                    tracer._current.reset(token)
                if future is None:  # nothing was sent (no live standby)
                    span.end = time.perf_counter()
                else:
                    future.add_done_callback(
                        lambda _: setattr(span, "end", time.perf_counter())
                    )
                return future
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span, token)
            if entry.work is not None:
                tracer._count(name, entry.work(args, kwargs, result))
            return result

        return traced

    # -- analysis ----------------------------------------------------------
    def closed_spans(self) -> List[Span]:
        return [span for span in self.spans if span.end is not None]

    def self_times(self) -> Dict[int, float]:
        """Self seconds per span index (duration minus child coverage)."""
        spans = self.closed_spans()
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        result = {}
        for span in spans:
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(span.index, ())):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.index] = (span.end - span.start) - covered
        return result

    def durations(self, name: str) -> List[float]:
        """Seconds per closed span called ``name``."""
        return [span.end - span.start for span in self.closed_spans() if span.name == name]

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls and self ms per op, and share of the ops'
        total time."""
        selfs = self.self_times()
        spans = self.closed_spans()
        n_ops = max(sum(1 for span in spans if span.name == OP), 1)
        op_s = sum(self.durations(OP))
        rows = {layer: [0, 0.0] for layer in LAYERS}
        for span in spans:
            row = rows.setdefault(span.name, [0, 0.0])
            row[0] += 1
            row[1] += selfs[span.index]
        return {
            layer: {
                "calls": calls / n_ops,
                "self_ms": 1e3 * self_s / n_ops,
                "share": self_s / op_s if op_s > 0 else 0.0,
            }
            for layer, (calls, self_s) in rows.items()
        }

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as a Chrome trace-event document."""
        spans = self.closed_spans()
        origin = min((span.start for span in spans), default=0.0)
        threads: Dict[int, int] = {}
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": 1e6 * (span.start - origin),
                "dur": 1e6 * (span.end - span.start),
                "pid": 1,
                "tid": threads.setdefault(span.thread, len(threads)),
                "args": {"op": span.op, "span": span.index, "parent": span.parent},
            }
            for span in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
