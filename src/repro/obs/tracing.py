"""Hierarchical span tracing with zero dependencies.

A :class:`Tracer` records a tree of timed :class:`Span` objects.  Spans
nest through a context-manager stack kept *per thread*, so concurrent
fleet workers (:mod:`repro.serving`) each grow their own span trees
instead of corrupting one another's parentage; within a thread the
pipeline remains synchronous.  Spans carry free-form attributes and
export either as a plain nested dict or as Chrome-trace JSON
(`chrome://tracing` / Perfetto "traceEvents" format), with the opening
thread's id as ``tid``.

Every span owns a :class:`~repro.obs.context.TraceContext`: ids are
allocated from a per-tracer counter (never an RNG, never
``os.urandom``), so tracing is fully deterministic and cannot perturb
any pipeline random stream.  A span opened with ``remote_parent=``
adopts the remote trace id and records the cross-process parent link;
``links=`` attaches additional related contexts.  The Chrome exporter renders remote parents and
links as flow events (``"ph": "s"/"f"``) so the whole fleet stitches
into one picture, and maps a span's ``service`` attribute onto the
Chrome ``pid`` lane with ``process_name`` metadata.

The clock is injected (default ``time.perf_counter``) so tests can pin
span durations exactly with :class:`~repro.obs.clock.ManualClock`.
"""

import functools
import itertools
import json
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.clock import MONOTONIC_CLOCK, Clock
from repro.obs.context import TraceContext


class Span:
    """One timed operation; a node in the trace tree.

    Use as a context manager (via :meth:`Tracer.span`)::

        with tracer.span("decrypt", peaks=count) as span:
            ...
        elapsed = span.duration_s

    ``duration_s`` is valid after exit; while the span is open it
    reports the time elapsed so far.
    """

    __slots__ = (
        "name",
        "attributes",
        "start_s",
        "end_s",
        "children",
        "_tracer",
        "tid",
        "trace_id",
        "span_id",
        "parent_span_id",
        "remote_parent",
        "links",
    )

    def __init__(
        self,
        name: str,
        tracer: "Tracer",
        attributes: Dict[str, Any],
        remote_parent: Optional[TraceContext] = None,
        links: Iterable[TraceContext] = (),
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.start_s: Optional[float] = None
        self.end_s: Optional[float] = None
        self.children: List["Span"] = []
        self._tracer = tracer
        self.tid = 1
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_span_id: Optional[str] = None
        self.remote_parent = remote_parent
        self.links: Tuple[TraceContext, ...] = tuple(links)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the span has been closed."""
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (so far, if the span is still open)."""
        if self.start_s is None:
            return 0.0
        end = self.end_s if self.end_s is not None else self._tracer.clock()
        return end - self.start_s

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    def context(self) -> Optional[TraceContext]:
        """This span's identity, propagatable across a wire boundary."""
        if self.trace_id is None or self.span_id is None:
            return None
        return TraceContext(self.trace_id, self.span_id)

    def add_link(self, context: TraceContext) -> None:
        """Record a related context (rendered as a Chrome flow arrow)."""
        self.links = self.links + (context,)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._close(self)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-dict form of this span and its children."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, duration_s={self.duration_s:.6f})"


class Tracer:
    """Collects a forest of spans from one instrumented run.

    Parameters
    ----------
    clock:
        Monotonic time source; injected for deterministic tests.
    """

    def __init__(self, clock: Clock = MONOTONIC_CLOCK) -> None:
        self.clock = clock
        self.roots: List[Span] = []
        self._local = threading.local()
        self._roots_lock = threading.Lock()
        self._id_counter = itertools.count(1)

    @property
    def _stack(self) -> List[Span]:
        """This thread's open-span stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        remote_parent: Optional[TraceContext] = None,
        links: Iterable[TraceContext] = (),
        **attributes: Any,
    ) -> Span:
        """Create a span; parentage binds when the context is entered.

        ``remote_parent`` joins this span to a trace started in another
        process/thread (the wire-carried context); an in-thread open
        parent still wins for tree structure, with the remote link kept
        as a flow event.  ``links`` attach additional related contexts.
        """
        return Span(name, self, attributes, remote_parent=remote_parent, links=links)

    def trace(self, name: str, **attributes: Any) -> Callable:
        """Decorator form: time every call of the wrapped function."""

        def decorate(func: Callable) -> Callable:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with self.span(name, **attributes):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def current_context(self) -> Optional[TraceContext]:
        """The innermost open span's context, for wire propagation."""
        span = self.current
        return span.context() if span is not None else None

    def reset(self) -> None:
        """Drop all recorded spans (open spans are abandoned).

        Only the calling thread's open-span stack is cleared; other
        threads' stacks drain naturally as their context managers exit.
        """
        with self._roots_lock:
            self.roots = []
        self._local.stack = []

    # ------------------------------------------------------------------
    def _next_span_id(self) -> str:
        return f"{next(self._id_counter):016x}"

    def _next_trace_id(self) -> str:
        return f"{next(self._id_counter):032x}"

    def _open(self, span: Span) -> None:
        span.start_s = self.clock()
        span.tid = threading.get_ident()
        span.span_id = self._next_span_id()
        stack = self._stack
        if stack:
            parent = stack[-1]
            span.trace_id = parent.trace_id
            span.parent_span_id = parent.span_id
            # A remote parent on a non-root span stays as a link so the
            # in-thread tree keeps single parentage.
            if span.remote_parent is not None:
                span.links = span.links + (span.remote_parent,)
                span.remote_parent = None
            parent.children.append(span)
        else:
            if span.remote_parent is not None:
                span.trace_id = span.remote_parent.trace_id
                span.parent_span_id = span.remote_parent.span_id
            else:
                span.trace_id = self._next_trace_id()
            with self._roots_lock:
                self.roots.append(span)
        stack.append(span)

    def _close(self, span: Span) -> None:
        span.end_s = self.clock()
        # Tolerate exception-driven unwinding: pop through to this span.
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        """All root spans as nested dicts."""
        return [root.to_dict() for root in self.roots]

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome-trace ("traceEvents") JSON object.

        Complete events (``"ph": "X"``) with microsecond timestamps;
        loadable by ``chrome://tracing`` and Perfetto.  A span's
        ``service`` attribute selects its ``pid`` lane (named via
        ``process_name`` metadata); remote parents and links become
        flow events (``"ph": "s"/"f"``) joining spans across lanes.
        """
        events: List[Dict[str, Any]] = []
        services: Dict[str, int] = {}
        # span_id -> (pid, tid, ts) of the rendered event, for flows.
        rendered: Dict[str, Tuple[int, int, float]] = {}
        spans: List[Span] = []
        with self._roots_lock:
            roots = list(self.roots)
        for root in roots:
            spans.extend(root.walk())

        def pid_for(span: Span) -> int:
            service = span.attributes.get("service")
            if not isinstance(service, str):
                return 1
            if service not in services:
                services[service] = len(services) + 2
            return services[service]

        for span in spans:
            if span.start_s is None or span.span_id is None:
                continue
            pid = pid_for(span)
            ts = span.start_s * 1e6
            args = {k: _jsonable(v) for k, v in span.attributes.items()}
            if span.trace_id is not None:
                args["trace_id"] = span.trace_id
                args["span_id"] = span.span_id
            if span.parent_span_id is not None:
                args["parent_span_id"] = span.parent_span_id
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": ts,
                    "dur": span.duration_s * 1e6,
                    "pid": pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
            rendered[span.span_id] = (pid, span.tid, ts)

        # Flow events: cross-process parent edges and explicit links.
        for span in spans:
            if span.span_id is None or span.span_id not in rendered:
                continue
            pid, tid, ts = rendered[span.span_id]
            sources: List[TraceContext] = list(span.links)
            if (
                span.parent_span_id is not None
                and span.parent_span_id in rendered
                and span.trace_id is not None
            ):
                parent_pid, _, _ = rendered[span.parent_span_id]
                if parent_pid != pid:
                    sources.append(
                        TraceContext(span.trace_id, span.parent_span_id)
                    )
            for source in sources:
                if source.span_id not in rendered:
                    continue
                src_pid, src_tid, src_ts = rendered[source.span_id]
                flow_id = f"{source.span_id}->{span.span_id}"
                events.append(
                    {
                        "name": "link",
                        "cat": "trace",
                        "ph": "s",
                        "id": flow_id,
                        "ts": src_ts,
                        "pid": src_pid,
                        "tid": src_tid,
                    }
                )
                events.append(
                    {
                        "name": "link",
                        "cat": "trace",
                        "ph": "f",
                        "bp": "e",
                        "id": flow_id,
                        "ts": ts,
                        "pid": pid,
                        "tid": tid,
                    }
                )

        for service, pid in sorted(services.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": service},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        """Serialise :meth:`to_chrome_trace` to ``path``; returns it."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
        return path


def _jsonable(value: Any) -> Any:
    """Best-effort JSON-safe projection of an attribute value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    try:  # numpy scalars expose item()
        return value.item()
    except AttributeError:
        return str(value)
