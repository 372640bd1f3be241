"""Terminal rendering of traces, metrics and event logs.

Used by the ``python -m repro stats`` subcommand; kept separate from
the recording modules so sinks stay presentation-free.
:func:`folded_from_tracer` renders a span tree as folded stacks, the
wall-clock profile ``stats --folded-out`` writes for ``flamegraph.pl``
and speedscope.
"""

from typing import Dict, List

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer


def format_span_tree(tracer: Tracer, unit_ms: bool = True) -> str:
    """ASCII tree of every recorded span with durations."""
    lines: List[str] = []
    for root in tracer.roots:
        _format_span(root, prefix="", is_last=True, is_root=True, lines=lines, unit_ms=unit_ms)
    return "\n".join(lines)


def _format_span(
    span: Span, prefix: str, is_last: bool, is_root: bool, lines: List[str], unit_ms: bool
) -> None:
    if unit_ms:
        duration = f"{span.duration_s * 1e3:9.3f} ms"
    else:
        duration = f"{span.duration_s:9.6f} s"
    attrs = ""
    if span.attributes:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
        attrs = f"  [{rendered}]"
    if is_root:
        lines.append(f"{span.name:<28} {duration}{attrs}")
        child_prefix = ""
    else:
        connector = "└─ " if is_last else "├─ "
        label = f"{prefix}{connector}{span.name}"
        lines.append(f"{label:<28} {duration}{attrs}")
        child_prefix = prefix + ("   " if is_last else "│  ")
    for index, child in enumerate(span.children):
        _format_span(
            child,
            prefix=child_prefix,
            is_last=index == len(span.children) - 1,
            is_root=False,
            lines=lines,
            unit_ms=unit_ms,
        )


def format_metrics_table(registry: MetricsRegistry) -> str:
    """Fixed-width table of every counter, gauge and histogram."""
    snapshot = registry.snapshot()
    rows: List[List[str]] = []
    for name, value in snapshot["counters"].items():
        rows.append([name, "counter", _number(value)])
    for name, value in snapshot["gauges"].items():
        rows.append([name, "gauge", _number(value)])
    for name, summary in snapshot["histograms"].items():
        detail = (
            f"n={summary['count']} mean={_number(summary['mean'])} "
            f"p50={_number(summary['p50'])} p95={_number(summary['p95'])} "
            f"p99={_number(summary['p99'])}"
        )
        rows.append([name, "histogram", detail])
    rows.sort(key=lambda row: row[0])
    headers = ["metric", "kind", "value"]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "-" * (sum(widths) + 4),
    ]
    lines.extend("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)
    return "\n".join(lines)


def format_event_log(events: EventLog, limit: int = 0) -> str:
    """One line per retained audit event, oldest first."""
    retained = events.events
    if limit:
        retained = retained[-limit:]
    lines = []
    for event in retained:
        fields = " ".join(f"{k}={v}" for k, v in event.fields)
        lines.append(f"#{event.sequence:<5} {event.kind:<22} {fields}")
    return "\n".join(lines)


def _number(value: float) -> str:
    """Compact numeric rendering (integers without a trailing .0)."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def folded_from_tracer(tracer: Tracer, scale: float = 1e6) -> str:
    """Folded-stack lines from a live :class:`~repro.obs.tracing.Tracer`.

    One line per call path carrying its self time (span duration minus
    its children's), summed over repeated calls, as an integer count
    of ``1 / scale`` seconds (default microseconds).  The self times of
    a tree add back up to its root span's duration.
    """
    weights: Dict[str, float] = {}

    def visit(span: Span, prefix: str) -> None:
        path = f"{prefix};{span.name}" if prefix else span.name
        child_total = sum(child.duration_s for child in span.children)
        weights[path] = weights.get(path, 0.0) + max(
            0.0, span.duration_s - child_total
        )
        for child in span.children:
            visit(child, path)

    for root in tracer.roots:
        visit(root, "")
    return "\n".join(f"{path} {int(round(s * scale))}" for path, s in sorted(weights.items()))
