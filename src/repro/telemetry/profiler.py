"""Folded-stack (flamegraph) profiles from a recorded span tree.

Where a diagnostic's time goes (the paper's Fig 14 question) is read
off the real code path: every instrumented component already opens
named spans, so :func:`folded_from_tracer` turns a
:class:`~repro.obs.tracing.Tracer`'s span tree into ``path <self-time>``
lines, nested spans folding into ``parent;child`` paths exactly the way
``flamegraph.pl`` and speedscope expect.  ``python -m repro stats
--folded-out FILE`` writes one for an instrumented session.  Spans
record wall time, so this is a wall-clock profile.
"""

from typing import Dict


def folded_from_tracer(tracer, scale: float = 1e6) -> str:
    """Folded-stack lines from a live :class:`~repro.obs.tracing.Tracer`.

    One line per call path carrying its self time (span duration minus
    its children's), summed over repeated calls, as an integer count
    of ``1 / scale`` seconds (default microseconds).  The self times of
    a tree add back up to its root span's duration.
    """
    weights: Dict[str, float] = {}

    def visit(span, prefix: str) -> None:
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
