"""The telemetry observer and the ``repro top`` terminal dashboard.

:class:`TelemetryObserver` is a drop-in
:class:`~repro.obs.observer.Observer` that additionally routes every
``observe()`` through the :class:`~repro.telemetry.slo.SloEngine`'s
latency hook.  Components instrumented against the plain observer API
pick this up without change — the fleet scheduler, cloud server and
authenticator never learn telemetry exists.

:func:`render_dashboard` is a pure function from (metrics, SLO engine,
now) to a fixed-width text frame, so the ``repro top`` output
golden-files cleanly under a :class:`~repro.obs.clock.ManualClock`.
"""

from typing import Any, List, Optional, Sequence

from repro.obs.clock import Clock
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.tracing import Tracer
from repro.telemetry.slo import DEFAULT_RULES, SloEngine, SloRule

WIDTH = 72


class TelemetryObserver(Observer):
    """An observer whose histogram observations also feed the SLOs.

    Parameters
    ----------
    engine:
        SLO engine; built over ``rules`` and this observer's metrics
        registry when omitted.
    rules:
        SLO rules for the default-built engine.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        clock: Optional[Clock] = None,
        engine: Optional[SloEngine] = None,
        rules: Sequence[SloRule] = DEFAULT_RULES,
    ) -> None:
        super().__init__(tracer=tracer, metrics=metrics, events=events, clock=clock)
        if engine is None:
            engine_clock = clock if clock is not None else self.tracer.clock
            engine = SloEngine(self.metrics, rules=rules, clock=engine_clock)
        self.engine = engine

    def observe(self, name: str, value: float) -> None:
        """Record into the registry histogram and the SLO latency hook."""
        super().observe(name, value)
        self.engine.observe_hook(name, value)

    def tick(self, now_s: Optional[float] = None) -> None:
        """Snapshot SLO counters (delegates to the engine)."""
        self.engine.tick(now_s=now_s)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def _rule_line(width: int, title: str) -> str:
    pad = max(0, width - len(title) - 5)
    return f"== {title} " + "=" * pad


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return f"{int(value)}"
    return f"{value:.4g}"


def render_dashboard(
    metrics: MetricsRegistry,
    engine: Optional[SloEngine],
    now_s: float,
    width: int = WIDTH,
    max_rows: int = 30,
) -> str:
    """One ``repro top`` frame as plain text.

    Pure: reads instrument state, writes nothing, takes time as an
    argument — identical inputs render the identical frame.
    """
    lines: List[str] = []
    lines.append(_rule_line(width, f"fleet telemetry @ t={now_s:.1f}s"))

    if engine is not None:
        lines.append(_rule_line(width, "SLOs (burn = error-rate / budget)"))
        for status in engine.status(now_s=now_s):
            lines.append(status.format())

    snapshot = metrics.snapshot()
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    if counters or gauges:
        lines.append(_rule_line(width, "counters & gauges"))
        rows: List[Any] = sorted(counters.items()) + sorted(
            (f"{name} (gauge)", value) for name, value in gauges.items()
        )
        for name, value in rows[:max_rows]:
            lines.append(f"{name:<44} {_format_value(value):>12}")
        if len(rows) > max_rows:
            lines.append(f"... {len(rows) - max_rows} more")

    histograms = snapshot["histograms"]
    if histograms:
        lines.append(_rule_line(width, "latency quantiles (exp-bucket sketch)"))
        header = (
            f"{'histogram':<26} {'count':>6} {'p50':>8} {'p95':>8} "
            f"{'p99':>8} {'max':>8}"
        )
        lines.append(header)
        for name, summary in sorted(histograms.items()):
            lines.append(
                f"{name:<26} {int(summary['count']):>6} "
                f"{summary['p50']:>8.4f} {summary['p95']:>8.4f} "
                f"{summary['p99']:>8.4f} {summary['max']:>8.4f}"
            )

    lines.append(_rule_line(width, "end"))
    return "\n".join(lines)


def render_observer(
    observer: TelemetryObserver, now_s: Optional[float] = None, width: int = WIDTH
) -> str:
    """Render one telemetry observer's full state as a dashboard frame."""
    now = observer.engine.clock() if now_s is None else now_s
    return render_dashboard(observer.metrics, observer.engine, now, width=width)
