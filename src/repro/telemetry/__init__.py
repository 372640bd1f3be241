"""Fleet telemetry: SLOs, the dashboard, span-tree profiles, benchmarks.

Builds on :mod:`repro.obs` (which stays dependency-free and
behaviour-neutral, and owns the one histogram model, the mergeable
:class:`~repro.obs.metrics.ExponentialHistogram`) with the
operator-facing layer:

* :mod:`repro.telemetry.slo` — declarative SLO rules with
  multi-window burn-rate alerting;
* :mod:`repro.telemetry.dashboard` — the :class:`TelemetryObserver`
  drop-in and the pure-text ``repro top`` frame renderer;
* :mod:`repro.telemetry.profiler` — folded-stack (flamegraph) output
  from a recorded span tree;
* :mod:`repro.telemetry.bench` — the ``BENCH_*.json`` benchmark
  trajectory runner and its CI regression gate.
"""

from repro.telemetry.bench import (
    DEFAULT_AREAS,
    SCHEMA,
    Regression,
    compare_artifacts,
    load_artifact,
    make_artifact,
    run_area,
    run_benchmarks,
    write_artifact,
)
from repro.telemetry.dashboard import (
    TelemetryObserver,
    render_dashboard,
    render_observer,
)
from repro.telemetry.profiler import folded_from_tracer
from repro.telemetry.slo import (
    DEFAULT_RULES,
    LONG_WINDOW_S,
    PAGE_BURN,
    SHORT_WINDOW_S,
    WARN_BURN,
    SloEngine,
    SloRule,
    SloStatus,
)

__all__ = [
    "SloRule",
    "SloEngine",
    "SloStatus",
    "DEFAULT_RULES",
    "PAGE_BURN",
    "WARN_BURN",
    "SHORT_WINDOW_S",
    "LONG_WINDOW_S",
    "TelemetryObserver",
    "render_dashboard",
    "render_observer",
    "folded_from_tracer",
    "SCHEMA",
    "DEFAULT_AREAS",
    "Regression",
    "make_artifact",
    "load_artifact",
    "write_artifact",
    "compare_artifacts",
    "run_area",
    "run_benchmarks",
]
