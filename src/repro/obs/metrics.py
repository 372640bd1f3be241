"""Counters, gauges, and mergeable quantile histograms.

A :class:`MetricsRegistry` is a named bag of instruments; the module
holds one process-wide default registry (``get_registry()``) that an
:class:`~repro.obs.observer.Observer` uses unless given its own.  The
registry is resettable so test cases stay isolated.

Histograms are :class:`ExponentialHistogram` sketches: buckets grow
geometrically by ``growth``, so any quantile estimate is within one
bucket (a relative error of ``growth - 1``) of the true value, and two
sketches over disjoint observation streams merge by adding bucket
counts.  One instrument therefore serves a single process and the
fleet roll-up (:func:`repro.fleet.rollup_telemetry`), where per-shard
sketches cross the process boundary as lossless
:meth:`~ExponentialHistogram.state` dumps and merge bucket by bucket.

All instruments and the registry itself are thread-safe: fleet workers
(:mod:`repro.serving`) share one registry, so every mutation happens
under a per-instrument lock and instrument creation under a registry
lock.  A snapshot taken mid-``observe`` from another thread is
internally consistent (count, sum and bucket totals agree).
"""

import math
import threading
from typing import Any, Dict, Optional, Sequence

from repro._util.errors import ConfigurationError

#: Default geometric bucket growth: quantiles are within ~15 % of truth.
DEFAULT_GROWTH = 1.15

#: Observations at or below this magnitude land in the zero bucket.
DEFAULT_MIN_VALUE = 1e-9


class Counter:
    """Monotonically increasing count (float-valued: scaled bead counts
    and byte totals are fractional in this codebase)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += float(amount)


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "_value", "_set", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._set = False
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        """Most recent reading (0.0 before the first set)."""
        return self._value

    def set(self, value: float) -> None:
        """Record a new reading."""
        with self._lock:
            self._value = float(value)
            self._set = True

    def add(self, delta: float) -> float:
        """Atomically shift the reading by ``delta``; returns the new
        value (queue-depth style gauges tracked from many threads)."""
        with self._lock:
            self._value += float(delta)
            self._set = True
            return self._value


class ExponentialHistogram:
    """A mergeable quantile sketch over geometric buckets.

    Keeps an exact ``count``/``sum``/``min``/``max`` alongside the
    bucket counts.

    Parameters
    ----------
    name:
        Instrument name (``serve.e2e_s`` style dotted path).
    growth:
        Bucket boundary ratio; bounds the relative quantile error at
        ``growth - 1``.  Must be > 1.
    min_value:
        Magnitude below which observations count into the zero bucket
        (negative observations are refused — every instrumented
        quantity here is a duration, size or count).
    """

    __slots__ = (
        "name", "growth", "min_value", "_log_growth", "_buckets",
        "_zero_count", "_count", "_sum", "_min", "_max", "_lock",
    )

    def __init__(
        self,
        name: str,
        growth: float = DEFAULT_GROWTH,
        min_value: float = DEFAULT_MIN_VALUE,
    ) -> None:
        if growth <= 1.0:
            raise ConfigurationError(f"growth must be > 1, got {growth}")
        if min_value <= 0.0:
            raise ConfigurationError(f"min_value must be > 0, got {min_value}")
        self.name = name
        self.growth = float(growth)
        self.min_value = float(min_value)
        self._log_growth = math.log(self.growth)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _index_for(self, value: float) -> int:
        """Bucket index of ``value``; bucket ``i`` spans
        ``[min_value * growth**i, min_value * growth**(i+1))``."""
        return int(math.floor(math.log(value / self.min_value) / self._log_growth))

    def _upper_bound(self, index: int) -> float:
        return self.min_value * self.growth ** (index + 1)

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Add one observation (must be >= 0)."""
        value = float(value)
        if value < 0.0:
            raise ConfigurationError(
                f"histogram {self.name!r} observations must be >= 0, got {value}"
            )
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            if value <= self.min_value:
                self._zero_count += 1
            else:
                index = self._index_for(value)
                self._buckets[index] = self._buckets.get(index, 0) + 1

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Exact sum of observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Exact mean (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Quantile estimate, ``q`` in [0, 100].

        Walks the buckets in order until the target rank is covered and
        returns that bucket's upper bound, clamped to the exact
        min/max; relative error is bounded by ``growth - 1``.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError("percentile q must be within [0, 100]")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        assert self._min is not None and self._max is not None
        rank = q / 100.0 * self._count
        seen = self._zero_count
        if seen >= rank:
            return self._min
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                estimate = self._upper_bound(index)
                return max(self._min, min(self._max, estimate))
        return self._max

    def summary(self) -> Dict[str, float]:
        """count / mean / min / p50 / p95 / p99 / max, one lock hold."""
        with self._lock:
            low = self._min if self._min is not None else 0.0
            high = self._max if self._max is not None else 0.0
            return {
                "count": self._count,
                "mean": self._sum / self._count if self._count else 0.0,
                "min": low,
                "p50": self._percentile_locked(50.0),
                "p95": self._percentile_locked(95.0),
                "p99": self._percentile_locked(99.0),
                "max": high,
            }

    # ------------------------------------------------------------------
    def merge_from(self, other: "ExponentialHistogram") -> None:
        """Fold ``other``'s state into this sketch (fleet roll-up).

        Requires matching bucket geometry — merging differently shaped
        sketches would silently misplace counts.
        """
        if (other.growth, other.min_value) != (self.growth, self.min_value):
            raise ConfigurationError(
                f"cannot merge {other.name!r} into {self.name!r}: "
                "bucket geometry differs"
            )
        # Lock ordering by id() prevents a deadlock if two threads
        # merge the pair in opposite directions.
        first, second = sorted((self, other), key=id)
        with first._lock, second._lock:
            self._count += other._count
            self._sum += other._sum
            self._zero_count += other._zero_count
            for index, n in other._buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n
            if other._min is not None:
                self._min = (
                    other._min if self._min is None else min(self._min, other._min)
                )
            if other._max is not None:
                self._max = (
                    other._max if self._max is None else max(self._max, other._max)
                )

    # ------------------------------------------------------------------
    # Wire state (cross-process roll-up)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """Plain-dict dump of the full sketch state.

        Unlike :meth:`summary` (which keeps only derived quantiles),
        the state is *lossless*: a shard process ships it over the
        message transport and :meth:`from_state` rebuilds a sketch that
        merges exactly as the original would — the cross-shard p99 is
        computed from real bucket counts, never from per-shard
        percentiles.
        """
        with self._lock:
            return {
                "name": self.name,
                "growth": self.growth,
                "min_value": self.min_value,
                "buckets": dict(self._buckets),
                "zero_count": self._zero_count,
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ExponentialHistogram":
        """Rebuild a sketch from :meth:`state` output (typed refusal)."""
        try:
            sketch = cls(
                str(state["name"]),
                growth=float(state["growth"]),  # type: ignore[arg-type]
                min_value=float(state["min_value"]),  # type: ignore[arg-type]
            )
            sketch._buckets = {
                int(index): int(n)
                for index, n in dict(state["buckets"]).items()  # type: ignore[call-overload]
            }
            sketch._zero_count = int(state["zero_count"])  # type: ignore[arg-type]
            sketch._count = int(state["count"])  # type: ignore[arg-type]
            sketch._sum = float(state["sum"])  # type: ignore[arg-type]
            sketch._min = None if state["min"] is None else float(state["min"])  # type: ignore[arg-type]
            sketch._max = None if state["max"] is None else float(state["max"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed histogram state: {exc}") from exc
        return sketch


class MetricsRegistry:
    """Named instruments, created on first use.

    A name belongs to exactly one instrument kind; re-requesting it as
    a different kind raises rather than silently forking the data.
    Every histogram uses the default bucket geometry, so histograms
    from any two registries (one per fleet shard, say) merge.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, ExponentialHistogram] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        with self._lock:
            self._check_kind(name, self._counters)
            return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        with self._lock:
            self._check_kind(name, self._gauges)
            return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> ExponentialHistogram:
        """Get or create the histogram ``name``."""
        with self._lock:
            self._check_kind(name, self._histograms)
            return self._histograms.setdefault(name, ExponentialHistogram(name))

    def _check_kind(self, name: str, expected: Dict[str, Any]) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if table is not expected and name in table:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a different kind"
                )

    # ------------------------------------------------------------------
    @property
    def n_metrics(self) -> int:
        """Number of distinct instruments."""
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def names(self) -> Sequence[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted([*self._counters, *self._gauges, *self._histograms])

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict dump: counter/gauge values and histogram summaries."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": {n: c.value for n, c in counters},
            "gauges": {n: g.value for n, g in gauges},
            "histograms": {n: h.summary() for n, h in histograms},
        }

    def histogram_states(self) -> Dict[str, Dict[str, object]]:
        """Lossless :meth:`ExponentialHistogram.state` of every histogram."""
        with self._lock:
            histograms = sorted(self._histograms.items())
        return {n: h.state() for n, h in histograms}


#: Process-wide default registry (resettable; see ``get_registry``).
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def reset_registry() -> None:
    """Reset the process-wide default registry (test isolation)."""
    _DEFAULT_REGISTRY.reset()
