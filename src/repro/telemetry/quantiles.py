"""Compatibility home of the quantile sketch.

The mergeable :class:`~repro.obs.metrics.ExponentialHistogram` is the
one histogram model and lives in :mod:`repro.obs.metrics`.
"""

# Kept importable from here because the end-to-end benchmark
# (benchmarks/e2e/workloads.py) rebuilds shard sketches with it.
from repro.obs.metrics import ExponentialHistogram  # noqa: F401
