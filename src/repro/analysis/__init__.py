"""Evaluation analytics: calibration fits, metrics, entropy helpers.

These utilities compute the derived quantities the paper's figures
report: the measured-vs-estimated calibration lines of Figures 12/13,
classification accuracy/confusion for the Figure 16 clusters, and
entropy accounting for keys and passwords.
"""

from repro.analysis.calibration import (
    CalibrationCurve,
    calibrate_delivery_efficiency,
    fit_calibration,
)
from repro.analysis.entropy import shannon_entropy_bits, uniform_entropy_bits
from repro.analysis.metrics import (
    ConfusionMatrix,
    classification_accuracy,
    count_error_statistics,
    mean_absolute_percentage_error,
)
from repro.analysis.keyaudit import KeyAuditReport, audit_schedule
from repro.analysis.montecarlo import SessionStatistics, run_sessions
from repro.analysis.repeatability import (
    counting_cv,
    empirical_cv,
    is_repeatable,
    required_sample_size,
)

__all__ = [
    "KeyAuditReport",
    "audit_schedule",
    "SessionStatistics",
    "run_sessions",
    "counting_cv",
    "empirical_cv",
    "is_repeatable",
    "required_sample_size",
    "CalibrationCurve",
    "calibrate_delivery_efficiency",
    "fit_calibration",
    "shannon_entropy_bits",
    "uniform_entropy_bits",
    "ConfusionMatrix",
    "classification_accuracy",
    "count_error_statistics",
    "mean_absolute_percentage_error",
]
