"""Row-at-a-time CSV oracle for differential tests of the relay encoder.

:meth:`CsvRecordingModel.encode` claims *byte* equality with the loop
it replaced: one row per sample, ``index / sampling_rate_hz`` and every
cell formatted by Python's ``%`` with the model's decimal counts,
joined by commas and newline-terminated.  This module is that loop,
kept as an executable reference.  Convention: a change to the encoder
must keep it in exact agreement with this oracle — change both or
neither.  The golden digests in ``test_session_golden.py`` additionally
pin the relay byte counts of the paper scenarios.
"""

import io

import numpy as np

from repro._util.errors import ValidationError
from repro._util.validation import check_positive
from repro.dsp.recording import CsvRecordingModel


def oracle_encode(
    model: CsvRecordingModel, trace: np.ndarray, sampling_rate_hz: float
) -> bytes:
    """Encode a ``(n_channels, n_samples)`` trace to CSV bytes."""
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 2:
        raise ValidationError(f"trace must be 2-D, got shape {trace.shape}")
    check_positive("sampling_rate_hz", sampling_rate_hz)
    n_channels, n_samples = trace.shape
    buffer = io.StringIO()
    value_format = f"%.{model.decimals}f"
    time_format = f"%.{model.timestamp_decimals}f"
    for index in range(n_samples):
        row = [time_format % (index / sampling_rate_hz)]
        row.extend(value_format % trace[channel, index] for channel in range(n_channels))
        buffer.write(",".join(row))
        buffer.write("\n")
    return buffer.getvalue().encode("ascii")


def explain_mismatch(expected: bytes, got: bytes) -> str:
    """The first differing row of two CSV payloads, for assertion messages."""
    expected_rows = expected.split(b"\n")
    got_rows = got.split(b"\n")
    for number, (want, have) in enumerate(zip(expected_rows, got_rows)):
        if want != have:
            return f"row {number}: oracle {want!r}, encode {have!r}"
    return f"row counts differ: oracle {len(expected_rows)}, encode {len(got_rows)}"
