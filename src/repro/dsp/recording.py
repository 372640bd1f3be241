"""Capture-file size and compression model (paper §VII-B).

The prototype streams measurements into CSV files — a 3 hour run
produced ~600 MB, which zip compression on the phone reduced to
~240 MB before upload.  :class:`CsvRecordingModel` reproduces the CSV
encoding (one row per sample, one column per carrier, fixed decimal
precision) so byte counts can be *measured* on synthetic traces and
extrapolated, and :func:`compressed_size_bytes` applies real DEFLATE
(``zlib``) to measure the compression ratio instead of assuming one.
"""

import io
import math
import zlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro._util.errors import ValidationError
from repro._util.validation import check_positive


@dataclass(frozen=True)
class CsvRecordingModel:
    """CSV encoder matching the prototype's capture format.

    Each row is ``timestamp,ch0,ch1,...`` with fixed precision, newline
    terminated.  ``decimals`` controls the recorded precision; 6 decimal
    digits comfortably exceeds the lock-in's effective resolution.
    """

    decimals: int = 6
    timestamp_decimals: int = 4

    def __post_init__(self) -> None:
        if self.decimals < 1 or self.timestamp_decimals < 1:
            raise ValidationError("decimal counts must be >= 1")

    def encode(self, trace: np.ndarray, sampling_rate_hz: float) -> bytes:
        """Encode a ``(n_channels, n_samples)`` trace to CSV bytes."""
        trace = np.asarray(trace, dtype=float)
        if trace.ndim != 2:
            raise ValidationError(f"trace must be 2-D, got shape {trace.shape}")
        check_positive("sampling_rate_hz", sampling_rate_hz)
        n_channels, n_samples = trace.shape
        buffer = io.StringIO()
        value_format = f"%.{self.decimals}f"
        time_format = f"%.{self.timestamp_decimals}f"
        for index in range(n_samples):
            row = [time_format % (index / sampling_rate_hz)]
            row.extend(value_format % trace[channel, index] for channel in range(n_channels))
            buffer.write(",".join(row))
            buffer.write("\n")
        return buffer.getvalue().encode("ascii")

    def decode(
        self, payload: bytes, max_bytes: int = 1 << 27
    ) -> Tuple[np.ndarray, float]:
        """Inverse of :meth:`encode`: CSV bytes back to a trace.

        Returns ``(trace, sampling_rate_hz)`` where the trace has shape
        ``(n_channels, n_samples)`` and the rate is inferred from the
        first timestamp step (``inf`` for a single-row capture).

        This parser faces attacker-supplied uploads, so its only
        failure mode is :class:`ValidationError` — non-ASCII bytes,
        ragged rows, non-numeric or non-finite cells, non-increasing
        timestamps, and payloads over ``max_bytes`` are all refused.
        """
        try:
            payload = bytes(payload)
        except (TypeError, ValueError) as error:
            raise ValidationError(f"payload is not bytes-like: {error}") from error
        if len(payload) > max_bytes:
            raise ValidationError(
                f"payload has {len(payload)} bytes; cap is {max_bytes}"
            )
        try:
            text = payload.decode("ascii")
        except UnicodeDecodeError as error:
            raise ValidationError(f"payload is not ASCII CSV: {error}") from error
        timestamps = []
        rows = []
        n_columns = None
        for line_number, line in enumerate(text.split("\n"), start=1):
            if not line:
                continue
            cells = line.split(",")
            if n_columns is None:
                n_columns = len(cells)
                if n_columns < 2:
                    raise ValidationError("rows need a timestamp plus >= 1 channel")
            elif len(cells) != n_columns:
                raise ValidationError(
                    f"row {line_number} has {len(cells)} columns; expected {n_columns}"
                )
            try:
                values = [float(cell) for cell in cells]
            except ValueError as error:
                raise ValidationError(
                    f"row {line_number} has a non-numeric cell: {error}"
                ) from error
            if not all(math.isfinite(v) for v in values):
                raise ValidationError(f"row {line_number} has non-finite values")
            if timestamps and values[0] <= timestamps[-1]:
                raise ValidationError(
                    f"row {line_number} timestamp {values[0]} does not increase"
                )
            timestamps.append(values[0])
            rows.append(values[1:])
        if not rows:
            raise ValidationError("payload contains no sample rows")
        trace = np.asarray(rows, dtype=float).T
        if len(timestamps) > 1:
            step = timestamps[1] - timestamps[0]
            sampling_rate_hz = 1.0 / step if step > 0 else math.inf
        else:
            sampling_rate_hz = math.inf
        return trace, sampling_rate_hz

    def bytes_per_sample(self, n_channels: int) -> float:
        """Analytic estimate of bytes per sample row.

        timestamp (~2 + timestamp_decimals + separators) plus per
        channel (sign-less '0.' + decimals + comma), plus the newline.
        """
        if n_channels < 1:
            raise ValidationError("n_channels must be >= 1")
        timestamp_bytes = 6 + self.timestamp_decimals
        channel_bytes = 3 + self.decimals
        return timestamp_bytes + n_channels * channel_bytes + 1

    def estimate_capture_bytes(
        self, duration_s: float, sampling_rate_hz: float, n_channels: int
    ) -> float:
        """Estimated raw CSV size of a capture of ``duration_s``."""
        check_positive("duration_s", duration_s)
        check_positive("sampling_rate_hz", sampling_rate_hz)
        n_samples = duration_s * sampling_rate_hz
        return n_samples * self.bytes_per_sample(n_channels)


def compressed_size_bytes(payload: bytes, level: int = 6) -> int:
    """DEFLATE-compressed size of ``payload`` (the phone's zip step)."""
    if not 0 <= level <= 9:
        raise ValidationError(f"level must be in 0..9, got {level}")
    return len(zlib.compress(payload, level))


def compression_ratio(payload: bytes, level: int = 6) -> float:
    """Compressed / raw size ratio; the paper reports ~0.4 on captures."""
    if not payload:
        raise ValidationError("payload must be non-empty")
    return compressed_size_bytes(payload, level) / len(payload)
