"""Capture-file size and compression model (paper §VII-B).

The prototype streams measurements into CSV files — a 3 hour run
produced ~600 MB, which zip compression on the phone reduced to
~240 MB before upload.  :class:`CsvRecordingModel` reproduces the CSV
encoding (one row per sample, one column per carrier, fixed decimal
precision) so byte counts can be *measured* on synthetic traces and
extrapolated, and :func:`compressed_size_bytes` applies real DEFLATE
(``zlib``) to measure the compression ratio instead of assuming one.

The encoder writes the bytes Python's ``%.Nf`` formatter would, but
block-vectorised: :data:`BLOCK_ROWS` rows at a time, each cell is
scaled to a fixed-point integer ``rint(|x|·10^N)`` and its sign,
digits, point and separator are written into a ``uint8`` matrix whose
padding is ``0`` and dropped.  Below :data:`FAST_PATH_LIMIT` the
scaled product is within ``2^-21`` of the exact decimal value, so
``rint`` agrees with the correctly rounded formatter on every cell more
than :data:`TIE_WINDOW` from a ``.5`` tie.  A row holding a non-finite
cell, a cell scaled to ``>= FAST_PATH_LIMIT`` or a near-tie cell is
formatted by ``%`` instead.  ``docs/dsp.md`` ("Relay encode and
DEFLATE") has the argument and the measured costs.
"""

import math
import zlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro._util.errors import ValidationError
from repro._util.validation import check_positive

#: Rows encoded per vectorised block; bounds the encoder's scratch
#: memory (well under 2 MB at 5 channels) whatever the capture length.
BLOCK_ROWS = 8192
#: Largest scaled magnitude ``|x|·10^decimals`` the fixed-point path
#: formats.  Below it the float product errs by at most ``2^-21``.
FAST_PATH_LIMIT = float(2**31)
#: Cells whose scaled fraction lies this close to ``.5`` fall back to
#: ``%``: the product's error could put them on the wrong side of a tie.
TIE_WINDOW = 1e-6

_NEWLINE, _COMMA, _POINT, _MINUS, _ZERO = b"\n,.-0"


def _cell_matrix(cells: np.ndarray, decimals: int) -> Tuple[np.ndarray, np.ndarray]:
    """Format ``(k, rows)`` cells as ``[-]int.frac,`` on the fast path.

    Returns a ``(rows, k·width)`` ``uint8`` matrix, in which an absent
    sign and leading zeros are 0, and a ``(rows,)`` mask of the rows
    holding a cell the fast path cannot format.
    """
    # float(10**d) is 10^d rounded once; past the float range every
    # product is inf or NaN, so every cell falls back.
    scale = float(10**decimals) if decimals <= 308 else math.inf
    scaled = np.abs(cells) * scale
    unformattable = ~(scaled < FAST_PATH_LIMIT) | (
        np.abs(scaled - np.floor(scaled) - 0.5) < TIE_WINDOW
    )
    scaled[unformattable] = 0.0
    magnitudes = np.rint(scaled).astype(np.uint32)

    int_digits = len(str(int(magnitudes.max(initial=0)) // 10**decimals))
    n_digits = int_digits + decimals
    digits = np.empty((n_digits,) + magnitudes.shape, dtype=np.uint8)
    rest = magnitudes.copy()
    digit = np.empty_like(rest)
    for place in range(n_digits - 1, -1, -1):
        np.divmod(rest, 10, out=(rest, digit))
        digits[place] = digit
    digits += _ZERO
    for place in range(int_digits - 1):
        digits[place] *= magnitudes >= 10 ** (n_digits - 1 - place)

    n_cells, n_rows = cells.shape
    out = np.empty((n_rows, n_cells, 3 + n_digits), dtype=np.uint8)
    rows_first = (2, 1, 0)
    out[..., 0] = (np.signbit(cells) * np.uint8(_MINUS)).T
    out[..., 1 : 1 + int_digits] = digits[:int_digits].transpose(rows_first)
    out[..., 1 + int_digits] = _POINT
    out[..., 2 + int_digits : -1] = digits[int_digits:].transpose(rows_first)
    out[..., -1] = _COMMA
    return out.reshape(n_rows, -1), unformattable.any(axis=0)


def _packed(matrix: np.ndarray) -> bytes:
    """A cell matrix's bytes with the 0 padding dropped."""
    return matrix[matrix != 0].tobytes()


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
        rate = check_positive("sampling_rate_hz", sampling_rate_hz)
        n_samples = trace.shape[1]
        # inf/NaN and overflowing cells are expected here: they only
        # mark rows for the ``%`` fallback.
        with np.errstate(all="ignore"):
            return b"".join(
                self._encode_block(trace, start, min(start + BLOCK_ROWS, n_samples), rate)
                for start in range(0, n_samples, BLOCK_ROWS)
            )

    def _encode_block(
        self, trace: np.ndarray, start: int, stop: int, rate: float
    ) -> bytes:
        """CSV bytes of rows ``start:stop``."""
        # The same IEEE division as ``index / rate`` on each row.
        timestamps = np.arange(start, stop, dtype=float)[np.newaxis] / rate
        time_cells, time_fallback = _cell_matrix(timestamps, self.timestamp_decimals)
        value_cells, value_fallback = _cell_matrix(trace[:, start:stop], self.decimals)
        matrix = np.hstack([time_cells, value_cells])
        matrix[:, -1] = _NEWLINE
        pieces = []
        first = 0
        for row in np.flatnonzero(time_fallback | value_fallback).tolist():
            pieces.append(_packed(matrix[first:row]))
            pieces.append(self._format_row(trace[:, start + row], start + row, rate))
            first = row + 1
        pieces.append(_packed(matrix[first:]))
        return b"".join(pieces)

    def _format_row(self, values: np.ndarray, index: int, rate: float) -> bytes:
        """One row through Python's ``%`` formatter (the exact fallback)."""
        row = [f"%.{self.timestamp_decimals}f" % (index / rate)]
        row.extend(f"%.{self.decimals}f" % value for value in values.tolist())
        return (",".join(row) + "\n").encode("ascii")

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

    def bytes_per_sample(self, n_channels: int, duration_s: float) -> float:
        """Analytic estimate of the mean bytes per row of a capture.

        The timestamp is its integer digits (averaged over
        ``[0, duration_s)``), a point, ``timestamp_decimals`` and a
        comma.  Each channel is a sign-less ``0.`` plus ``decimals``
        and one separator; the last channel's separator is the newline.
        """
        if n_channels < 1:
            raise ValidationError("n_channels must be >= 1")
        check_positive("duration_s", duration_s)
        timestamp_bytes = _mean_integer_digits(duration_s) + 2 + self.timestamp_decimals
        channel_bytes = 3 + self.decimals
        return timestamp_bytes + n_channels * channel_bytes

    def estimate_capture_bytes(
        self, duration_s: float, sampling_rate_hz: float, n_channels: int
    ) -> float:
        """Estimated raw CSV size of a capture of ``duration_s``."""
        check_positive("duration_s", duration_s)
        check_positive("sampling_rate_hz", sampling_rate_hz)
        n_samples = duration_s * sampling_rate_hz
        return n_samples * self.bytes_per_sample(n_channels, duration_s)


def _mean_integer_digits(duration_s: float) -> float:
    """Mean integer-digit count of a timestamp uniform on ``[0, duration_s)``."""
    total, low, high, digits = 0.0, 0.0, 10.0, 1
    while high < duration_s:
        total += digits * (high - low)
        low, high, digits = high, 10.0 * high, digits + 1
    return (total + digits * (duration_s - low)) / duration_s


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
