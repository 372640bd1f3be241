"""Peak detection on detrended traces (paper §VI-C).

"Peak detection is achieved by setting a minimum threshold on the data
section of one minus the detrended subsequence."  We detrend each
channel, form ``1 - detrended`` (dips become positive peaks), and apply
:func:`scipy.signal.find_peaks` with a depth threshold and a minimum
separation.  Each detected peak records its timestamp, depth, FWHM and
its per-carrier amplitude vector, which is everything the decryptor and
the authentication classifier consume.

:meth:`PeakDetector.detect` runs on the fused single-trace pass in
:mod:`repro.dsp.fused`; the staged formulation it replaced lives on as
the differential-test oracle (``tests/_dsp_oracle.py``).
"""

from dataclasses import FrozenInstanceError, dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro._util.errors import ValidationError
from repro._util.validation import check_positive
from repro.dsp.detrend import DetrendConfig


@dataclass(frozen=True, eq=False)
class DetectedPeak:
    """One peak found on the encrypted (or plaintext) trace.

    ``amplitudes`` is the fractional dip depth per acquisition channel
    measured at this peak's sample index; ``depth`` is the depth on the
    detection channel.

    Peaks compare by value, field by field, with ``amplitudes``
    compared as arrays (IEEE semantics: ``-0.0 == 0.0``, NaN equals
    nothing).  The hash covers the scalar fields only.
    """

    time_s: float
    depth: float
    width_s: float
    amplitudes: np.ndarray
    sample_index: int

    def __post_init__(self) -> None:
        amplitudes = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        object.__setattr__(self, "amplitudes", amplitudes)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return bool(
            self.time_s == other.time_s
            and self.depth == other.depth
            and self.width_s == other.width_s
            and self.sample_index == other.sample_index
            and np.array_equal(self.amplitudes, other.amplitudes)
        )

    def __hash__(self) -> int:
        return hash((self.time_s, self.depth, self.width_s, self.sample_index))


class PeakColumns(NamedTuple):
    """A report's peaks as parallel float64/int64 columns, in order.

    ``amplitudes`` is ``(n_peaks, n_channels)``: row ``j`` is peak
    ``j``'s :attr:`DetectedPeak.amplitudes`.
    """

    time_s: np.ndarray
    depth: np.ndarray
    width_s: np.ndarray
    amplitudes: np.ndarray
    sample_index: np.ndarray

    @classmethod
    def from_rows(
        cls,
        time_s: Sequence[float],
        depth: Sequence[float],
        width_s: Sequence[float],
        amplitudes: Sequence[np.ndarray],
        sample_index: Sequence[int],
    ) -> "PeakColumns":
        """Columns from per-peak values, one sequence per field.

        Raises :class:`ValidationError` when the peaks cannot be held
        as columns: amplitude rows that are not flat or not all one
        length, or a sample index outside int64.  An empty report gets
        a ``(0, 0)`` amplitude matrix.
        """
        try:
            matrix = np.array(amplitudes, dtype=float)
        except ValueError as error:
            raise ValidationError(f"peak amplitude rows are ragged: {error}") from None
        if matrix.shape == (0,):
            matrix = matrix.reshape(0, 0)
        if matrix.ndim != 2:
            raise ValidationError(
                f"peak amplitude rows form a {matrix.ndim}-D array, not a matrix"
            )
        try:
            index = np.array(sample_index, dtype=np.int64)
        except OverflowError as error:
            raise ValidationError(f"peak sample index outside int64: {error}") from None
        return cls(
            np.array(time_s, dtype=float),
            np.array(depth, dtype=float),
            np.array(width_s, dtype=float),
            matrix,
            index,
        )

    def equals(self, other: "PeakColumns") -> bool:
        """Value equality of the peaks two column sets hold.

        Every column compares as an array, so NaN equals nothing; two
        empty sets are equal whatever their channel count.
        """
        if self.sample_index.shape[0] != other.sample_index.shape[0]:
            return False
        if self.sample_index.shape[0] == 0:
            return True
        return all(
            mine is theirs or np.array_equal(mine, theirs)
            for mine, theirs in zip(self, other)
        )


class PeakReport:
    """Everything the analysis side returns to the controller.

    The report deliberately contains *only* ciphertext-domain facts:
    encoded peak count, timestamps, depths, widths and channel
    amplitudes (paper §IV-A: "returns encoded peak count, with
    associated time-stamps, amplitudes and widths").

    A report holds its peaks either as :class:`PeakColumns`
    (:meth:`from_columns`: what both detectors emit and what the record
    store keeps) or as :class:`DetectedPeak` rows
    (``PeakReport(peaks, ...)``: what the record codec decodes).  A
    column-backed report builds its rows only when :attr:`peaks` is
    first read; :attr:`count`, :meth:`times`, :meth:`as_columns`,
    equality and :func:`repro.cloud.api.report_to_dict` read the
    columns.  Either form is immutable.

    Two reports are equal when their headers and peaks are equal by
    value, whatever form each holds: floats compare as IEEE values
    (``-0.0 == 0.0``; NaN equals nothing, so a report holding NaN
    equals only itself) and amplitude rows compare as arrays.  Two
    column-backed reports compare column by column without building
    rows.  The hash covers the header and the sample indices.
    """

    __slots__ = (
        "_peaks",
        "columns",
        "duration_s",
        "sampling_rate_hz",
        "detection_channel",
    )

    def __init__(
        self,
        peaks: Sequence[DetectedPeak],
        duration_s: float,
        sampling_rate_hz: float,
        detection_channel: int,
    ) -> None:
        self._init(tuple(peaks), None, duration_s, sampling_rate_hz, detection_channel)

    def _init(self, peaks, columns, duration_s, sampling_rate_hz, detection_channel):
        set_field = object.__setattr__
        set_field(self, "_peaks", peaks)
        #: The :class:`PeakColumns` a column-backed report was built
        #: from; ``None`` for a report built from rows.
        set_field(self, "columns", columns)
        set_field(self, "duration_s", duration_s)
        set_field(self, "sampling_rate_hz", sampling_rate_hz)
        set_field(self, "detection_channel", detection_channel)

    @classmethod
    def from_columns(
        cls,
        columns: PeakColumns,
        duration_s: float,
        sampling_rate_hz: float,
        detection_channel: int,
    ) -> "PeakReport":
        """A report that stores ``columns`` and defers its rows."""
        report = cls.__new__(cls)
        report._init(None, columns, duration_s, sampling_rate_hz, detection_channel)
        return report

    @property
    def peaks(self) -> Tuple[DetectedPeak, ...]:
        """The peaks as :class:`DetectedPeak` rows, in order."""
        if self._peaks is None:
            c = self.columns
            object.__setattr__(
                self,
                "_peaks",
                tuple(
                    map(
                        DetectedPeak,
                        c.time_s.tolist(),
                        c.depth.tolist(),
                        c.width_s.tolist(),
                        c.amplitudes,
                        c.sample_index.tolist(),
                    )
                ),
            )
        return self._peaks

    @property
    def count(self) -> int:
        """Encoded (ciphertext) peak count."""
        if self.columns is not None:
            return self.columns.sample_index.shape[0]
        return len(self._peaks)

    def peaks_between(self, start_s: float, end_s: float) -> List[DetectedPeak]:
        """Peaks with ``start_s <= time < end_s`` (epoch slicing)."""
        return [p for p in self.peaks if start_s <= p.time_s < end_s]

    def times(self) -> np.ndarray:
        """All peak timestamps as an array."""
        if self.columns is not None:
            return self.columns.time_s.copy()
        return np.asarray([p.time_s for p in self._peaks])

    def as_columns(self) -> PeakColumns:
        """The peaks as :class:`PeakColumns`: the report's own columns,
        or columns built from its rows.

        Raises :class:`ValidationError` for rows that columns cannot
        hold (see :meth:`PeakColumns.from_rows`).
        """
        if self.columns is not None:
            return self.columns
        peaks = self._peaks
        return PeakColumns.from_rows(
            [p.time_s for p in peaks],
            [p.depth for p in peaks],
            [p.width_s for p in peaks],
            [p.amplitudes for p in peaks],
            [p.sample_index for p in peaks],
        )

    # -- frozen-dataclass behaviour, kept for both forms ----------------
    def _header(self) -> tuple:
        return (self.duration_s, self.sampling_rate_hz, self.detection_channel)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self is other:
            return True
        if self._header() != other._header():
            return False
        if self.columns is not None and other.columns is not None:
            return self.columns.equals(other.columns)
        return self.peaks == other.peaks

    def __hash__(self) -> int:
        if self.columns is not None:
            indices = tuple(self.columns.sample_index.tolist())
        else:
            indices = tuple(p.sample_index for p in self._peaks)
        return hash(self._header() + indices)

    def __repr__(self) -> str:
        return (
            f"PeakReport(peaks={self.peaks!r}, duration_s={self.duration_s!r}, "
            f"sampling_rate_hz={self.sampling_rate_hz!r}, "
            f"detection_channel={self.detection_channel!r})"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        fields = (self.duration_s, self.sampling_rate_hz, self.detection_channel)
        if self.columns is not None:
            return (PeakReport.from_columns, (self.columns,) + fields)
        return (PeakReport, (self._peaks,) + fields)


@dataclass(frozen=True)
class PeakDetector:
    """Detrend-threshold-measure peak extraction.

    Parameters
    ----------
    depth_threshold:
        Minimum fractional dip depth to call a peak.  The quietest
        natural peak (a 3.58 µm bead at the lowest cipher gain, 0.5x)
        dips ~0.1-0.2 %, so the default sits well below that but above
        the noise floor.
    min_separation_s:
        Minimum spacing between reported peaks.
    detection_channel:
        Channel used for finding peaks (amplitudes are then sampled on
        every channel).  The lowest carrier has the strongest response
        for all particle types, so it is the default.
    """

    depth_threshold: float = 8e-4
    min_separation_s: float = 6e-3
    detection_channel: int = 0
    detrend: DetrendConfig = DetrendConfig()

    def __post_init__(self) -> None:
        check_positive("depth_threshold", self.depth_threshold)
        check_positive("min_separation_s", self.min_separation_s)
        if self.detection_channel < 0:
            raise ValidationError("detection_channel must be >= 0")

    # ------------------------------------------------------------------
    def detect(self, trace: np.ndarray, sampling_rate_hz: float) -> PeakReport:
        """Find peaks in a ``(n_channels, n_samples)`` voltage trace.

        Runs the fused pass (:func:`repro.dsp.fused.fused_detect`), which
        is bit-identical to the staged detrend → ``1 - x`` → threshold →
        measure formulation it replaced.  Refuses (typed
        :class:`~repro._util.errors.ValidationError`) a trace that is not
        2-D, a non-positive rate, and a detection channel the trace lacks.
        """
        return _fused.fused_detect(self, trace, sampling_rate_hz)


# Imported at the bottom: repro.dsp.fused needs DetectedPeak/PeakReport
# from this module, so the cycle is broken by binding the fused module
# only after those classes exist.
import repro.dsp.fused as _fused  # noqa: E402
