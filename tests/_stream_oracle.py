"""Scalar references for the exact peak stream's carry-over passes.

``ExactPeakStream`` walks left from each candidate peak, and folds the
columns it trims into a monotone stack, with numpy array passes.  This
module keeps the one-sample-at-a-time loops those passes replaced, so
the differential tests in ``test_stream_walks.py`` can check record
for record (and float bit for float bit) that nothing moved.
"""

from typing import List, Tuple

import numpy as np

Entry = Tuple[float, float]
Record = Tuple[int, float, float]


def push(entries: List[Entry], value: float) -> None:
    """Push one value onto a ``_MonotoneStack`` entry list."""
    seg_min = value
    while entries and entries[-1][0] <= value:
        seg_min = min(seg_min, entries.pop()[1])
    entries.append((value, seg_min))


def push_all(entries: List[Entry], values: np.ndarray) -> List[Entry]:
    """The trim's former loop: every value through :func:`push`."""
    for value in values:
        push(entries, float(value))
    return entries


def left_walk(
    x: np.ndarray, base: int, p: int, h: float
) -> Tuple[List[Record], float, bool]:
    """Walk left from ``p`` over the tail ``x`` (column 0 at ``base``).

    Returns the strictly descending running-minimum records
    ``(pos, value, next_value)``, the minimum reached, and whether a
    wall stopped the walk: a sample failing ``x <= h`` (taller, or NaN),
    as in scipy's prominence walk.
    """
    records: List[Record] = []
    cur = h
    i = p - 1
    while i >= base:
        v = float(x[i - base])
        if not v <= h:
            return records, cur, True
        if v < cur:
            records.append((i, v, float(x[i + 1 - base])))
            cur = v
        i -= 1
    return records, cur, False

