"""Frozen copy of the robust-baseline kernel, kept as a test oracle.

This is ``repro.dsp.detrend.fit_baseline_rows`` as it stood before the
kernel was trimmed to do less numpy work per call (unit weights at
iteration 0, in-place Horner, one absolute-residual pass, a lean
median).  The shipped kernel must return baselines byte-identical to
this one on every input; ``tests/test_dsp_fit_oracle.py`` enforces it.
Do not edit the arithmetic below: it is the reference.
"""

from typing import Dict, Tuple

import numpy as np

from repro._util.errors import ValidationError


# Per-(length, order) fit grid: the x axis, its powers up to 2*order
# (built by repeated multiplication, never ``**``), and the full-mask
# moments.  Bounded so hypothesis-style workloads with many distinct
# window lengths cannot grow it without limit.
_GRID_CACHE: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_GRID_CACHE_MAX = 128

#: Rows per kernel tile.  The masked reductions allocate (rows, n)
#: temporaries; tiling keeps them cache-resident for many-row inputs.
#: Tiling is invisible to the output: each row's arithmetic is
#: independent of the other rows, so any row partition produces
#: bitwise-identical baselines.
_ROW_BLOCK = 8


def _fit_grid(n: int, order: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    key = (n, order)
    cached = _GRID_CACHE.get(key)
    if cached is None:
        x = np.linspace(-1.0, 1.0, n)
        powers = np.empty((2 * order + 1, n))
        powers[0] = 1.0
        for p in range(1, 2 * order + 1):
            np.multiply(powers[p - 1], x, out=powers[p])
        full_moments = powers.sum(axis=1)
        if len(_GRID_CACHE) >= _GRID_CACHE_MAX:
            _GRID_CACHE.pop(next(iter(_GRID_CACHE)))
        cached = (x, powers, full_moments)
        _GRID_CACHE[key] = cached
    return cached


def fit_baseline_rows(
    segments: np.ndarray, order: int, n_iterations: int = 3
) -> np.ndarray:
    """Robust polynomial baselines of every row of ``(rows, n)`` at once.

    Same recipe as :func:`_fit_baseline` — iterate fit / discard
    far-below-fit samples / refit — but solved through masked normal
    equations so one call fits the whole matrix: the Gram moments and
    right-hand sides are full-length masked reductions, the per-row
    ``(order+1)``-square systems are solved as one stacked
    :func:`numpy.linalg.solve`, and the polynomial is evaluated with a
    vectorised Horner pass.

    The arithmetic of each row is **independent of which other rows
    share the call**: the input is copied to a canonical contiguous
    layout, every reduction runs over that row's full length (masked
    samples contribute exact zeros), and the stacked solve factorises
    each small system separately.  That per-row independence is what
    lets the fused one-shot path, the windowed-streaming path and the
    staged test oracle share this kernel while staying bit-identical to
    each other.
    """
    segments = np.ascontiguousarray(np.asarray(segments, dtype=float))
    if segments.ndim != 2:
        raise ValidationError(f"segments must be 2-D (rows, n), got {segments.shape}")
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    rows, n = segments.shape
    if n == 0 or rows == 0:
        return np.empty((rows, n))
    if n <= order:
        return np.repeat(segments.mean(axis=1)[:, np.newaxis], n, axis=1)
    if rows > _ROW_BLOCK:
        baseline = np.empty((rows, n))
        for lo in range(0, rows, _ROW_BLOCK):
            baseline[lo : lo + _ROW_BLOCK] = fit_baseline_rows(
                segments[lo : lo + _ROW_BLOCK], order, n_iterations
            )
        return baseline
    x, powers, full_moments = _fit_grid(n, order)
    d = order + 1
    baseline = np.empty((rows, n))
    # Rows still iterating; converged rows keep their last baseline.
    active = np.arange(rows)
    seg_active = segments
    keep_active = np.ones((rows, n), dtype=bool)
    last = max(n_iterations, 1) - 1
    for iteration in range(last + 1):
        n_active = active.shape[0]
        weights = keep_active.astype(float)
        if iteration == 0:
            moments = np.repeat(full_moments[np.newaxis, :], n_active, axis=0)
        else:
            moments = np.empty((n_active, 2 * order + 1))
            for p in range(2 * order + 1):
                moments[:, p] = (weights * powers[p]).sum(axis=1)
        weighted = weights * seg_active
        rhs = np.empty((n_active, d))
        for j in range(d):
            rhs[:, j] = (weighted * powers[j]).sum(axis=1)
        gram = np.empty((n_active, d, d))
        for j in range(d):
            for k in range(j, d):
                gram[:, j, k] = moments[:, j + k]
                if k != j:
                    gram[:, k, j] = moments[:, j + k]
        coefficients = _solve_rows(gram, rhs)
        fitted = np.repeat(coefficients[:, -1][:, np.newaxis], n, axis=1)
        for j in range(d - 2, -1, -1):
            fitted = fitted * x[np.newaxis, :] + coefficients[:, j][:, np.newaxis]
        baseline[active] = fitted
        if iteration == last:
            break
        residual = seg_active - fitted
        converged = ~(residual < 0).any(axis=1)
        new_keep = keep_active.copy()
        for row in range(n_active):
            if converged[row]:
                continue
            kept_abs = np.abs(residual[row][keep_active[row]])
            scale = 1.4826 * np.median(kept_abs) + 1e-15
            refit = residual[row] > -2.5 * scale
            # Never discard so much that the fit becomes degenerate.
            if refit.sum() <= order + 1 or np.array_equal(refit, keep_active[row]):
                converged[row] = True
            else:
                new_keep[row] = refit
        still = ~converged
        if not still.any():
            break
        active = active[still]
        seg_active = np.ascontiguousarray(seg_active[still])
        keep_active = np.ascontiguousarray(new_keep[still])
    return baseline


def _solve_rows(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked small-system solve with a per-row singularity fallback.

    ``numpy.linalg.solve`` raises if *any* stacked system is singular,
    which would let one degenerate row change the other rows' code
    path.  The fallback therefore re-solves row by row — each row's
    result depends only on its own system either way.
    """
    try:
        return np.linalg.solve(gram, rhs[:, :, np.newaxis])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for row in range(rhs.shape[0]):
            try:
                out[row] = np.linalg.solve(
                    gram[row], rhs[row][:, np.newaxis]
                )[:, 0]
            except np.linalg.LinAlgError:
                out[row] = np.linalg.lstsq(gram[row], rhs[row], rcond=None)[0]
        return out
