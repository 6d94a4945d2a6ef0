"""Hardy-Littlewood and nontangential (cone) maximal operators.

The interval sweep runs over all windows whose sample count is a power of
two, at every offset: one exact sliding maximum per window size, O(n log^2 n)
in all.  It is within a factor two of the supremum over all
sample-aligned intervals (covering any interval by two power-of-two windows
shows the discrete sup is bracketed).
"""

from __future__ import annotations

import numpy as np

from .grid import HalfPlaneField, SampledFunction


def _window_max(a: np.ndarray, before: int, after: int) -> np.ndarray:
    """out[j] = max(a[j-before .. j+after]), indices outside a reading -inf.

    Doubling: after k steps m[i] is the max of the 2^k padded samples from
    i, and a window of width w is the max of two overlapping such runs:
    log2(w) vectorised whole-array maxima.  The O(n) block running max
    (van Herk / Gil-Werman) ran 2-5x slower at the ladder's widths, since
    np.maximum.accumulate steps one sample at a time."""
    n = a.size
    # a window reaching past both ends sees all of a, so clamping is exact
    before, after = min(before, n - 1), min(after, n - 1)
    w = before + after + 1
    m = np.full(n + w - 1, -np.inf)
    m[before:before + n] = a
    span = 1
    while 2 * span <= w:
        m = np.maximum(m[:-span], m[span:])
        span *= 2
    return np.maximum(m[:n], m[w - span:w - span + n])


def max_interval_average(values: np.ndarray) -> np.ndarray:
    """Uncentered maximal function: per node, the sup of the averages of
    |values| over the power-of-two windows containing it.  Dominates |values|
    pointwise and is exactly sublinear."""
    a = np.abs(np.asarray(values))
    n = a.size
    prefix = np.concatenate(([0.0], np.cumsum(a)))
    best = a.copy()
    size = 2
    while size <= n:
        # window starts s in [j-size+1, j] hold node j
        avgs = (prefix[size:] - prefix[:-size]) / size
        padded = np.concatenate((avgs, np.full(size - 1, -np.inf)))
        np.maximum(best, _window_max(padded, size - 1, 0), out=best)
        size *= 2
    return best


def nontangential_max(field: HalfPlaneField) -> SampledFunction:
    """Cone maximal function f*(x_j) = sup |field| over ladder points in the
    aperture-one cone above x_j."""
    grid, ladder = field.grid, field.ladder
    mags = np.abs(field.values)
    best = np.full(grid.n, -np.inf)
    for k, y in enumerate(ladder.levels):
        # offsets with |i|*dx < y, strictly
        half = int(np.ceil(y / grid.dx - 1e-12)) - 1
        row = mags[k]
        if half > 0:
            row = _window_max(row, half, half)
        np.maximum(best, row, out=best)
    return SampledFunction(grid, best, field.decay)
