"""Hardy-Littlewood and nontangential (cone) maximal operators.

The interval sweep runs over all windows whose sample count is a power of
two, at every offset: O(n log n) via monotone sliding maxima, and within a
factor two of the supremum over all sample-aligned intervals (covering any
interval by two power-of-two windows shows the discrete sup is bracketed).
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import maximum_filter1d

from .grid import HalfPlaneField, SampledFunction


def _trailing_window_max(a: np.ndarray, size: int) -> np.ndarray:
    """out[j] = max(a[max(0, j-size+1) .. j])."""
    if size == 1:
        return a.copy()
    # positive origin shifts the filter window onto trailing indices
    return maximum_filter1d(a, size=size, mode="constant", cval=-np.inf,
                            origin=(size - 1) // 2)


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
        avgs = (prefix[size:] - prefix[:-size]) / size
        padded = np.concatenate((avgs, np.full(size - 1, -np.inf)))
        np.maximum(best, _trailing_window_max(padded, size), out=best)
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
            row = maximum_filter1d(row, size=2 * half + 1, mode="constant",
                                   cval=-np.inf)
        np.maximum(best, row, out=best)
    return SampledFunction(grid, best, field.decay)
