"""Brute-force reference implementations for cross-validating the fast
operator kernels: real-space kernel sums, an exhaustive BMO scan and a
bisection of the Luxemburg gauge, with no FFTs and nothing imported from
``transforms``.  The fill is still shared with the fast path: pv_sum and
poisson_sum read their samples off the window from
``SampledFunction.beyond``, and luxemburg_scan takes a power tail's
integral from ``line_integral``.  On inputs without a continuation, such
as szego_project output, the oracles read the input's own power-law fill,
so both sides carry the same fill error (it keeps only the leading term of
a 1/x^2 tail), and agreement there, as in the benchmark gate's
oracle.poisson_fft check on projected bumps, cannot show it: an oracle
independent of the fill, and an exact far field for it, are still to come.
Intended for test-time use; costs are quadratic and sizes are capped.
"""

from __future__ import annotations

import numpy as np

from .grid import PreconditionError, SampledFunction, line_integral
from .spaces import THETA, weight_eval

_BRUTE_CAP = 4096
_LINE_WINDOW = 64


def _line_window(f0: SampledFunction):
    """Samples of f0 on [-64L, 64L): the core values in the middle and the
    rest read from ``f0.beyond``; with their abscissae and the core's first
    index."""
    grid, n = f0.grid, f0.grid.n
    m = _LINE_WINDOW * n
    x = -_LINE_WINDOW * grid.L + grid.dx * np.arange(m)
    lo = (m - n) // 2
    off = f0.beyond(np.concatenate([x[:lo], x[lo + n:]]))
    return np.concatenate([off[:lo], f0.values, off[lo:]]), x, lo


def _kernel_sum(kernel, xs: np.ndarray, x_ext: np.ndarray,
                ext: np.ndarray) -> np.ndarray:
    """Sums over u of kernel(x - u) * ext(u) at the points xs, for samples
    ext at x_ext; the real kernel is built a few rows at a time and applied
    to the real and imaginary parts apart."""
    out = np.empty(xs.size, dtype=np.complex128)
    chunk = max(1, (1 << 21) // ext.size)
    for start in range(0, xs.size, chunk):
        stop = min(start + chunk, xs.size)
        kern = kernel(xs[start:stop, None] - x_ext[None, :])
        out[start:stop] = kern @ ext.real + 1j * (kern @ ext.imag)
    return out


def pv_sum(f0: SampledFunction, out_idx: np.ndarray) -> np.ndarray:
    """Principal-value Riemann sum of the 1/(pi(x-u)) kernel at chosen nodes
    over the 64L window of ``_line_window``, a truncation the fast path does
    not share.

    Symmetric exclusion of the diagonal plus the analytic value of the
    excluded cell for the linear interpolant (-f'(x) dx / pi), which removes
    the first-order hole error and leaves O(dx^3) quadrature residue.
    """
    ext, x_ext, lo = _line_window(f0)
    dx = f0.grid.dx

    def kernel(diffs):
        with np.errstate(divide="ignore"):
            kern = 1.0 / diffs
        kern[np.abs(diffs) < 0.5 * dx] = 0.0
        return kern
    out = _kernel_sum(kernel, f0.grid.nodes[out_idx], x_ext, ext) * dx
    centers = lo + np.asarray(out_idx)
    deriv = (ext[centers + 1] - ext[centers - 1]) / (2.0 * dx)
    return (out - deriv * dx) / np.pi


def poisson_sum(f0: SampledFunction, y: float, out_idx: np.ndarray
                ) -> np.ndarray:
    """Riemann sum of the line kernel P_y against the 64L window of
    ``_line_window`` at chosen output nodes.  Nothing is periodised:
    the closed-form kernel mass beyond each end of the summed cells, times
    the held edge value, stands in for the rest of the line, so constants
    are reproduced exactly."""
    if not y > 0:
        raise PreconditionError("height must be positive")
    ext, x_ext, _ = _line_window(f0)
    dx = f0.grid.dx
    xs = f0.grid.nodes[out_idx]
    # the cells [u - dx/2, u + dx/2] of the samples cover [lo, hi]
    lo, hi = x_ext[0] - 0.5 * dx, x_ext[-1] + 0.5 * dx
    out = (ext[0] * (0.5 - np.arctan((xs - lo) / y) / np.pi)
           + ext[-1] * (0.5 - np.arctan((hi - xs) / y) / np.pi))
    return out + _kernel_sum(
        lambda diffs: (dx * y / np.pi) / (diffs * diffs + y * y),
        xs, x_ext, ext)


def bmo_bruteforce(f0: SampledFunction) -> float:
    """Exact discrete mean-oscillation sup over ALL sample-aligned windows."""
    n = f0.grid.n
    if n > _BRUTE_CAP:
        raise PreconditionError(f"brute-force scan capped at n={_BRUTE_CAP}")
    vals = f0.values.real if f0.is_real else f0.values
    prefix = np.concatenate((np.zeros(1, dtype=vals.dtype), np.cumsum(vals)))
    best = 0.0
    for count in range(2, n + 1):
        means = (prefix[count:] - prefix[:-count]) / count
        windows = np.lib.stride_tricks.sliding_window_view(vals, count)
        chunk = max(1, (1 << 22) // count)
        for start in range(0, n - count + 1, chunk):
            stop = min(start + chunk, n - count + 1)
            osc = np.abs(windows[start:stop] -
                         means[start:stop, None]).mean(axis=1)
            m = float(osc.max())
            if m > best:
                best = m
    return best


def luxemburg_scan(f0: SampledFunction) -> float:
    """Luxemburg gauge of theta, the lam at which the whole-line integral
    phi(lam) of theta(x, |f|/lam) falls to 1: phi falls as lam grows, so
    100 bisection steps on [1e-4, 1e4] times the whole-line L1 mass of |f|
    find it."""
    mags = np.abs(f0.values)
    if not mags.any():
        return 0.0
    grid, p = f0.grid, f0.decay.p

    def phi(lam):
        return float(line_integral(
            grid, weight_eval(THETA, grid.nodes, mags / lam), p))

    center = float(line_integral(grid, mags, p))
    lo, hi = center * 1e-4, center * 1e4
    if phi(lo) <= 1.0 or phi(hi) > 1.0:
        raise PreconditionError("scan window failed to bracket the gauge")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
