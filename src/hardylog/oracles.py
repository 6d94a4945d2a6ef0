"""Brute-force reference implementations for cross-validating the fast
operator kernels.  Everything here is real-space summation or exhaustive
scanning, with no FFTs.  One piece is shared with the fast path: pv_sum and
poisson_sum read their samples off the window from
``transforms.extended_window``, which fills them by the fast path's own
``_off_window`` rule.  On inputs without a continuation, such as
szego_project output, both sides then carry the same fill error (the power
law keeps only the leading term of a 1/x^2 tail), so agreement there, as in
the benchmark gate's oracle.poisson_fft check on projected bumps, cannot
show it.  Intended for test-time use; costs are quadratic and sizes are
capped.
"""

from __future__ import annotations

import numpy as np

from .grid import PreconditionError, SampledFunction
from .spaces import THETA, weight_eval
from .transforms import extended_window

_BRUTE_CAP = 4096
_LINE_WINDOW = 64


def pv_sum(f0: SampledFunction, out_idx: np.ndarray) -> np.ndarray:
    """Principal-value Riemann sum of the 1/(pi(x-u)) kernel at chosen nodes
    over extended_window(f0, 64), a truncation the fast path does not share.

    Symmetric exclusion of the diagonal plus the analytic value of the
    excluded cell for the linear interpolant (-f'(x) dx / pi), which removes
    the first-order hole error and leaves O(dx^3) quadrature residue.
    """
    ext, x_ext, lo = extended_window(f0, _LINE_WINDOW)
    dx = f0.grid.dx
    xs = f0.grid.nodes[out_idx]
    out = np.empty(xs.size, dtype=np.complex128)
    chunk = max(1, (1 << 23) // ext.size)
    for start in range(0, xs.size, chunk):
        stop = min(start + chunk, xs.size)
        diffs = xs[start:stop, None] - x_ext[None, :]
        with np.errstate(divide="ignore"):
            kern = 1.0 / diffs
        kern[np.abs(diffs) < 0.5 * dx] = 0.0
        out[start:stop] = (kern * ext[None, :]).sum(axis=1) * dx
    centers = lo + np.asarray(out_idx)
    deriv = (ext[centers + 1] - ext[centers - 1]) / (2.0 * dx)
    return (out - deriv * dx) / np.pi


def hilbert_pv_direct(f0: SampledFunction) -> SampledFunction:
    """O(n^2) principal-value quadrature of the Hilbert transform."""
    vals = pv_sum(f0, np.arange(f0.grid.n))
    if f0.is_real:
        vals = vals.real
    return SampledFunction(f0.grid, vals, f0.decay)


def poisson_sum(f0: SampledFunction, y: float, out_idx: np.ndarray
                ) -> np.ndarray:
    """Riemann sum of the line kernel P_y against the samples of
    extended_window(f0, 64) at chosen output nodes.  Nothing is periodised:
    the closed-form kernel mass beyond each end of the summed cells, times
    the held edge value, stands in for the rest of the line, so constants
    are reproduced exactly."""
    if not y > 0:
        raise PreconditionError("height must be positive")
    ext, x_ext, _ = extended_window(f0, _LINE_WINDOW)
    dx = f0.grid.dx
    xs = f0.grid.nodes[out_idx]
    # the cells [u - dx/2, u + dx/2] of the samples cover [lo, hi]
    lo, hi = x_ext[0] - 0.5 * dx, x_ext[-1] + 0.5 * dx
    out = (ext[0] * (0.5 - np.arctan((xs - lo) / y) / np.pi)
           + ext[-1] * (0.5 - np.arctan((hi - xs) / y) / np.pi))
    chunk = max(1, (1 << 21) // ext.size)
    for start in range(0, xs.size, chunk):
        stop = min(start + chunk, xs.size)
        diffs = xs[start:stop, None] - x_ext[None, :]
        kern = (dx * y / np.pi) / (diffs * diffs + y * y)
        out[start:stop] += kern @ ext.real + 1j * (kern @ ext.imag)
    return out


def poisson_direct(f0: SampledFunction, y: float) -> SampledFunction:
    """Direct quadrature of the harmonic extension at one height: the line
    kernel summed against the extended-window samples (see poisson_sum)."""
    out = poisson_sum(f0, y, np.arange(f0.grid.n))
    if f0.is_real:
        out = out.real
    return SampledFunction(f0.grid, out, f0.decay)


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
    """Luxemburg gauge of theta: a geometric scan over the gauge parameter
    (1e4 steps spanning eight decades around the L1 mass) followed by local
    bisection refinement."""
    mags = np.abs(f0.values)
    if not mags.any():
        return 0.0
    grid, decay = f0.grid, f0.decay
    x = grid.nodes

    def phi_many(lams):
        v = weight_eval(THETA, x[None, :], mags[None, :] / lams[:, None])
        total = grid.dx * (v.sum(axis=1) - 0.5 * (v[:, 0] + v[:, -1]))
        if decay.tag == "power":
            total = total + (v[:, 0] * abs(x[0]) +
                             v[:, -1] * abs(x[-1])) / (decay.p - 1.0)
        return total

    def phi(lam):
        return float(phi_many(np.asarray([lam]))[0])

    center = grid.dx * mags.sum()
    lams = np.geomspace(center * 1e-4, center * 1e4, 10000)
    values = np.empty(lams.size)
    step = max(1, (1 << 22) // grid.n)
    for start in range(0, lams.size, step):
        values[start:start + step] = phi_many(lams[start:start + step])
    below = np.nonzero(values <= 1.0)[0]
    if below.size == 0 or below[0] == 0:
        raise PreconditionError("scan window failed to bracket the gauge")
    hi_i = below[0]
    lo, hi = lams[hi_i - 1], lams[hi_i]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
