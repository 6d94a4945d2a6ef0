"""Poisson extension, Hilbert transform, Szego projection, boundary recovery.

All fast paths are FFT multipliers.  Slowly decaying inputs are handled by
extending the grid window before transforming: the window is padded by a
power-of-two factor and filled from the function's closed-form continuation
when available, otherwise from its declared decay class.  Poisson extension
of non-decaying (BMO-type) data takes a windowed direct-convolution path with
analytic tail quadrature instead, since periodisation would corrupt growth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .grid import (DecayClass, HalfPlaneField, HeightLadder,
                   LOG_GROWTH, PreconditionError, SampledFunction,
                   power_decay)

HILBERT_PAD = 64
POISSON_PAD = 8
_DIRECT_WINDOW = 8       # kernel reach of the direct path, in units of L
_TAIL_NODES = 256
# relative to max|f| * window; odd decaying data lands near edge*dx/window
# (~1e-5), genuinely nonzero means two decades higher
_MEAN_ZERO_REL = 1e-4


def poisson_kernel(y: float, x) -> np.ndarray:
    """Half-plane Poisson kernel y / (pi (x^2 + y^2)); unit mass for every y."""
    if not y > 0:
        raise PreconditionError(f"kernel height must be positive, got {y}")
    x = np.asarray(x, dtype=np.float64)
    return y / (np.pi * (x * x + y * y))


# ---------------------------------------------------------------------------
# window extension
# ---------------------------------------------------------------------------

def extended_window(f0: SampledFunction, factor: int):
    """Samples of f0 on [-factor*L, factor*L), core values in the middle.

    Fill order: closed-form continuation if present, else zeros for rapid
    decay, else the power-law extrapolation |f(edge)|*(edge/x)**p.  Functions
    with log_growth decay and no continuation cannot be extended honestly.
    """
    if factor < 1:
        raise PreconditionError("window factor must be >= 1")
    grid, n = f0.grid, f0.grid.n
    m = factor * n
    x = -factor * grid.L + grid.dx * np.arange(m)
    lo = (m - n) // 2
    ext = np.zeros(m, dtype=np.complex128)
    ext[lo:lo + n] = f0.values
    if factor == 1:
        return ext, x, lo
    left, right = x[:lo], x[lo + n:]
    if f0.continuation is not None:
        ext[:lo] = f0.continuation(left)
        ext[lo + n:] = f0.continuation(right)
    elif f0.decay.tag == "rapid":
        pass
    elif f0.decay.tag == "power":
        p = f0.decay.p
        ext[:lo] = f0.values[0] * (np.abs(grid.nodes[0]) / np.abs(left)) ** p
        ext[lo + n:] = f0.values[-1] * (np.abs(grid.nodes[-1]) / right) ** p
    else:
        raise PreconditionError(
            "log_growth input needs a closed-form continuation to extend")
    return ext, x, lo


def _is_mean_zero(f0: SampledFunction) -> bool:
    scale = float(np.max(np.abs(f0.values))) * 2.0 * f0.grid.L
    if scale == 0.0:
        return True
    core = f0.grid.dx * f0.values.sum()
    return abs(core) <= _MEAN_ZERO_REL * scale


def _hilbert_out_decay(f0: SampledFunction) -> DecayClass:
    # Honest tail bookkeeping: the transform of anything integrable picks up
    # a 1/x^2 tail; a nonzero mean degrades that to 1/x, which is flagged
    # non-integrable via the log_growth marker.
    if f0.decay.tag == "rapid":
        return power_decay(2.0)
    if f0.decay.tag == "power":
        if _is_mean_zero(f0):
            return power_decay(min(f0.decay.p, 1.5))
        return LOG_GROWTH
    return LOG_GROWTH


def hilbert_transform(f0: SampledFunction, pad_factor: int = HILBERT_PAD
                      ) -> SampledFunction:
    """Hilbert transform as the -i*sign(xi) multiplier on the extended window.

    Conventions: H(cos) = sin, the flat (zero-frequency) component of the
    window is annihilated, and so is the unresolved Nyquist bin.
    """
    ext, _, lo = extended_window(f0, pad_factor)
    m, n = ext.size, f0.grid.n
    spec = np.fft.fft(ext)
    xi = np.fft.fftfreq(m)
    mult = -1j * np.sign(xi)
    mult[m // 2] = 0.0
    out = np.fft.ifft(spec * mult)[lo:lo + n]
    if f0.is_real:
        out = out.real
    bounded = f0.bounded if f0.decay.tag == "log_growth" else None
    return SampledFunction(f0.grid, out, _hilbert_out_decay(f0), bounded=bounded)


def szego_project(f0: SampledFunction) -> SampledFunction:
    """Projection onto nonnegative frequencies of the grid window.

    Strictly negative bins (Nyquist included, per the fftfreq sign) are
    zeroed and the rest kept, which makes the projection exactly idempotent
    and equal to (f + iHf)/2 plus half the flat component.
    """
    n = f0.grid.n
    spec = np.fft.fft(f0.values)
    spec[n // 2:] = 0.0
    out = np.fft.ifft(spec)
    if f0.decay.tag == "log_growth":
        decay, bounded = LOG_GROWTH, f0.bounded
    elif _is_mean_zero(f0):
        decay, bounded = _field_decay(f0.decay), None
    else:
        # surviving flat component: no decay at all
        decay, bounded = LOG_GROWTH, True
    return SampledFunction(f0.grid, out, decay, bounded=bounded)


# ---------------------------------------------------------------------------
# Poisson extension
# ---------------------------------------------------------------------------

def _fft_heights(f0: SampledFunction, heights: np.ndarray, pad_factor: int
                 ) -> np.ndarray:
    ext, _, lo = extended_window(f0, pad_factor)
    n = f0.grid.n
    spec = np.fft.fft(ext)
    xi = np.abs(2.0 * np.pi * np.fft.fftfreq(ext.size, d=f0.grid.dx))
    out = np.empty((heights.size, n), dtype=np.complex128)
    for k, y in enumerate(heights):
        out[k] = np.fft.ifft(spec * np.exp(-y * xi))[lo:lo + n]
    return out


def _direct_heights(f0: SampledFunction, heights: np.ndarray) -> np.ndarray:
    """Windowed convolution with mass-normalised kernel taps plus analytic
    tails from the continuation on |x-u| > 8L.  Exact on constants at every
    height and correct in the small-y delta limit."""
    if f0.continuation is None:
        raise PreconditionError(
            "BMO-type Poisson extension needs a closed-form continuation")
    grid = f0.grid
    dx, L, n = grid.dx, grid.L, grid.n
    reach = _DIRECT_WINDOW * L
    ext, _, lo = extended_window(f0, 2 * _DIRECT_WINDOW)
    taps_k = np.arange(-int(round(reach / dx)), int(round(reach / dx)) + 1)
    taps_x = taps_k * dx

    # log-spaced tail quadrature nodes, relative offset v in [reach, v_max]
    x = grid.nodes
    y_top = float(heights[-1])
    v_max = max(1e8, 1e4 * y_top)
    s = np.linspace(0.0, np.log(v_max / reach), _TAIL_NODES)
    v = reach * np.exp(s)
    ds = s[1] - s[0]
    w_s = np.full(_TAIL_NODES, ds)
    w_s[0] *= 0.5
    w_s[-1] *= 0.5
    cont_r = f0.continuation(x[:, None] + v[None, :])
    cont_l = f0.continuation(x[:, None] - v[None, :])

    out = np.empty((heights.size, n), dtype=np.complex128)
    for k, y in enumerate(heights):
        taps = poisson_kernel(y, taps_x)
        conv = fftconvolve(ext, taps, mode="same")[lo:lo + n] * dx
        kern_v = poisson_kernel(y, v) * v * w_s      # jacobian of v = reach*e^s
        tails = (cont_r + cont_l) @ kern_v
        # discrete partition of unity: constants are reproduced exactly
        mass = dx * taps.sum() + 2.0 * kern_v.sum()
        out[k] = (conv + tails) / mass
    return out


def _extend_heights(f0: SampledFunction, heights: np.ndarray,
                    pad_factor: int) -> np.ndarray:
    if not np.all(np.isfinite(heights)) or np.any(heights <= 0):
        raise PreconditionError("extension heights must be positive and finite")
    if f0.decay.tag == "log_growth":
        out = _direct_heights(f0, heights)
    elif heights[0] < 0.5 * f0.grid.dx:
        raise PreconditionError(
            f"height {heights[0]:g} below dx/2={0.5*f0.grid.dx:g}: "
            "kernel unresolvable on this grid")
    else:
        out = _fft_heights(f0, heights, pad_factor)
    # real boundary data has real harmonic extensions
    return out.real.astype(np.complex128) if f0.is_real else out


def _field_decay(d: DecayClass) -> DecayClass:
    # kernel tails put a 1/x^2 floor under every slice
    if d.tag == "rapid":
        return power_decay(2.0)
    if d.tag == "power":
        return power_decay(min(d.p, 2.0))
    return LOG_GROWTH


def poisson_extend(f0: SampledFunction, ladder: HeightLadder,
                   pad_factor: int = POISSON_PAD) -> HalfPlaneField:
    """Harmonic extension (P_y * f0)(x_j) on grid x ladder.

    Decaying inputs go through the e^{-y|xi|} multiplier on the padded
    window (heights below dx/2 are rejected as unresolvable).  BMO-type
    inputs (log_growth tag) take the direct windowed-quadrature path, which
    accepts any positive height.
    """
    vals = _extend_heights(f0, ladder.y, pad_factor)
    return HalfPlaneField(f0.grid, ladder, vals, _field_decay(f0.decay))


def poisson_slice(f0: SampledFunction, y: float,
                  pad_factor: int = POISSON_PAD) -> SampledFunction:
    """Single-height harmonic extension, returned as boundary-type samples."""
    vals = _extend_heights(f0, np.asarray([float(y)]), pad_factor)[0]
    bounded = f0.bounded if f0.decay.tag == "log_growth" else None
    return SampledFunction(f0.grid, vals, _field_decay(f0.decay),
                           bounded=bounded)


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryValue:
    """Lowest-slice boundary data with a two-level Cauchy convergence gap."""

    f0: SampledFunction
    gap: float
    threshold: float
    flagged: bool


def boundary_value(field: HalfPlaneField) -> BoundaryValue:
    """Boundary recovery: the lowest-level slice, with the sup-norm gap to the
    next level reported as a convergence diagnostic (flag, not failure)."""
    if field.ladder.count < 2:
        raise PreconditionError("boundary recovery needs at least two levels")
    f0 = field.slice_at(0)
    gap = float(np.max(np.abs(field.values[1] - field.values[0])))
    threshold = 0.05 * float(np.max(np.abs(field.values[0])) + 1e-300)
    return BoundaryValue(f0, gap, threshold, gap > threshold)
