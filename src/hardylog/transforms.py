"""Poisson extension, Hilbert transform, Szego projection, boundary recovery.

All fast paths are FFT multipliers.  Slowly decaying inputs are handled by
extending the grid window before transforming: the window is padded by a
power-of-two factor and filled from the function's closed-form continuation
when available, otherwise from its declared decay class.  Poisson extension
of non-decaying (BMO-type) data takes a direct quadrature path instead, since
periodisation would corrupt growth.  It splits the line at |u| = 9L: the
trapezoid on [-9L, 9L] is convolved with the kernel taps by real FFTs, and
the far line uses log-spaced nodes in |u|, where the kernel is analytic in x
and is interpolated to the grid from 16 Chebyshev nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (BOUNDED, DecayClass, Grid1D, HalfPlaneField, HeightLadder,
                   LOG_GROWTH, PreconditionError, SampledFunction,
                   power_decay)

HILBERT_PAD = 64
POISSON_PAD = 8
_DIRECT_WINDOW = 9       # near/far split of the direct path, |u| = 9L
_TAIL_NODES = 256
# Chebyshev nodes of [-L, L] for the far kernel P_y(x-u), |u| >= 9L: its
# poles lie outside the Bernstein ellipse rho = 9 + sqrt(80) = 17.9, so 16
# nodes interpolate it to about 17.9**-16 (1e-20) relative error
_FAR_CHEB = 16
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
    # Honest tail bookkeeping: the transform of mean-free integrable data
    # picks up a 1/x^2 tail; a nonzero mean degrades that to 1/x, which is
    # flagged non-integrable via the log_growth marker.
    if f0.decay.tag == "log_growth" or not _is_mean_zero(f0):
        return LOG_GROWTH
    if f0.decay.tag == "rapid":
        return power_decay(2.0)
    return power_decay(min(f0.decay.p, 1.5))


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
    return SampledFunction(f0.grid, out, _hilbert_out_decay(f0))


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
        decay = LOG_GROWTH
    elif _is_mean_zero(f0):
        decay = _field_decay(f0.decay)
    else:
        # surviving flat component: no decay at all
        decay = BOUNDED
    return SampledFunction(f0.grid, out, decay)


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


def _cheb_interpolation(x: np.ndarray, half: float):
    """Chebyshev nodes of [-half, half] and the barycentric matrix taking
    values there to values at the points x (no x may equal a node)."""
    theta = (2 * np.arange(_FAR_CHEB) + 1) * np.pi / (2 * _FAR_CHEB)
    nodes = half * np.cos(theta)
    q = (-1.0) ** np.arange(_FAR_CHEB) * np.sin(theta) / (x[:, None] - nodes)
    return nodes, q / q.sum(axis=1, keepdims=True)


def _smooth_len(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target: the 5-smooth lengths that pocketfft
    runs real FFTs fastest at."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # least power-of-two multiple of p35 reaching target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _direct_heights(f0: SampledFunction, heights: np.ndarray) -> np.ndarray:
    """Poisson quadrature split at |u| = W = 9L in absolute coordinates.

    Near part: the trapezoid on [-W, W] (window samples plus the node at +W,
    half weights at both ends) convolved with the P_y taps by real FFTs.  The
    window is transformed once; each height costs one kernel transform and
    one inverse.  Far part: log-spaced trapezoid nodes in |u| on [W, v_max],
    so the continuation is sampled once, at 2*_TAIL_NODES points.  There
    P_y(x-u) is analytic in x with its poles at least 8L from the window, so
    it is evaluated on _FAR_CHEB = 16 Chebyshev nodes of [-L, L] and
    interpolated to the grid, to about 17.9**-16 relative.  Each node is
    divided by its discrete kernel mass, which makes the path exact on
    constants at every height and correct in the small-y delta limit.
    Sampling in relative offsets x-u instead would carry f's oscillation
    into the far part, which then could not be interpolated in x."""
    if f0.continuation is None:
        raise PreconditionError(
            "BMO-type Poisson extension needs a closed-form continuation")
    grid = f0.grid
    dx, L, n = grid.dx, grid.L, grid.n
    split = _DIRECT_WINDOW * L

    # near trapezoid: samples at u_m = -W + m*dx, m = 0..9n, times weights
    ext, _, _ = extended_window(f0, _DIRECT_WINDOW)
    near = dx * np.append(ext, f0.continuation(np.array([split])))
    near[[0, -1]] *= 0.5
    span = _DIRECT_WINDOW * n
    size = _smooth_len(span + n)
    real = f0.is_real
    parts = [near.real] if real else [near.real, near.imag]
    near_spec = np.fft.rfft(np.array(parts), size)
    # x_j - u_m = (j - m + (span - n)/2) dx sits at tap index j - m + span
    taps_x = dx * (np.arange(span + n) - (span + n) // 2)

    # far trapezoid in s, u = W e^s, on |u| in [W, v_max]
    y_top = float(heights[-1])
    v_max = max(1e8, 1e4 * y_top)
    s = np.linspace(0.0, np.log(v_max / split), _TAIL_NODES)
    u = split * np.exp(s)
    w_s = np.full(_TAIL_NODES, s[1] - s[0])
    w_s[[0, -1]] *= 0.5
    u_far = np.concatenate([u, -u])
    w_far = np.tile(w_s * u, 2)                # jacobian of u = W e^s
    cont_far = f0.continuation(u_far)
    cheb, interp = _cheb_interpolation(grid.nodes, L)
    far_x = cheb[:, None] - u_far[None, :]

    near_val = np.empty((heights.size, n), dtype=np.complex128)
    near_mass = np.empty((heights.size, n))
    far_val = np.empty((_FAR_CHEB, heights.size), dtype=np.complex128)
    far_mass = np.empty((_FAR_CHEB, heights.size))
    cum = np.zeros(span + n + 1)
    for k, y in enumerate(heights):
        taps = poisson_kernel(y, taps_x)
        conv = np.fft.irfft(near_spec * np.fft.rfft(taps, size),
                           size)[:, span:span + n]
        near_val[k] = conv[0] if real else conv[0] + 1j * conv[1]
        # near-trapezoid kernel mass at each node, from running tap sums
        np.cumsum(taps, out=cum[1:])
        near_mass[k] = dx * (cum[span + 1:span + n + 1] - cum[:n]
                             - 0.5 * (taps[:n] + taps[span:span + n]))
        kern = poisson_kernel(y, far_x) * w_far
        far_val[:, k] = kern @ cont_far
        far_mass[:, k] = kern.sum(axis=1)
    # discrete partition of unity: constants are reproduced exactly
    return ((near_val + (interp @ far_val).T)
            / (near_mass + (interp @ far_mass).T))


def resolvable(grid: Grid1D, y: float) -> bool:
    """Whether the FFT path resolves the Poisson kernel at height y: y >= dx/2.
    The direct path of BMO-type inputs accepts any positive height."""
    return y >= 0.5 * grid.dx


def _extend_heights(f0: SampledFunction, heights: np.ndarray,
                    pad_factor: int) -> np.ndarray:
    if not np.all(np.isfinite(heights)) or np.any(heights <= 0):
        raise PreconditionError("extension heights must be positive and finite")
    if f0.decay.tag == "log_growth":
        out = _direct_heights(f0, heights)
    elif not resolvable(f0.grid, heights[0]):
        raise PreconditionError(
            f"height {heights[0]:g} below dx/2={0.5*f0.grid.dx:g}: "
            "kernel unresolvable on this grid")
    else:
        out = _fft_heights(f0, heights, pad_factor)
    # real boundary data has real harmonic extensions
    return out.real.astype(np.complex128) if f0.is_real else out


def _field_decay(d: DecayClass) -> DecayClass:
    # kernel tails put a 1/x^2 floor under every slice; averaging keeps a
    # non-decaying class, bounded or not, as it is
    if d.tag == "rapid":
        return power_decay(2.0)
    if d.tag == "power":
        return power_decay(min(d.p, 2.0))
    return d


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
    return SampledFunction(f0.grid, vals, _field_decay(f0.decay))


def holomorphic_extension(f0: SampledFunction, ladder: HeightLadder):
    """Szego projection then harmonic extension; if the input is already in
    the projection's range its closed-form continuation is retained."""
    proj = szego_project(f0)
    scale = float(np.max(np.abs(f0.values))) or 1.0
    if float(np.max(np.abs(proj.values - f0.values))) <= 1e-12 * scale:
        proj = f0
    return poisson_extend(proj, ladder)


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryValue:
    """Lowest-slice boundary data with a two-level Cauchy convergence gap."""

    f0: SampledFunction
    gap: float
    flagged: bool


def boundary_value(field: HalfPlaneField) -> BoundaryValue:
    """Boundary recovery: the lowest-level slice, with the sup-norm gap to the
    next level reported as a convergence diagnostic (flag, not failure)."""
    f0 = field.slice_at(0)
    gap = float(np.max(np.abs(field.values[1] - field.values[0])))
    threshold = 0.05 * float(np.max(np.abs(field.values[0])) + 1e-300)
    return BoundaryValue(f0, gap, gap > threshold)
