"""Poisson extension, Hilbert transform, Szego projection, boundary recovery.

P_y, the Cauchy rows (P_y f + i Q_y f)/2 of the holomorphic extension and
H, the y -> 0 member of Q_y, are one direct quadrature of the line, which
never periodises the data; the Szego projection is (f + iHf)/2.  Every row
reads f - f(-L), so constants are exact, and P_y adds f(-L) back.  The line
splits at |u| = W into a near window convolved with band-limited taps and
far nodes where the kernel is interpolated in x.  Every row takes the
declared terms of an input (``grid.Term``) in closed form and the rule on
the rest.  One off-window fill rule (``_off_window``) serves all: the
closed-form continuation when available, otherwise the decay class.  The
kernel tables depend on the grid, split, far range and height alone; a
call builds its own and frees each height's before the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .grid import (BOUNDED, DecayClass, Grid1D, HalfPlaneField,
                   HeightLadder, LOG_GROWTH, PreconditionError, RAPID,
                   SampledFunction, frozen, power_decay, tail_extension,
                   tail_samples)

# near/far split of the line quadrature, W = factor * L, by decay class.
# The far kernel P_y(x-u), |u| >= W, has its poles outside the Bernstein
# ellipse of [-L, L] with rho = w + sqrt(w^2 - 1), w = W/L, so 16 Chebyshev
# nodes interpolate it to rho**-16: 5.8**-16 (6e-13) at 3L, 17.9**-16 at 9L.
# Undeclared BMO-type data (q1, a file with no tail=) keep 9L: at 3L the far
# nodes alias P_1*e^{ix} with no declared term on the rig grid by 5e-4,
# against 4e-5 at 9L.  Declared terms take no quadrature.
_SPLIT_DECAYING = 3
_SPLIT_LOG_GROWTH = 9
_TAIL_NODES = 256
# heights whose declared-term rows are evaluated together: x-only factors
# such as e^{iwx} are taken once per block, where once per height tripled
# the cost of e^{ix}'s Cauchy rows, and a block's temporaries stay near a
# sixth of a 48-level field
_TERM_ROWS = 8
_FAR_CHEB = 16
# fourth-order Gregory end weights of the far trapezoid, in units of the step
_GREGORY_ENDS = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
# relative to max|f| * window; odd decaying data lands near edge*dx/window
# (~1e-5), genuinely nonzero means two decades higher
_MEAN_ZERO_REL = 1e-4
_OVERFLOW = "the samples or their transform overflow float64"


# ---------------------------------------------------------------------------
# window extension
# ---------------------------------------------------------------------------

def _off_window(f0: SampledFunction, u: np.ndarray) -> np.ndarray:
    """Values of f0 at points u off the grid window: the closed-form
    continuation if present, else zeros for rapid decay, else the power law
    f(edge)*(edge/|u|)**p from the nearer edge.  Functions with log_growth
    decay and no continuation cannot be extended honestly."""
    if f0.continuation is not None:
        return f0.continuation(u)
    if f0.decay.tag == "rapid":
        return np.zeros(u.shape)
    if f0.decay.tag == "power":
        nodes, vals, left = f0.grid.nodes, f0.values, u < 0
        edge = np.where(left, np.abs(nodes[0]), np.abs(nodes[-1]))
        p = f0.decay.p
        return np.where(left, vals[0], vals[-1]) * (edge / np.abs(u)) ** p
    raise PreconditionError(
        "log_growth input needs a closed-form continuation to extend")


def extended_window(f0: SampledFunction, factor: int):
    """Samples of f0 on [-factor*L, factor*L), core values in the middle and
    the rest filled by the off-window rule of ``_off_window``."""
    grid, n = f0.grid, f0.grid.n
    m = factor * n
    x = -factor * grid.L + grid.dx * np.arange(m)
    lo = (m - n) // 2
    ext = np.zeros(m, dtype=np.complex128)
    ext[lo:lo + n] = f0.values
    ext[:lo] = _off_window(f0, x[:lo])
    ext[lo + n:] = _off_window(f0, x[lo + n:])
    return ext, x, lo


def _is_mean_zero(f0: SampledFunction) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.max(np.abs(f0.values))) * 2.0 * f0.grid.L
        core = abs(f0.grid.dx * f0.values.sum())
    if not np.isfinite([scale, core]).all():
        raise PreconditionError(_OVERFLOW)
    return core <= _MEAN_ZERO_REL * scale


def _finite(out: np.ndarray) -> np.ndarray:
    if not np.isfinite(out).all():
        raise PreconditionError(_OVERFLOW)
    return out


def _hilbert_out_decay(f0: SampledFunction) -> DecayClass:
    # Honest tail bookkeeping: the transform of mean-free integrable data
    # picks up a 1/x^2 tail; a nonzero mean degrades that to (mass/pi)/x,
    # bounded but not integrable.  Non-decaying data, bounded or not, may
    # give growing output: H(sgn) is (2/pi) log|x|.  Declared terms whose
    # conjugates have no log term give bounded output, as the rest, zero
    # off the window, does.
    if f0.decay.tag == "log_growth":
        conj = (c.kind for t in f0.tail for c in t.conjugate())
        return BOUNDED if f0.tail and "log" not in conj else LOG_GROWTH
    if not _is_mean_zero(f0):
        return BOUNDED
    if f0.decay.tag == "rapid":
        return power_decay(2.0)
    return power_decay(min(f0.decay.p, 1.5))


def _cauchy_decay(f0: SampledFunction) -> DecayClass:
    # (f + iHf)/2 holds both f and iHf/2, so it takes H's class, bounded
    # only where f is bounded too
    return _hilbert_out_decay(f0) if f0.decay.bounded else LOG_GROWTH


def hilbert_transform(f0: SampledFunction) -> SampledFunction:
    """H f = (1/pi) p.v. int f(u) / (x - u) du, H(cos) = sin, as the y -> 0
    member of ``_direct_heights``, on f - f(-L), so constants give exact
    zeros.  Declared terms give their conjugate terms' samples; on the rest
    H is found modulo a constant: the far kernel's +1/(pi u), which keeps
    odd growing data such as sgn finite, drops (1/pi) int_{|u|>W} f(u)/u du,
    zero for rapid data and W-dependent for undeclared growing data."""
    return SampledFunction(f0.grid, frozen(_direct_heights(f0, None)),
                           _hilbert_out_decay(f0))


def szego_project(f0: SampledFunction) -> SampledFunction:
    """(f + iHf)/2, the boundary values of the Cauchy row: the projection of
    the line onto boundary values of the upper half-plane.  Integrable data
    with a nonzero mean keep Hf's 1/x tail, which is bounded."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = hilbert_transform(f0)
        out = _finite(0.5 * (f0.values + 1j * h.values))
    return SampledFunction(f0.grid, frozen(out), _cauchy_decay(f0))


# ---------------------------------------------------------------------------
# Poisson extension
# ---------------------------------------------------------------------------

def _geometry(grid: Grid1D, factor: int, v_max: float) -> SimpleNamespace:
    """Tables of the split W = factor*L: far nodes u and their Gregory
    weights times the jacobian, Chebyshev offsets x - u and the n x 16
    interpolation matrix, tap offsets k, (-1)^k, (k dx)^2."""
    dx, L, n = grid.dx, grid.L, grid.n
    split = factor * L
    # far trapezoid in s, u = W e^s, on |u| in [W, v_max]
    s = np.linspace(0.0, np.log(v_max / split), _TAIL_NODES)
    u = split * np.exp(s)
    w_s = np.full(_TAIL_NODES, s[1] - s[0])
    w_s[:3] *= _GREGORY_ENDS
    w_s[-3:] *= _GREGORY_ENDS[::-1]
    u_far = np.concatenate([u, -u])
    # barycentric weights from 16 Chebyshev nodes of [-L, L] to the grid
    theta = (2 * np.arange(_FAR_CHEB) + 1) * np.pi / (2 * _FAR_CHEB)
    cheb = L * np.cos(theta)
    q = (-1.0) ** np.arange(_FAR_CHEB) * np.sin(theta) \
        / (grid.nodes[:, None] - cheb)
    interp = q / q.sum(axis=1, keepdims=True)
    far_x = cheb[:, None] - u_far[None, :]
    # x_j - u_m = (j - m + (span - n)/2) dx sits at tap index j - m + span
    span = factor * n
    k = np.arange(span + n) - (span + n) // 2
    return SimpleNamespace(
        u=u, u_far=u_far, points=np.concatenate([[split], u_far]),
        jac=np.tile(w_s * u, 2)[:, None], interp=interp, far_x=far_x,
        far_x2=far_x ** 2, span=span, k=k,
        alt=1.0 - 2.0 * (k & 1), taps_x2=(dx * k) ** 2)


def _height_table(g: SimpleNamespace, grid: Grid1D, y, cauchy: bool):
    """(rffts of the near taps, far kernels on Chebyshev x by far u) of P_y at
    height y on geometry g, then Q_y's for the Cauchy rows; H's for y None."""
    if y is None:
        taps = (1.0 - g.alt) / (np.pi * grid.dx * np.where(g.k == 0, 1, g.k))
        return (np.fft.rfft([taps]),
                [(1.0 / g.far_x + 1.0 / g.u_far) / np.pi])
    taps = y / (np.pi * (g.taps_x2 + y * y)) \
        * (1.0 - np.exp(-np.pi * y / grid.dx) * g.alt)
    denom = np.pi * (g.far_x2 + y * y)
    if not cauchy:
        return np.fft.rfft([taps]), [y / denom]
    return (np.fft.rfft([taps, taps * (grid.dx / y) * g.k]),
            [y / denom, g.far_x / denom + 1.0 / (np.pi * g.u_far)])


@np.errstate(over="ignore", invalid="ignore")
def _direct_heights(f0: SampledFunction, heights,
                    cauchy: bool = False) -> np.ndarray:
    """Line quadrature split at |u| = W, W = 3L for integrable decay and 9L
    for BMO-type data: rows P_y f at the heights, with cauchy the Cauchy rows
    (P_y f + i Q_y f)/2, Q_y(x) = x/(pi(x^2 + y^2)), or for heights None the
    row H f, the y -> 0 member of Q_y.

    Every row reads f - f(-L), so constants give exact zeros.  Near part:
    the trapezoid on [-W, W] convolved by real FFTs with band-limited taps,
    dx*P_y(k dx)*(1 - (-1)^k e^{-pi y/dx}), consistent at heights below dx;
    for Q_y the same times k dx / y, for H their limit (1 - (-1)^k)/(pi k).
    Far part: log-spaced nodes in |u| on [W, v_max], v_max = max(1e8,
    1e4 * y_top), with fourth-order Gregory end weights, sampled once in
    absolute u (offsets x-u would carry f's oscillation into the far part);
    the kernel is analytic in x there, so it is interpolated from 16
    Chebyshev nodes of [-L, L]: a slice equals its row of any ladder topping
    out below y = 1e4 bit for bit.  Beyond +-v_max the end values are held:
    their kernel mass adds y (f(v_max) + f(-v_max)) / (pi v_max) to P_y,
    which then adds f(-L) back, and the far kernel of Q_y and H, Q_y(x-u) +
    1/(pi u), subtracts x (f(v_max) + f(-v_max)) / (pi v_max).  So P_y of
    real data is exactly twice the real part of its Cauchy row.  Declared
    terms give P_y in closed form and H and Q_y by their conjugate terms;
    the rule then takes the same row of the rest, the samples minus the
    terms' samples, zero off the window, and a zero rest none; the term
    rows are added into the rest's rows, or written where the rest is
    zero, _TERM_ROWS heights at a time, so the rows are one array.  Each height's tables are
    built for this call and freed before the next height's; float64
    overflow raises PreconditionError."""
    hilbert = heights is None
    if not hilbert and not np.all(np.isfinite(heights) & (heights > 0)):
        raise PreconditionError("extension heights must be positive and finite")
    grid, n = f0.grid, f0.grid.n
    if f0.tail:
        if hilbert or cauchy:
            conj = tuple(c for t in f0.tail for c in t.conjugate())
        rest = frozen(f0.values - tail_samples(f0.tail, grid))
        has_rest = bool(np.any(rest))
        out = _direct_heights(SampledFunction(grid, rest, RAPID), heights,
                              cauchy).astype(np.complex128, copy=False) \
            if has_rest else np.empty((n,) if hilbert else (heights.size, n),
                                      dtype=np.complex128)
        rows = out.reshape(-1, n)
        for a in range(0, len(rows), _TERM_ROWS):
            y = None if hilbert else heights[a:a + _TERM_ROWS, None]
            terms = tail_samples(conj, grid) if hilbert else \
                tail_extension(f0.tail, grid.nodes, y)
            if cauchy:
                terms = 0.5 * (terms + 1j * tail_extension(
                    conj, grid.nodes, y))
            block = rows[a:a + _TERM_ROWS]
            if has_rest:
                block += terms
            else:
                block[...] = terms
        return _finite(out)
    factor = _SPLIT_DECAYING if f0.decay.integrable else _SPLIT_LOG_GROWTH
    v_max = 1e8 if hilbert else max(1e8, 1e4 * float(heights[-1]))
    g = _geometry(grid, factor, v_max)
    real = f0.is_real

    shift = f0.values[0]
    off = _off_window(f0, g.points) - shift
    ext = extended_window(f0, factor)[0] - shift
    # the far nodes' weighted values, one column per real part
    cont = off[1:]
    cols = [cont.real] if real else [cont.real, cont.imag]
    far_cols = np.column_stack(cols) * g.jac
    ends = np.array([c[_TAIL_NODES - 1] + c[-1] for c in cols])[:, None]

    def held(x):    # f(+-v_max) held beyond +-v_max, times x / (pi v_max)
        return ends * x / (np.pi * g.u[-1])

    # near trapezoid: samples at u_m = -W + m*dx, m = 0..factor*n, times weights
    near = grid.dx * np.append(ext, off[0])
    near[[0, -1]] *= 0.5
    span, size = g.span, g.span + n     # (factor + 1) n: 5-smooth, n = 2^k
    near_spec = np.fft.rfft(
        np.array([near.real] if real else [near.real, near.imag]), size)

    def row(parts):     # the real and imaginary parts as one row
        return parts[0] if real else parts[0] + 1j * parts[1]

    ys = [None] if hilbert else heights
    out = np.zeros((len(ys), n), dtype=np.complex128)
    for i, y in enumerate(ys):
        specs, kernels = _height_table(g, grid, y, cauchy)
        near_sums = np.fft.irfft(near_spec * specs[:, None], size)
        sums = [s[..., span:span + n] + (g.interp @ (k @ far_cols)).T
                for s, k in zip(near_sums, kernels)]
        del specs, kernels  # free before the next are built
        if hilbert:
            return _finite(row(sums[0] - held(grid.nodes)))
        p = row(sums[0] + held(y)) + shift
        out[i] = 0.5 * (p + 1j * row(sums[1] - held(grid.nodes))) \
            if cauchy else p
    return _finite(out)


def _field_decay(d: DecayClass) -> DecayClass:
    # kernel tails put a 1/x^2 floor under every slice; averaging keeps a
    # non-decaying class, bounded or not, as it is
    if d.tag == "rapid":
        return power_decay(2.0)
    if d.tag == "power":
        return power_decay(min(d.p, 2.0))
    return d


def poisson_extend(f0: SampledFunction, ladder: HeightLadder) -> HalfPlaneField:
    """Harmonic extension (P_y * f0)(x_j) on grid x ladder, at any positive
    heights, by the direct quadrature of ``_direct_heights``."""
    vals = frozen(_direct_heights(f0, ladder.y))
    return HalfPlaneField(f0.grid, ladder, vals, _field_decay(f0.decay))


def poisson_slice(f0: SampledFunction, y: float) -> SampledFunction:
    """Single-height harmonic extension, returned as boundary-type samples."""
    vals = _direct_heights(f0, np.asarray([float(y)]))[0]
    return SampledFunction(f0.grid, vals, _field_decay(f0.decay))


def holomorphic_slice(f0: SampledFunction, y: float) -> SampledFunction:
    """Single-height Cauchy row (P_y f0 + i Q_y f0)/2, with the decay of
    holomorphic_extension's rows: each row of that field at height y."""
    vals = _direct_heights(f0, np.asarray([float(y)]), cauchy=True)[0]
    return SampledFunction(f0.grid, vals, _cauchy_decay(f0))


def holomorphic_extension(f0: SampledFunction, ladder: HeightLadder):
    """Cauchy rows (P_y f0 + i Q_y f0)/2 on grid x ladder: the Poisson
    extension of szego_project(f0), read from f0's own off-window fill."""
    vals = frozen(_direct_heights(f0, ladder.y, cauchy=True))
    return HalfPlaneField(f0.grid, ladder, vals, _cauchy_decay(f0))


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
