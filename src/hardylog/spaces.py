"""Norms and seminorms: the logarithmic Musielak weights and the Luxemburg
gauge of theta, mean oscillation (BMO) with its augmented norm, the H^1
norm and its log-weighted analogue over heights, and Carleson-type tent
energies with and without the logarithmic weight; none wraps the window.

Luxemburg gauges are solved for all rows at once (every slice of a field
for hlog_norm, one row for luxemburg_norm), each row as it would be alone,
by one fixed-point loop lam <- lam * phi(lam) from M, the row's max|f|.
For lam >= M every t = |f|/lam is <= 1, where log+ t = 0 and theta is
linear in t, so lam * phi(lam) is the constant M * phi(M), the integral of
|f| / (1 + log+|x|): a row with phi(M) >= 1 has that gauge in closed form,
after the first step.  Below M the iterates fall monotonically to the root.

Suprema over intervals run over a finite two-part family: every window whose
sample count is a power of two at every offset, plus node-centered windows
with radii from a 16-step logarithmic ladder.  The family is fixed, its
window counts are computed once per grid, and the sweeps reduce in a
deterministic order.

The mean-oscillation sweep scores a window as the average of |f - m| over
its samples, m the window mean from a prefix difference, and scores only
the windows that can win.  For every window it first bounds that computed
score, rounding included: by Cauchy-Schwarz, mean|f - m| is at most the
window's standard deviation plus |m - exact mean|, and the deviation comes
from two prefix sums of scaled, centered samples, with three rounding
envelopes per call added.  LB is always a score some window attains.  One
loop takes the counts in decreasing order of their top bound: a count's
highest-bound window is scored and raises LB, then every window of the
count whose bound reaches LB, and LB rises to the count's best score.  A
window whose bound is below LB cannot reach the sup, so it is skipped, and
the first count whose top bound is below LB ends the loop, the skipped
counts' windows still counted.  A window that ties the final sup has a
bound at least LB, so it is scored with the same formula as an exhaustive
sweep, and the first-index maximum picks the same value, the same
attaining {x0, r} and the same window count, bit for bit.  Overflow leaves
inf or NaN bounds: their counts sort first and their windows are always
scored, so the same error is raised.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .grid import (Grid1D, HalfPlaneField, NonIntegrableError,
                   PreconditionError, SampledFunction, integrate_window,
                   line_integral)

E = float(np.e)

_RADIUS_LADDER_STEPS = 16
# Elements per chunk of scored windows: 2 MB real or 4 MB complex, about
# one core's L2, so each chunk's deviations are reduced from cache.  It is
# about (n+1)^2/4 at n = 1024, so up to n = 1024 a count's windows split
# only where (n+1-c) c > 2^18, i.e. counts 490..535 at n = 1024, and every
# other sweep there allocates as with one chunk per count.  Not 1 << 16:
# its blocks of at most 1 MB no longer raise glibc's dynamic mmap threshold
# past the line rule's and the gauges' arrays, which then fault in fresh
# pages on every call (harmonic wall time +6-9%).
_OSC_CHUNK = 1 << 18
_U = 2.0 ** -53          # unit roundoff of float64
_TINY = 4.0 * np.finfo(float).tiny   # squares lost to underflow
_ABS_SLACK = 2.0 ** -1060            # rounding of subnormal scores and bounds
_GAUGE_TOL = 1e-8        # |phi - 1| at which a Luxemburg gauge stops
_GAUGE_STEPS = 200       # steps below max|f| before a gauge stops


# ---------------------------------------------------------------------------
# Musielak weights
# ---------------------------------------------------------------------------

# each takes the position x and the argument t >= 0, scalars or arrays
Weight = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _log_plus(s):
    return np.log(np.maximum(s, 1.0))


def THETA(x, t):
    """theta(x,t) = t / (1 + log+|x| + 0.5*log+ t)"""
    return t / (1.0 + _log_plus(np.abs(x)) + 0.5 * _log_plus(t))


def THETA0(x, t):
    """theta0(x,t) = theta(x, t^2)"""
    return THETA(x, t * t)


def weight_eval(w: Weight, x, t):
    """Evaluate the weight; scalar or broadcast arrays, t >= 0 required."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise PreconditionError("weights are defined for t >= 0 only")
    out = w(x, t)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class NormReport:
    """A computed norm value with solver/sweep diagnostics."""

    value: float
    attaining_parameter: object = None
    iterations: int = 0
    tolerance: float = 0.0
    flags: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value >= 0):
            raise PreconditionError("norm value must be finite and nonnegative")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "attaining_parameter": self.attaining_parameter,
            "iterations": self.iterations,
            "tolerance": self.tolerance,
            **({"flags": self.flags} if self.flags else {}),
        }


# ---------------------------------------------------------------------------
# Luxemburg gauge
# ---------------------------------------------------------------------------

def weight_integral(grid: Grid1D, magnitudes: np.ndarray, decay,
                    w: Weight, lam):
    """Integral of w(x, |f(x)|/lam) dx with the power-tail correction.

    The composed integrand decays at least as fast as |f| itself (the weight
    is dominated by t), so reusing the declared exponent overestimates the
    tail slightly; the bias is conservative and far below solver tolerance.
    Rows of magnitudes with lam of shape (k, 1) give the k row integrals.
    """
    vals = weight_eval(w, grid.nodes, magnitudes / lam)
    return line_integral(grid, vals, decay.p)


def _gauges(grid: Grid1D, mags: np.ndarray, decay):
    """Luxemburg gauges of theta for the rows of mags, all rows solved
    together.

    G(lam) = lam * phi(lam) = integral of |f| / (1 + log+|x| +
    0.5*log+(|f|/lam)) dx is nondecreasing in lam, constant for lam >= M,
    the row's max|f|, and its fixed point is the gauge, where its slope
    is at most phi/2 <= 1/2.  So each row steps lam <- G(lam) from M, one
    batched quadrature per step: the first step lands on M * phi(M), and
    where that is >= M it is the gauge in closed form; below M the
    iterates fall to the root, and the error at least halves per step.  A
    row stops when |phi - 1| <= _GAUGE_TOL, when a step does not lower lam
    (the closed form, or rounding), when a step underflows to 0 (the row
    keeps its last lam) or after _GAUGE_STEPS steps below M.  Returns per
    row the gauge and its step count; all-zero rows get 0 in 0 steps.
    """
    with np.errstate(over="ignore"):
        mass = grid.dx * mags.sum(axis=1)
    if not np.isfinite(mass).all():
        raise PreconditionError(
            "|f| or its L1 mass overflows float64; the gauge needs both finite")
    lam = mags.max(axis=1)
    its = np.zeros(lam.size, dtype=np.int64)
    rows = np.flatnonzero(lam)
    while rows.size:
        old = lam[rows]
        val = weight_integral(grid, mags[rows], decay, THETA, old[:, None])
        step = old * val
        lam[rows] = np.where(step > 0.0, step, old)
        done = ((np.abs(val - 1.0) <= _GAUGE_TOL) | (step >= old)
                | (step == 0.0) | (its[rows] == _GAUGE_STEPS))
        rows = rows[~done]
        its[rows] += 1
    return lam, its


def luxemburg_norm(f0: SampledFunction) -> NormReport:
    """Gauge norm inf{lam > 0 : integral of theta(x, |f|/lam) <= 1}.

    The one-row case of the solver that hlog_norm runs over all slices at
    once: lam <- lam * phi(lam) from M = max|f|, which gives M * phi(M)
    where phi(M) >= 1.  The report carries the achieved integral, and
    achieved_tolerance = |integral - 1| where that exceeds the tolerance, as
    on subnormal rows, whose neighbouring doubles straddle the root.
    """
    if not f0.decay.integrable:
        raise NonIntegrableError("Luxemburg gauge needs integrable decay")
    mags = np.abs(f0.values)[None, :]
    if not mags.any():
        return NormReport(0.0, attaining_parameter=None, iterations=0,
                          tolerance=_GAUGE_TOL)
    value, its = _gauges(f0.grid, mags, f0.decay)
    integral = float(weight_integral(f0.grid, mags, f0.decay, THETA,
                                     value[:, None])[0])
    flags = {"integral": integral}
    if abs(integral - 1.0) > _GAUGE_TOL:
        flags["achieved_tolerance"] = abs(integral - 1.0)
    return NormReport(float(value[0]), attaining_parameter=None,
                      iterations=int(its[0]), tolerance=_GAUGE_TOL,
                      flags=flags)


# ---------------------------------------------------------------------------
# mean oscillation
# ---------------------------------------------------------------------------

@functools.cache
def _window_counts(grid: Grid1D) -> tuple[int, ...]:
    """Sample counts of the interval family's windows, ascending, kept per
    grid: the radius ladder's rounding to counts depends on L, not on n
    alone."""
    counts = set()
    c = 2
    while c <= grid.n:
        counts.add(c)
        c *= 2
    for r in np.geomspace(grid.dx, 2.0 * grid.L, _RADIUS_LADDER_STEPS):
        odd = 2 * int(np.floor(r / grid.dx)) + 1
        counts.add(min(max(odd, 3), grid.n))
    return tuple(sorted(counts))


def _family_sup(grid: Grid1D, tops: dict) -> NormReport:
    """sup over the interval family of per-window scores.

    tops maps a window count to (k, s): the first offset k of the highest
    score s among the windows of that many samples (-inf when none of them
    can win).  Each count present adds its n + 1 - count windows to the
    number swept; a count left out adds none.  Ties keep the first offset
    of the smallest count, and the report carries the attaining interval
    {x0, r} and the number of windows swept."""
    best, best_iv, scanned = 0.0, None, 0
    for count, (k, s) in sorted(tops.items()):
        scanned += grid.n + 1 - count
        if s > best:
            best = float(s)
            best_iv = {"x0": float(grid.nodes[k] + (count - 1) * grid.dx / 2.0),
                       "r": count * grid.dx / 2.0}
    return NormReport(best, attaining_parameter=best_iv, iterations=scanned)


def _first_max(s: np.ndarray):
    """(k, s[k]) for the first-index maximum k of s."""
    k = int(np.argmax(s))
    return k, s[k]


def _prefix(x: np.ndarray) -> np.ndarray:
    return np.concatenate((np.zeros(1, dtype=x.dtype), np.cumsum(x)))


def _oscillation_bounds(vals: np.ndarray, counts) -> dict:
    """Per count, an upper bound on every window's score as `bmo_norm`
    computes it, rounding included; NaN or inf where that score may be.

    Cauchy-Schwarz bounds mean|f - m| by the window's standard deviation
    plus the error of the rounded mean m.  The deviation comes from prefix
    sums of u = (f - mean f)/s, where the power of two s puts |u| below 1
    exactly, so tiny data cannot underflow.  g (2n+8 unit roundoffs) times
    the sum of a window's two end prefixes of |terms| bounds the rounding of
    its window sum; it is at least 8 roundoffs of the window sum itself,
    which covers the subtractions, squares and divisions around it.  A
    prefix of |terms| never decreases, so the two end prefixes sum to at
    most twice the total, and the envelopes are three scalars per call:
    e1 = 2g sum|u|, e2 = 4g sum|u|^2 (twice 2g: the prefix sums' rounding
    and the difference's) and e0 = 2g sum|f| for m, e0/c per count.  Each
    is at least its window's envelope, looser by about 4n roundoffs of a
    total; an overflowing sum|f| makes every bound inf.

    Each count's row is built in two reused buffers, one rounded operation
    at a time, in the order of the formulas in the comments."""
    n = vals.size
    g = 2.0 * (n + 4) * _U
    bounds = {}
    with np.errstate(all="ignore"):     # overflow gives inf or NaN bounds
        dev = vals - vals.mean()
        scale = np.ldexp(1.0, np.frexp(np.max(np.abs(dev)))[1])
        u = dev / scale
        mag = np.abs(u)
        p1, p2 = _prefix(u), _prefix(mag * mag)
        e1 = 2.0 * g * mag.sum()
        e2 = 4.0 * g * p2[-1]
        e0 = 2.0 * g * np.abs(vals).sum()
        buffers = np.empty((2, n))
        diff = buffers[0] if p1.dtype == buffers.dtype else np.empty(
            n, dtype=p1.dtype)
        for c in counts:
            m = n + 1 - c
            a, v = buffers[:, :m]
            # a = max(s1 - e1, 0)^2 / c, s1 = |p1[c:] - p1[:-c]|
            np.absolute(np.subtract(p1[c:], p1[:-c], out=diff[:m]), out=a)
            a -= e1
            np.square(np.maximum(a, 0.0, out=a), out=a)
            a /= c
            # v = var = (s2 + e2 - a) / c, s2 = p2[c:] - p2[:-c]
            np.subtract(p2[c:], p2[:-c], out=v)
            v += e2
            v -= a
            v /= c
            # v = sigma = sqrt(max(var, 0) + tiny) + 2u, the 2u for the
            # rounding of f - mean f, at most u|u_j| < u
            np.maximum(v, 0.0, out=v)
            v += _TINY
            np.sqrt(v, out=v)
            v += 2.0 * _U
            # bound = (scale sigma + e0 / c) (1 + 4(c + 8)u)
            v *= scale
            v += e0 / c
            v *= 1.0 + 4.0 * (c + 8) * _U
            # a score overflows in its window sum, so c * bound must too
            v *= c
            v /= c
            bounds[c] = v + _ABS_SLACK
    return bounds


def _scores(vals: np.ndarray, prefix: np.ndarray, count: int,
            offsets: np.ndarray) -> np.ndarray:
    """Scores of the windows of `count` samples at offsets: the average of
    |f - m| over the window, m the window mean from a prefix difference.

    The windows are gathered _OSC_CHUNK elements at a time into a copy,
    which real data turns into |f - m| in place; the samples are never
    written.  Each window is reduced along its own row, so a window scores
    the same alone or in any chunk."""
    s = vals.strides[0]
    windows = np.lib.stride_tricks.as_strided(
        vals, (vals.size + 1 - count, count), (s, s), writeable=False)
    means = (prefix[offsets + count] - prefix[offsets]) / count
    chunk = max(1, _OSC_CHUNK // count)
    out = np.empty(offsets.size)
    for a in range(0, offsets.size, chunk):
        dev = windows[offsets[a:a + chunk]]
        dev -= means[a:a + chunk, None]
        if dev.dtype.kind == "c":
            dev = np.abs(dev)
        else:
            np.abs(dev, out=dev)
        out[a:a + chunk] = dev.mean(axis=1)
    return out


@np.errstate(over="ignore", invalid="ignore")
def bmo_norm(f0: SampledFunction) -> NormReport:
    """Mean-oscillation seminorm: sup over the interval family of the window
    average of |f - window mean|.  On a constant c it is rounding noise of
    order n*eps*|c|, not exactly zero: each window mean is a rounded
    difference of prefix sums of the samples.

    Only windows that can win are scored (see the module docstring), in
    one loop over the counts in decreasing order of their top bound that
    ends at the first top bound below LB.  A count whose top bound is NaN
    or inf sorts first and is always scored; a score that overflows
    float64 raises PreconditionError."""
    vals = f0.values.real if f0.is_real else f0.values
    prefix = _prefix(vals)
    bounds = _oscillation_bounds(vals, _window_counts(f0.grid))
    tops = {c: b.max() for c, b in bounds.items()}
    order = sorted(tops, key=lambda c: -np.inf if np.isnan(tops[c])
                   else -tops[c])

    # each count's highest-bound window raises LB before the count's other
    # windows meet it; a NaN score leaves LB as it is
    lb, best = -np.inf, {}
    for count in order:
        if tops[count] < lb:        # and so are all later tops
            break
        k = int(np.argmax(bounds[count]))
        top = _scores(vals, prefix, count, np.array([k]))
        lb = max(lb, top[0])
        # NaN bounds are kept, and so is k, whose bound is at least LB: the
        # others are scored and k's score goes back in its place
        keep = np.flatnonzero(~(bounds[count] < lb))
        i = int(np.searchsorted(keep, k))
        s = _scores(vals, prefix, count,
                    np.concatenate((keep[:i], keep[i + 1:])))
        k, s = _first_max(np.concatenate((s[:i], top, s[i:])))
        best[count] = int(keep[k]), s
        lb = max(lb, s)
    if not all(np.isfinite(s) for _, s in best.values()):
        raise PreconditionError("window sums of the samples overflow float64")
    # pruned counts still count their windows
    return _family_sup(f0.grid, {c: best.get(c, (0, -np.inf)) for c in tops})


def bmo_plus_norm(f0: SampledFunction) -> NormReport:
    """Mean oscillation plus the L1 mass on (-1, 1), making a genuine norm."""
    rep = bmo_norm(f0)
    local = integrate_window(f0.grid, np.abs(f0.values), -1.0, 1.0)
    return NormReport(rep.value + local, attaining_parameter=rep.attaining_parameter,
                      iterations=rep.iterations,
                      flags={"oscillation": rep.value, "local_mass": local})


# ---------------------------------------------------------------------------
# sup-over-heights norms
# ---------------------------------------------------------------------------

def hp_norm(field: HalfPlaneField) -> NormReport:
    """The H^1 norm: sup over ladder heights of the slice L1 integral, with
    the field's power tail, if any."""
    if not field.decay.integrable:
        raise NonIntegrableError("field slices are not integrable")
    integrals = line_integral(field.grid, np.abs(field.values), field.decay.p)
    k = int(np.argmax(integrals))
    return NormReport(float(integrals[k]),
                      attaining_parameter=field.ladder.levels[k],
                      iterations=field.ladder.count)


def hlog_norm(field: HalfPlaneField) -> NormReport:
    """sup over ladder heights of the slice Luxemburg gauge with theta.

    One solver run covers every slice at once; each slice's gauge and step
    count are those luxemburg_norm gives alone."""
    if not field.decay.integrable:
        raise NonIntegrableError("Luxemburg gauge needs integrable decay")
    value, its = _gauges(field.grid, np.abs(field.values), field.decay)
    k = int(np.argmax(value))
    return NormReport(float(value[k]), attaining_parameter=field.ladder.levels[k],
                      iterations=int(its.sum()), tolerance=_GAUGE_TOL)


# ---------------------------------------------------------------------------
# tent energies
# ---------------------------------------------------------------------------

def _slope(field: HalfPlaneField) -> np.ndarray:
    """d/dx of each slice by differences that never wrap the window:
    (v[j-2] - 8v[j-1] + 8v[j+1] - v[j+2]) / 12dx inside, np.gradient's
    second-order values in the two end columns on each side.  For a
    holomorphic field this is the complex derivative."""
    v, dx = field.values, field.grid.dx
    d = np.empty_like(v)
    mid = np.subtract(v[:, 3:-1], v[:, 1:-3], out=d[:, 2:-2])
    mid *= 8.0
    mid += v[:, :-4] - v[:, 4:]
    mid /= 12.0 * dx
    d[:, :2] = np.gradient(v[:, :3], dx, axis=1, edge_order=2)[:, :2]
    d[:, -2:] = np.gradient(v[:, -3:], dx, axis=1, edge_order=2)[:, 1:]
    return d


def _height_weights(levels: np.ndarray, r: float) -> Optional[np.ndarray]:
    """Quadrature weights for integral_0^r G(y) dy on ladder points below r.

    Linear-from-zero below the lowest point (the integrand carries a factor
    y, so G(0) = 0), trapezoid between points, constant hold up to r: each
    point weighs (next - previous)/2, 0 before the first, 2r - y_last after."""
    ys = levels[levels < r]
    if ys.size == 0:
        return None
    knots = np.concatenate(([0.0], ys, [2.0 * r - ys[-1]]))
    return 0.5 * (knots[2:] - knots[:-2])


def _tent_sweep(field: HalfPlaneField, scale: float, ratio_fn):
    """sup over the interval family of ratio_fn applied to box integrals of
    the energy scale * |dF/dx|^2 * y.

    ratio_fn maps (box_integrals, x0s, r) to per-offset ratios."""
    grid = field.grid
    levels = field.ladder.y
    energy = scale * np.abs(_slope(field)) ** 2 * levels[:, None]
    prefix = np.zeros((levels.size, grid.n + 1))
    np.cumsum(energy, axis=1, out=prefix[:, 1:])
    tops = {}
    for count in _window_counts(grid):
        r = count * grid.dx / 2.0
        w = _height_weights(levels, r)
        if w is None:       # no height below r: the count is skipped
            continue
        sums = prefix[:w.size, count:] - prefix[:w.size, :-count]
        boxes = (w @ sums) * grid.dx
        x0s = grid.nodes[:boxes.size] + (count - 1) * grid.dx / 2.0
        tops[count] = _first_max(ratio_fn(boxes, x0s, r))
    return _family_sup(grid, tops)


def carleson_ratio(g_field: HalfPlaneField) -> NormReport:
    """sup over intervals of (1/|I|) integral over the box of |g'|^2 y dxdy."""
    return _tent_sweep(g_field, 1.0, lambda boxes, x0s, r: boxes / (2.0 * r))


def bmoa_log_seminorm(b_field: HalfPlaneField) -> NormReport:
    """Logarithmically weighted tent condition:
    sup (|log r| + log(e+|x0|))/r * box integral of |grad b|^2 y dxdy,
    with |grad b|^2 taken as 2|b'|^2 for holomorphic b."""
    return _tent_sweep(b_field, 2.0, lambda boxes, x0s, r: boxes * (
        abs(np.log(r)) + np.log(E + np.abs(x0s))) / r)
