"""Constructive multiplicative splitting h = f*g on the half-plane.

The outer factor g is built from the boundary data: a logarithmic symbol
b = log|x + ie| + log(e + M(sqrt|h0|)) (real, >= 2 everywhere, bounded mean
oscillation by the maximal-function log construction), completed to
holomorphic boundary data b + iHb and extended by the Cauchy rows of b.
b declares its growth as terms (``grid.Term``), so the main part of g is
log(z + ie) + 1 - i pi/2 in closed form.  The inner factor is the literal
pointwise quotient f = h/g, which never degenerates because |g| >= Re g is
pinned away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (HalfPlaneField, HeightLadder, LOG_GROWTH,
                   PreconditionError, SampledFunction, Term, frozen,
                   integrate, product_decay)
from .maximal import max_interval_average
from .spaces import E, bmo_plus_norm
from .transforms import (_cauchy_decay, _direct_heights, boundary_value,
                         szego_project)


@dataclass(frozen=True)
class FactorizationResult:
    """The computed pair (f, g), the real symbol b, and diagnostics."""

    f_field: HalfPlaneField
    g_field: HalfPlaneField
    b: SampledFunction
    h0: SampledFunction
    f0: SampledFunction
    g0: SampledFunction
    residual: float
    f_l1: float
    g_norm: float
    boundary_gap: float = 0.0
    boundary_flagged: bool = False


def coifman_rochberg_symbol(h0: SampledFunction) -> SampledFunction:
    """Real symbol log|x + ie| + log(e + M(sqrt|h0|)); both parts are >= 1.

    The maximal sweep is applied to the square root directly (square roots
    of integrable data decay too slowly to carry an integrable tail tag, and
    the sweep never integrates tails anyway).  The symbol declares the terms
    log|u + ie| and 1, the exact tail since M(sqrt|h0|) -> 0; the rest,
    log(e + M) - 1, is zero off the window.
    """
    if not h0.decay.integrable:
        raise PreconditionError("symbol construction needs integrable decay")
    grid = h0.grid
    m = max_interval_average(np.sqrt(np.abs(h0.values)))
    tail = (Term("log", 1.0, w=E), Term("const", 1.0))
    vals = tail[0].at(grid.nodes) + np.log(E + m)
    return SampledFunction(grid, vals, LOG_GROWTH, tail=tail)


def build_g(b: SampledFunction, ladder: HeightLadder
            ) -> tuple[SampledFunction, HalfPlaneField]:
    """Holomorphic-type outer factor: twice the Szego projection of b,
    g0 = b + iHb, and twice its Cauchy rows, P_y b + i Q_y b, with b's
    declared terms in closed form; |g0| >= b >= 1 pointwise.  The rows
    are doubled in the array that holds them."""
    if not b.is_real:
        raise PreconditionError("symbol must be real")
    if b.values.real.min() < 1.0:
        raise PreconditionError("symbol must be >= 1 everywhere")
    g0 = szego_project(b)
    rows = _direct_heights(b, ladder.y, cauchy=True)
    rows *= 2.0
    return (SampledFunction(b.grid, frozen(2.0 * g0.values), g0.decay),
            HalfPlaneField(b.grid, ladder, frozen(rows), _cauchy_decay(b)))


def factorize(h_field: HalfPlaneField) -> FactorizationResult:
    """Split h = f*g with g from the boundary symbol and f the exact quotient.

    The residual max|h - f*g| / max|h| is zero up to roundoff by
    construction; the reported diagnostics (|f0| mass, symbol norm, boundary
    gap) are the checkable content.  The symbol's norm is taken before any
    field is built and the residual row by row, so the working set is h,
    g and f.
    """
    bv = boundary_value(h_field)
    h0 = bv.f0
    b = coifman_rochberg_symbol(h0)
    g_norm = bmo_plus_norm(b).value
    g0, g_field = build_g(b, h_field.ladder)

    f_vals = frozen(h_field.values / g_field.values)
    f_field = HalfPlaneField(h_field.grid, h_field.ladder, f_vals,
                             h_field.decay)
    h_max = err = 0.0
    for h, f, g in zip(h_field.values, f_vals, g_field.values):
        h_max = max(h_max, float(np.max(np.abs(h))))
        err = max(err, float(np.max(np.abs(h - f * g))))
    residual = err / h_max if h_max else 0.0

    f0 = SampledFunction(h_field.grid, h0.values / g0.values, h0.decay)
    f_l1 = float(integrate(f0.abs()))
    return FactorizationResult(
        f_field=f_field, g_field=g_field, b=b, h0=h0, f0=f0, g0=g0,
        residual=residual, f_l1=f_l1, g_norm=g_norm,
        boundary_gap=bv.gap, boundary_flagged=bv.flagged)


def product(f_field: HalfPlaneField, g_field: HalfPlaneField) -> HalfPlaneField:
    """Pointwise product of two fields on the same grid and ladder."""
    if f_field.grid != g_field.grid:
        raise PreconditionError("product factors live on different grids")
    if f_field.ladder.levels != g_field.ladder.levels:
        raise PreconditionError("product factors live on different ladders")
    return HalfPlaneField(f_field.grid, f_field.ladder,
                          frozen(f_field.values * g_field.values),
                          product_decay(f_field.decay, g_field.decay))
