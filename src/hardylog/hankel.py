"""Hankel operator H_b f = P(b conj(f)) and the associated bilinear form,
plus a seeded randomized boundedness study against the log-weighted tent
seminorm of the symbol."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import library as lib
from .grid import (HalfPlaneField, HeightLadder, PreconditionError,
                   SampledFunction, line_integral, make_ladder)
from .factor import product
from .spaces import bmoa_log_seminorm, bmo_plus_norm, hp_norm
from .transforms import boundary_value, poisson_extend, szego_project

_DEGENERATE_SEMINORM = 1e-12


def hankel_apply(b0: SampledFunction, f0: SampledFunction) -> SampledFunction:
    """H_b f = P(b * conj(f)): antilinear in f, exact at machine precision.

    The symbol must be flagged bounded; f needs integrable decay so the
    product inherits it.
    """
    if b0.grid != f0.grid:
        raise PreconditionError("symbol and argument live on different grids")
    if b0.bounded is not True:
        raise PreconditionError("Hankel symbols must be flagged bounded")
    if not f0.decay.integrable:
        raise PreconditionError("Hankel argument needs integrable decay")
    prod = SampledFunction(b0.grid, b0.values * np.conj(f0.values), f0.decay)
    return szego_project(prod)


def hankel_form(b0: SampledFunction, f_field: HalfPlaneField,
                g_field: HalfPlaneField) -> complex:
    """Bilinear form <b, fg> as the boundary pairing of the symbol against
    the conjugated boundary value of the pointwise product."""
    if b0.bounded is not True:
        raise PreconditionError("Hankel symbols must be flagged bounded")
    prod = product(f_field, g_field)
    bv = boundary_value(prod)
    if not prod.decay.integrable:
        raise PreconditionError("product boundary value is not integrable")
    vals = b0.values * np.conj(bv.f0.values)
    # core trapezoid only: oscillatory pairings cancel in the tails, so the
    # coherent-phase power-tail model would overcount
    return complex(line_integral(b0.grid, vals))


def _scaled_field(field: HalfPlaneField, c: float) -> HalfPlaneField:
    return HalfPlaneField(field.grid, field.ladder, field.values * c,
                          field.decay)


def boundedness_study(b0: SampledFunction, trials: int, seed: int,
                      b_field: Optional[HalfPlaneField] = None,
                      ladder: Optional[HeightLadder] = None) -> dict:
    """Randomized sweep of |<b, fg>| over normalized test pairs.

    f runs over projected odd-Gaussian bumps scaled to unit sup-of-heights
    L1 norm, g over harmonic extensions of bounded random BMO mixtures.
    The reported ratio divides by sqrt(seminorm) * ||f|| * ||g||; a symbol
    with vanishing tent seminorm (constants) is flagged degenerate instead
    of ratioed.  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise PreconditionError("need at least one trial")
    grid = b0.grid
    dx = grid.dx
    if ladder is None:
        ladder = make_ladder(0.5 * dx, 2.0 * grid.L, 32)
    if b_field is None:
        b_field = poisson_extend(b0, ladder)
    seminorm = bmoa_log_seminorm(b_field).value
    degenerate = seminorm < _DEGENERATE_SEMINORM

    pair_ladder = make_ladder(0.5 * dx, 1.5, 8)
    rng = np.random.default_rng(seed)
    rows = []
    max_form = 0.0
    max_ratio = 0.0
    for t in range(trials):
        center = rng.uniform(-grid.L / 4, grid.L / 4)
        width = rng.uniform(0.5, 4.0)
        f0 = szego_project(lib.gaussian_deriv(grid, center, width))
        f_field = poisson_extend(f0, pair_ladder)
        h1 = hp_norm(f_field, 1.0).value
        f_field = _scaled_field(f_field, 1.0 / h1)

        g0 = lib.bmo_mixture(grid, rng)
        g_field = poisson_extend(g0, pair_ladder)
        g_plus = bmo_plus_norm(g0).value

        form = abs(hankel_form(b0, f_field, g_field))
        ratio = None if degenerate else \
            form / (np.sqrt(seminorm) * g_plus)
        rows.append({"trial": t, "form": form, "g_plus": g_plus,
                     "ratio": ratio})
        max_form = max(max_form, form)
        if ratio is not None:
            max_ratio = max(max_ratio, ratio)

    return {
        "seminorm": seminorm,
        "degenerate": degenerate,
        "max_form": max_form,
        "max_ratio": None if degenerate else max_ratio,
        "trials": trials,
        "seed": seed,
        "rows": rows,
    }
