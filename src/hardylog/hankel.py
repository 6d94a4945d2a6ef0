"""Hankel operator H_b f = P(b conj(f)) and the associated bilinear form,
plus a seeded randomized boundedness study against the log-weighted tent
seminorm of the symbol."""

from __future__ import annotations

import numpy as np

from . import library as lib
from .grid import (Grid1D, HeightLadder, PreconditionError, SampledFunction,
                   line_integral, make_ladder, product_decay)
from .spaces import bmoa_log_seminorm, bmo_plus_norm
from .transforms import (holomorphic_slice, poisson_extend, poisson_slice,
                         szego_project)

_DEGENERATE_SEMINORM = 1e-12


def _check_symbol(b0: SampledFunction) -> None:
    if not b0.decay.bounded:
        raise PreconditionError("Hankel symbols must be flagged bounded")


def hankel_apply(b0: SampledFunction, f0: SampledFunction) -> SampledFunction:
    """H_b f = P(b * conj(f)): antilinear in f, exact at machine precision.

    The symbol must be flagged bounded; f needs integrable decay so the
    product inherits it.
    """
    if b0.grid != f0.grid:
        raise PreconditionError("symbol and argument live on different grids")
    _check_symbol(b0)
    if not f0.decay.integrable:
        raise PreconditionError("Hankel argument needs integrable decay")
    prod = SampledFunction(b0.grid, b0.values * np.conj(f0.values), f0.decay)
    return szego_project(prod)


def hankel_form(b0: SampledFunction, f0: SampledFunction,
                g0: SampledFunction) -> complex:
    """Bilinear form <b, fg> as the boundary pairing of the symbol against
    the conjugated product of the boundary values f0 and g0."""
    _check_symbol(b0)
    if not b0.grid == f0.grid == g0.grid:
        raise PreconditionError("form arguments live on different grids")
    if not product_decay(f0.decay, g0.decay).integrable:
        raise PreconditionError("product boundary value is not integrable")
    # core trapezoid only: oscillatory pairings cancel in the tails, so the
    # coherent-phase power-tail model would overcount
    return complex(line_integral(b0.grid,
                                 b0.values * np.conj(f0.values * g0.values)))


def symbol_ladder(grid: Grid1D) -> HeightLadder:
    """The 32 heights from dx/2 to 2L on which symbols are extended."""
    return make_ladder(0.5 * grid.dx, 2.0 * grid.L, 32)


def trial_pairs(grid: Grid1D, trials: int, seed: int
                ) -> list[tuple[SampledFunction, SampledFunction, float]]:
    """Seeded test pairs (f0, g0, g_plus) for the boundedness study.

    f0 is the Cauchy row at y0 = dx/2 of an odd-Gaussian bump, scaled to unit
    H^1 norm, and g0 is P_y0 of a bounded random BMO mixture, the boundary
    values the form reads; g_plus is the mixture's augmented BMO norm.  The
    H^1 norm is the sup over heights of the rows' L1 norms, and P_y contracts
    L1, so the sup sits at the lowest height and the norm is the L1 integral
    of the row at y0 itself.  No draw depends on a symbol, so one list serves
    every symbol, and the first k pairs are those of trial_pairs(grid, k,
    seed).
    """
    y0 = 0.5 * grid.dx
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(trials):
        center = rng.uniform(-grid.L / 4, grid.L / 4)
        width = rng.uniform(0.5, 4.0)
        row = holomorphic_slice(lib.gaussian_deriv(grid, center, width), y0)
        # hp_norm's arithmetic on one row: bit for bit the ladder's sup
        f0 = row.with_values(row.values * (
            1.0 / line_integral(grid, np.abs(row.values), row.decay.p)))
        mixture = lib.bmo_mixture(grid, rng)
        pairs.append((f0, poisson_slice(mixture, y0),
                      bmo_plus_norm(mixture).value))
    return pairs


def boundedness_study(b0: SampledFunction, pairs: list) -> dict:
    """Sweep of |<b, fg>| over the given test pairs (see trial_pairs).

    The symbol's tent seminorm is read from its extension over
    symbol_ladder.  The reported ratio divides by sqrt(seminorm) * ||g||, f
    being normalized already; a symbol with vanishing tent seminorm
    (constants) is flagged degenerate instead of ratioed.

    The extension is P_y b, real for a real symbol, while bmoa_log_seminorm
    takes 2|b'|^2, |grad b|^2 only for holomorphic b: on symbol_ladder at
    L=16, n=1024, p1 reads 0.0303 here and 0.0162 on the Cauchy rows that
    norm --norm bmoalog reads, while exp_ix reads 4.498 on both.
    """
    if not pairs:
        raise PreconditionError("need at least one trial")
    seminorm = bmoa_log_seminorm(
        poisson_extend(b0, symbol_ladder(b0.grid))).value
    degenerate = seminorm < _DEGENERATE_SEMINORM

    rows = []
    for t, (f0, g0, g_plus) in enumerate(pairs):
        form = abs(hankel_form(b0, f0, g0))
        ratio = None if degenerate else \
            form / (np.sqrt(seminorm) * g_plus)
        rows.append({"trial": t, "form": form, "g_plus": g_plus,
                     "ratio": ratio})

    return {
        "seminorm": seminorm,
        "degenerate": degenerate,
        "max_form": max(r["form"] for r in rows),
        "max_ratio": None if degenerate else max(r["ratio"] for r in rows),
        "rows": rows,
    }
