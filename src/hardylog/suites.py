"""The six verification suites behind ``hardylog verify``, one per result of
the paper: lemma 3.1, the product estimate of proposition 3.1, the
cone-maximal theorem 2.1, the factorization of theorem 1.1, the
Coifman-Rochberg symbol bound and Hankel duality.

Each suite takes a run config (``cli.RunConfig``) and returns its
``case,lhs,rhs,ratio`` rows and a summary dict with a ``pass`` entry.
"""

from __future__ import annotations

import numpy as np

from . import library as lib
from .factor import coifman_rochberg_symbol, factorize, product
from .grid import Grid1D, HeightLadder, make_grid
from .hankel import boundedness_study, hankel_apply, trial_pairs
from .maximal import max_interval_average, nontangential_max
from .spaces import E, bmo_plus_norm, hlog_norm, hp_norm, luxemburg_norm
from .transforms import (boundary_value, holomorphic_extension,
                         poisson_slice, szego_project)


def _lemma31_symbols(grid: Grid1D, seed: int):
    rng = np.random.default_rng(seed)
    syms = [("sgn", lib.sign_step(grid)), ("logabs", lib.log_abs(grid))]
    for k in range(5):
        syms.append((f"mix{k}", lib.bmo_mixture(grid, rng)))
    return syms


def suite_lemma31(cfg):
    """Augmented-BMO growth of harmonic extensions: at height y the norm is
    at most C log(e+y) times the boundary norm, with logarithmic growth."""
    grid = cfg.grid()
    heights = (1.0, 10.0, 100.0, 1000.0)
    rows, by_case = [], {}
    symbols = _lemma31_symbols(grid, cfg.seed)
    for name, f0 in symbols:
        base = bmo_plus_norm(f0).value
        for y in heights:
            lhs = bmo_plus_norm(poisson_slice(f0, y)).value
            rhs = np.log(E + y) * base
            rows.append((f"{name}@y={y:g}", lhs, rhs, lhs / rhs))
            by_case[(name, y)] = lhs
    max_ratio = max(r[3] for r in rows)
    log_ok = True
    growth_cap = 2.0 * np.log(E + 1000.0) / np.log(E + 10.0)
    for name, _ in symbols:
        g = by_case[(name, 1000.0)] / by_case[(name, 10.0)]
        log_ok = log_ok and (g <= growth_cap)
    summary = {"max_ratio": max_ratio, "ratio_bound": 10.0,
               "log_growth_ok": log_ok,
               "pass": bool(max_ratio <= 10.0 and log_ok)}
    return rows, summary


def _szego_gauss(grid: Grid1D, ladder: HeightLadder):
    """[("szego_gauss", field)], the extended Szego projection of the
    Gaussian derivative, or [] on ladders that start below dx/2."""
    # The extension takes any height; the guard bounds the suites' cost.
    # Below dx/2 this case and thm11's cauchy_bump would add four rows of
    # factorizations to thm11, which then takes 0.56 s instead of 0.26 s at
    # n=1024.
    if ladder.levels[0] < 0.5 * grid.dx:
        return []
    return [("szego_gauss", holomorphic_extension(
        lib.gaussian_deriv(grid, 0.0, 1.0), ladder))]


def _h1_family(grid: Grid1D, ladder: HeightLadder):
    return [
        ("inv_sq", lib.field_inv_square(grid, ladder, 1.0)),
        ("inv_sq_wide", lib.field_inv_square(grid, ladder, 2.0, 2.0)),
        ("inv_sq_narrow", lib.field_inv_square(grid, ladder, 0.5)),
        ("cauchy_pair", lib.field_cauchy_pair(grid, ladder, 1.0, 2.0)),
        ("cauchy_pair_wide", lib.field_cauchy_pair(grid, ladder, 0.5, 3.0)),
    ] + _szego_gauss(grid, ladder)


def _bmoa_family(grid: Grid1D, ladder: HeightLadder):
    return [
        ("one", lib.field_constant(grid, ladder, 1.0)),
        ("exp_iz", lib.field_exp_osc(grid, ladder, 1.0)),
        ("exp_2iz", lib.field_exp_osc(grid, ladder, 2.0)),
        ("blaschke", lib.field_blaschke(grid, ladder)),
        ("exp_iz_slow", lib.field_exp_osc(grid, ladder, 0.5)),
    ]


def suite_prop31(cfg):
    """Product estimate: the log-Hardy norm of f*g is controlled by
    ||f||_{H1} times the augmented BMO norm of g's boundary data."""
    grid, ladder = cfg.grid(), cfg.ladder()
    ffam = _h1_family(grid, ladder)
    gfam = _bmoa_family(grid, ladder)
    rows = []
    fnorms = {n: hp_norm(f).value for n, f in ffam}
    gnorms = {n: bmo_plus_norm(g.slice_at(0)).value for n, g in gfam}
    for fn, f in ffam:
        for gn, g in gfam:
            lhs = hlog_norm(product(f, g)).value
            rhs = fnorms[fn] * gnorms[gn]
            rows.append((f"{fn}*{gn}", lhs, rhs, lhs / rhs))
    max_ratio = max(r[3] for r in rows)
    summary = {"max_ratio": max_ratio, "ratio_bound": 50.0,
               "pass": bool(np.isfinite(max_ratio) and max_ratio <= 50.0)}
    return rows, summary


def suite_thm21(cfg):
    """Cone-maximal characterization: the gauge of f* dominates the
    sup-of-heights gauge exactly, and is dominated by C times it."""
    grid, ladder = cfg.grid(), cfg.ladder()
    rows = []
    c24_max = 0.0
    central = np.abs(grid.nodes) <= grid.L / 2
    for name, f in _h1_family(grid, ladder):
        star = nontangential_max(f)
        star_norm = luxemburg_norm(star).value
        hnorm = hlog_norm(f).value
        rows.append((f"{name}:hard", star_norm, hnorm, star_norm / hnorm))
        rows.append((f"{name}:easy", hnorm, star_norm + 1e-6,
                     hnorm / (star_norm + 1e-6)))
        f0 = boundary_value(f).f0
        m_half = max_interval_average(np.sqrt(np.abs(f0.values)))
        c24 = np.max(np.sqrt(star.values.real[central]) / m_half[central])
        c24_max = max(c24_max, float(c24))
    hard = max(r[3] for r in rows if r[0].endswith("hard"))
    easy_ok = all(r[3] <= 1.0 + 1e-12 for r in rows if r[0].endswith("easy"))
    summary = {"max_ratio": hard, "ratio_bound": 10.0, "easy_ok": easy_ok,
               "pointwise_c": c24_max, "pointwise_bound": 10.0,
               "pass": bool(hard <= 10.0 and easy_ok and c24_max <= 10.0)}
    return rows, summary


def _thm11_cases(grid: Grid1D, ladder: HeightLadder):
    cases = [("inv_sq", lib.field_inv_square(grid, ladder, 1.0)),
             ("cauchy_pair", lib.field_cauchy_pair(grid, ladder, 1.0, 2.0))]
    for name, ext in _szego_gauss(grid, ladder):
        cauchy = lib.field_cauchy(grid, ladder, 1.0)
        cases.append(("cauchy_bump", product(cauchy, ext)))
        cases.append((name, ext))
    return cases


def suite_thm11(cfg):
    """Constructive factorization: exact reconstruction, symbol bounds, and
    stability of the inner factor's mass under domain doubling."""
    grid, ladder = cfg.grid(), cfg.ladder()
    grid2 = make_grid(2 * cfg.grid_l, 2 * cfg.grid_n)
    rows = []
    ok = True
    base_l1 = {}
    for name, h in _thm11_cases(grid, ladder):
        res = factorize(h)
        base_l1[name] = res.f_l1
        rows.append((f"{name}:residual", res.residual, 1e-10,
                     res.residual / 1e-10))
        b_ok = res.b.values.real.min() >= 1.0
        g_ok = float(np.min(np.abs(res.g0.values))) >= 1.0
        f_le_h = bool(np.all(np.abs(res.f0.values) <=
                             np.abs(res.h0.values) + 1e-15))
        ok = ok and b_ok and g_ok and f_le_h and res.residual <= 1e-10
    for name, h2 in _thm11_cases(grid2, ladder):
        res2 = factorize(h2)
        change = abs(res2.f_l1 - base_l1[name]) / base_l1[name]
        rows.append((f"{name}:l1_doubling", change, 0.05, change / 0.05))
        ok = ok and change <= 0.05
    summary = {"max_ratio": max(r[3] for r in rows), "pass": bool(ok)}
    return rows, summary


def suite_cr(cfg):
    """Symbol construction: augmented BMO norm of the log symbol stays below
    20 across six orders of magnitude of input size."""
    grid = cfg.grid()
    cases = [("chi", lib.indicator(grid, 0.0, 1.0)),
             ("p1", lib.poisson_bump(grid)),
             ("wcos", lib.windowed_cos(grid))]
    for amp in (1e-3, 1e-1, 1e1, 1e3):
        cases.append((f"gauss@{amp:g}", lib.gaussian(grid, amplitude=amp)))
    rows = []
    for name, h0 in cases:
        b = coifman_rochberg_symbol(h0)
        val = bmo_plus_norm(b).value
        rows.append((name, val, 20.0, val / 20.0))
    max_ratio = max(r[3] for r in rows)
    summary = {"max_ratio": max_ratio, "cr_bound": 20.0,
               "pass": bool(max_ratio <= 1.0)}
    return rows, summary


def suite_hankel(cfg):
    """Hankel form: exact antilinearity, the randomized forward sweep of
    the exp(ix) symbol (the study ``hankel --function exp_ix`` runs), and
    the degenerate constant-symbol flag."""
    grid = cfg.grid()
    b0 = lib.exp_osc(grid, 1.0)
    f0 = szego_project(lib.gaussian_deriv(grid))
    lhs1 = hankel_apply(b0, f0.with_values(1j * f0.values))
    rhs1 = hankel_apply(b0, f0)
    anti = float(np.max(np.abs(lhs1.values - (-1j) * rhs1.values)))
    scale = float(np.max(np.abs(rhs1.values)))
    anti_rel = anti / scale if scale else 0.0

    pairs = trial_pairs(grid, 50, cfg.seed)
    study = boundedness_study(b0, pairs)
    const_study = boundedness_study(lib.constant(grid, 1.0), pairs[:3])

    rows = [("antilinearity", anti_rel, 1e-12, anti_rel / 1e-12)]
    denom = np.sqrt(study["seminorm"])
    for r in study["rows"]:
        rows.append((f"trial{r['trial']}", r["form"],
                     denom * r["g_plus"], r["ratio"]))
    ok = (anti_rel <= 1e-12 and np.isfinite(study["max_ratio"])
          and const_study["degenerate"])
    summary = {"max_ratio": study["max_ratio"], "seminorm": study["seminorm"],
               "antilinearity": anti_rel,
               "constant_symbol_flagged": const_study["degenerate"],
               "pass": bool(ok)}
    return rows, summary


SUITES = {"lemma31": suite_lemma31, "prop31": suite_prop31,
          "thm21": suite_thm21, "thm11": suite_thm11, "cr": suite_cr,
          "hankel": suite_hankel}
