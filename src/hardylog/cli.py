"""Batch driver: norms, factorizations, inequality sweeps, Hankel studies.

Reports are JSON/CSV only, written atomically (temp file + rename), carry
the config hash and toolkit version, and are byte-identical across runs
with the same config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, library as lib
from .factor import coifman_rochberg_symbol, factorize, product
from .grid import (Grid1D, HalfPlaneField, HeightLadder, PreconditionError,
                   SampledFunction, _atomic_write, integrate, load_function,
                   make_grid, make_ladder, save_function)
from .hankel import (_check_symbol, boundedness_study, hankel_apply,
                     symbol_ladder, trial_pairs)
from .maximal import max_interval_average, nontangential_max
from .spaces import (NormReport, THETA, bmo_norm, bmo_plus_norm,
                     bmoa_log_seminorm, carleson_ratio, hlog_norm, hp_norm,
                     luxemburg_norm)
from .transforms import boundary_value, poisson_extend, poisson_slice, szego_project

E = float(np.e)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESIDUAL = 4

NORMS = ("l1", "llog", "bmo", "bmoplus", "h1", "hlog", "bmoalog", "carleson")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    grid_l: float = 64.0
    grid_n: int = 4096
    y_min: float = 1e-3
    y_max: float = 1e3
    levels: int = 48
    seed: int = 1234
    out: str = "."

    def validate(self) -> None:
        # the grid and ladder constructors own the rules
        self.grid()
        self.ladder()

    def grid(self) -> Grid1D:
        return make_grid(self.grid_l, self.grid_n)

    def ladder(self) -> HeightLadder:
        return make_ladder(self.y_min, self.y_max, self.levels)

    def canonical(self) -> str:
        # the output directory is not semantic config
        pairs = [(f.name, getattr(self, f.name)) for f in fields(self)
                 if f.name != "out"]
        return "\n".join(f"{k}={v!r}" for k, v in sorted(pairs))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _coerce(name: str, kind, raw: str):
    try:
        return kind(raw)
    except ValueError as exc:
        raise PreconditionError(f"bad value for {name}: {raw!r}") from exc


def load_config(path: str | None, env: dict, overrides: dict) -> RunConfig:
    cfg = RunConfig()
    kinds = {f.name: type(f.default) for f in fields(RunConfig)}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PreconditionError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip().lower()
            if key not in kinds:
                raise PreconditionError(f"{path}:{lineno}: unknown key {key!r}")
            setattr(cfg, key, _coerce(key, kinds[key], raw.strip()))
    for key, kind in kinds.items():
        raw = env.get(f"HARDYLOG_{key.upper()}")
        if raw is not None:
            setattr(cfg, key, _coerce(key, kind, raw))
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    return cfg


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path: Path, payload: dict, cfg: RunConfig) -> None:
    payload = dict(payload)
    payload["config_hash"] = cfg.digest()
    payload["version"] = __version__
    _atomic_write(path, json.dumps(_jsonify(payload), sort_keys=True,
                                   indent=2) + "\n")


def write_csv(path: Path, rows: list[tuple]) -> None:
    lines = ["case,lhs,rhs,ratio"]
    for case, lhs, rhs, ratio in rows:
        lines.append(f"{case},{lhs:.12g},{rhs:.12g},{ratio:.12g}")
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------

def _boundary(args, grid: Grid1D) -> SampledFunction:
    """The named input on the config grid, or the --input file parsed by
    main; a file keeps the grid of its own header."""
    if args.function is not None:
        return lib.named_function(args.function, grid)
    return args.f0


def holomorphic_extension(f0: SampledFunction, ladder: HeightLadder):
    """Szego projection then harmonic extension; if the input is already in
    the projection's range its closed-form continuation is retained."""
    proj = szego_project(f0)
    scale = float(np.max(np.abs(f0.values))) or 1.0
    if float(np.max(np.abs(proj.values - f0.values))) <= 1e-12 * scale:
        proj = f0
    return poisson_extend(proj, ladder)


# ---------------------------------------------------------------------------
# norm command
# ---------------------------------------------------------------------------

def _run_norm(f0: SampledFunction, norm: str, cfg: RunConfig) -> NormReport:
    if norm == "l1":
        return NormReport(float(integrate(f0.abs())))
    if norm == "llog":
        return luxemburg_norm(f0, THETA)
    if norm == "bmo":
        return bmo_norm(f0)
    if norm == "bmoplus":
        return bmo_plus_norm(f0)
    field = holomorphic_extension(f0, cfg.ladder())
    if norm == "h1":
        return hp_norm(field, 1.0)
    if norm == "hlog":
        return hlog_norm(field)
    if norm == "bmoalog":
        return bmoa_log_seminorm(field)
    return carleson_ratio(field)


def cmd_norm(args, cfg: RunConfig) -> int:
    grid = cfg.grid()
    f0 = _boundary(args, grid)
    report = _run_norm(f0, args.norm, cfg)
    out = Path(cfg.out) / f"norm_{args.norm}.json"
    write_json(out, {"norm": args.norm,
                     "input": args.function or str(args.input),
                     "report": report.to_dict()}, cfg)
    print(f"{args.norm}: {report.value:.12g} -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# factorize command
# ---------------------------------------------------------------------------

def cmd_factorize(args, cfg: RunConfig) -> int:
    grid, ladder = cfg.grid(), cfg.ladder()
    if args.field is not None:
        h_field = lib.named_field(args.field, grid, ladder)
        label = args.field
    else:
        f0 = _boundary(args, grid)
        h_field = holomorphic_extension(f0, ladder)
        label = args.function or str(args.input)
    res = factorize(h_field)
    out_dir = Path(cfg.out)
    save_function(res.f0, out_dir / "factor_f0.txt")
    save_function(res.g0, out_dir / "factor_g0.txt")
    save_function(res.b, out_dir / "factor_b.txt")
    payload = {
        "input": label,
        "residual": res.residual,
        "f_l1": res.f_l1,
        "g_norm": res.g_norm,
        "boundary_gap": res.boundary_gap,
        "boundary_flagged": res.boundary_flagged,
        "b_min": float(res.b.values.real.min()),
        "g0_abs_min": float(np.min(np.abs(res.g0.values))),
    }
    write_json(out_dir / "factorization.json", payload, cfg)
    print(f"factorize {label}: residual={res.residual:.3e} "
          f"f_l1={res.f_l1:.6g} g_norm={res.g_norm:.6g}")
    if res.residual > 1e-10:
        print("residual above 1e-10", file=sys.stderr)
        return EXIT_RESIDUAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _lemma31_symbols(grid: Grid1D, seed: int):
    rng = np.random.default_rng(seed)
    syms = [("sgn", lib.sign_step(grid)), ("logabs", lib.log_abs(grid))]
    for k in range(5):
        syms.append((f"mix{k}", lib.bmo_mixture(grid, rng)))
    return syms


def suite_lemma31(cfg: RunConfig):
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


def _h1_family(grid: Grid1D, ladder: HeightLadder):
    fam = [
        ("inv_sq", lib.field_inv_square(grid, ladder, 1.0)),
        ("inv_sq_wide", lib.field_inv_square(grid, ladder, 2.0, 2.0)),
        ("inv_sq_narrow", lib.field_inv_square(grid, ladder, 0.5)),
        ("cauchy_pair", lib.field_cauchy_pair(grid, ladder, 1.0, 2.0)),
        ("cauchy_pair_wide", lib.field_cauchy_pair(grid, ladder, 0.5, 3.0)),
    ]
    if ladder.levels[0] >= 0.5 * grid.dx:
        sg_bound = szego_project(lib.gaussian_deriv(grid, 0.0, 1.0))
        fam.append(("szego_gauss", poisson_extend(sg_bound, ladder)))
    return fam


def _bmoa_family(grid: Grid1D, ladder: HeightLadder):
    return [
        ("one", lib.field_constant(grid, ladder, 1.0)),
        ("exp_iz", lib.field_exp_osc(grid, ladder, 1.0)),
        ("exp_2iz", lib.field_exp_osc(grid, ladder, 2.0)),
        ("blaschke", lib.field_blaschke(grid, ladder)),
        ("exp_iz_slow", lib.field_exp_osc(grid, ladder, 0.5)),
    ]


def suite_prop31(cfg: RunConfig):
    """Product estimate: the log-Hardy norm of f*g is controlled by
    ||f||_{H1} times the augmented BMO norm of g's boundary data."""
    grid, ladder = cfg.grid(), cfg.ladder()
    ffam = _h1_family(grid, ladder)
    gfam = _bmoa_family(grid, ladder)
    rows = []
    fnorms = {n: hp_norm(f, 1.0).value for n, f in ffam}
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


def suite_thm21(cfg: RunConfig):
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
    if ladder.levels[0] >= 0.5 * grid.dx:
        sg = szego_project(lib.gaussian_deriv(grid, 0.0, 1.0))
        ext = poisson_extend(sg, ladder)
        cases.append(("cauchy_bump", product(lib.field_cauchy(grid, ladder, 1.0),
                                             ext)))
        cases.append(("szego_gauss", ext))
    return cases


def suite_thm11(cfg: RunConfig):
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


def suite_cr(cfg: RunConfig):
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


def suite_hankel(cfg: RunConfig):
    """Hankel form: exact antilinearity, the randomized forward sweep, the
    degenerate constant-symbol flag, and (reported, not asserted) monotone
    evidence that larger tent seminorms come with larger empirical norms."""
    grid = cfg.grid()
    b0 = lib.exp_osc(grid, 1.0)
    f0 = szego_project(lib.gaussian_deriv(grid))
    lhs1 = hankel_apply(b0, f0.with_values(1j * f0.values))
    rhs1 = hankel_apply(b0, f0)
    anti = float(np.max(np.abs(lhs1.values - (-1j) * rhs1.values)))
    scale = float(np.max(np.abs(rhs1.values)))
    anti_rel = anti / scale if scale else 0.0

    pairs = trial_pairs(grid, 50, cfg.seed)
    b_field = lib.field_exp_osc(grid, cfg.ladder(), 1.0) \
        if cfg.y_min >= 0.5 * grid.dx else None
    study = boundedness_study(b0, pairs, b_field)
    const_study = boundedness_study(lib.constant(grid, 1.0), pairs[:3])

    # amplitude ladder: the tent seminorm scales quadratically, so the
    # family has strictly increasing seminorms
    sem_ladder = symbol_ladder(grid)
    family = []
    for amp, freq in ((0.5, 2.0), (1.0, 1.0), (2.0, 0.5)):
        base = lib.exp_osc(grid, freq)
        sym = SampledFunction(grid, amp * base.values, base.decay,
                              bounded=True)
        base_field = lib.field_exp_osc(grid, sem_ladder, freq)
        sym_field = HalfPlaneField(grid, sem_ladder, amp * base_field.values,
                                   base_field.decay)
        s = boundedness_study(sym, pairs[:10], sym_field)
        family.append({"amplitude": amp, "freq": freq,
                       "seminorm": s["seminorm"], "max_form": s["max_form"]})
    family.sort(key=lambda r: r["seminorm"])
    monotone_ok = all(2.0 * family[k + 1]["max_form"] >= family[k]["max_form"]
                      for k in range(len(family) - 1))

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
               "symbol_family": family, "monotone_evidence": monotone_ok,
               "pass": bool(ok)}
    return rows, summary


SUITES = {"lemma31": suite_lemma31, "prop31": suite_prop31,
          "thm21": suite_thm21, "thm11": suite_thm11, "cr": suite_cr,
          "hankel": suite_hankel}


def cmd_verify(args, cfg: RunConfig) -> int:
    rows, summary = SUITES[args.suite](cfg)
    out_dir = Path(cfg.out)
    write_csv(out_dir / f"verify_{args.suite}.csv", rows)
    write_json(out_dir / f"verify_{args.suite}.json",
               {"suite": args.suite, **summary}, cfg)
    status = "pass" if summary["pass"] else "FAIL"
    print(f"verify {args.suite}: {status} "
          f"(max_ratio={summary.get('max_ratio')})")
    return EXIT_OK if summary["pass"] else EXIT_FAIL


def cmd_hankel(args, cfg: RunConfig) -> int:
    grid = cfg.grid()
    b0 = _boundary(args, grid)
    _check_symbol(b0)  # before the pairs are drawn
    study = boundedness_study(b0, trial_pairs(grid, args.trials, cfg.seed))
    payload = {
        "symbol_id": args.function or str(args.input),
        "seminorm": study["seminorm"],
        "max_form": study["max_form"],
        "ratio": study["max_ratio"],
        "trials": args.trials,
        "seed": cfg.seed,
        "degenerate": study["degenerate"],
        "rows": study["rows"],
    }
    write_json(Path(cfg.out) / "hankel_study.json", payload, cfg)
    print(f"hankel study: seminorm={study['seminorm']:.6g} "
          f"max_form={study['max_form']:.6g} degenerate={study['degenerate']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardylog",
        description="Half-plane Hardy space toolkit: norms, factorization, "
                    "inequality sweeps, Hankel studies.")
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--grid-L", dest="grid_l", type=float)
    ap.add_argument("--grid-n", dest="grid_n", type=int)
    ap.add_argument("--y-min", dest="y_min", type=float)
    ap.add_argument("--y-max", dest="y_max", type=float)
    ap.add_argument("--levels", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", type=str)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="compute one norm of a boundary function")
    p.add_argument("--input", help="columnar function file")
    p.add_argument("--function", help="named closed-form input")
    p.add_argument("--norm", required=True, choices=NORMS)
    p.set_defaults(run=cmd_norm)

    p = sub.add_parser("factorize", help="multiplicative splitting h = f*g")
    p.add_argument("--input")
    p.add_argument("--function")
    p.add_argument("--field", help="named closed-form field")
    p.set_defaults(run=cmd_factorize)

    p = sub.add_parser("verify", help="run a named inequality sweep")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("hankel", help="randomized symbol boundedness study")
    p.add_argument("--input")
    p.add_argument("--function")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(run=cmd_hankel)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
        cfg = load_config(args.config, dict(os.environ), overrides)
        cfg.validate()
    except (PreconditionError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    needs_input = args.command in ("norm", "hankel") or (
        args.command == "factorize" and getattr(args, "field", None) is None)
    if needs_input:
        given = [x for x in (getattr(args, "input", None),
                             getattr(args, "function", None)) if x]
        if len(given) != 1:
            print("exactly one of --input/--function (or --field) required",
                  file=sys.stderr)
            return EXIT_PARSE
        if args.function is not None and args.function not in lib.FUNCTIONS:
            print(f"unknown function {args.function!r}", file=sys.stderr)
            return EXIT_PARSE
    if args.command == "factorize" and getattr(args, "field", None) is not None \
            and args.field not in lib.FIELDS:
        print(f"unknown field {args.field!r}", file=sys.stderr)
        return EXIT_PARSE

    if getattr(args, "input", None) is not None:
        try:
            args.f0 = load_function(args.input)
        except (PreconditionError, OSError) as exc:
            print(f"input parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE

    try:
        return args.run(args, cfg)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
