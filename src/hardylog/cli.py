"""Batch driver: norms, factorizations, inequality sweeps, Hankel studies.
The sweeps themselves live in ``hardylog.suites``.

Reports are JSON/CSV only, written atomically (temp file + rename), carry
the config hash and toolkit version, and are byte-identical across runs
with the same config and seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, library as lib
from .factor import factorize
from .grid import (Grid1D, HeightLadder, PreconditionError, _atomic_write,
                   integrate, load_function, make_grid, make_ladder,
                   save_function)
from .hankel import _check_symbol, boundedness_study, trial_pairs
from .spaces import (NormReport, bmo_norm, bmo_plus_norm, bmoa_log_seminorm,
                     carleson_ratio, hlog_norm, hp_norm, luxemburg_norm)
from .suites import SUITES
from .transforms import holomorphic_extension

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESIDUAL = 4

# boundary norms take the samples, field norms the holomorphic extension
BOUNDARY_NORMS = {"l1": lambda f0: NormReport(float(integrate(f0.abs()))),
                  "llog": luxemburg_norm,
                  "bmo": bmo_norm, "bmoplus": bmo_plus_norm}
FIELD_NORMS = {"h1": hp_norm, "hlog": hlog_norm,
               "bmoalog": bmoa_log_seminorm, "carleson": carleson_ratio}


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
        if self.seed < 0:  # numpy's generators take no negative seed
            raise PreconditionError(
                f"seed must be non-negative, got {self.seed}")
        # the grid and ladder constructors own their rules
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

def write_json(path: Path, payload: dict, cfg: RunConfig) -> None:
    payload = dict(payload)
    payload["config_hash"] = cfg.digest()
    payload["version"] = __version__
    # numpy scalars are the only values json cannot encode itself
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2,
                                   default=lambda o: o.item()) + "\n")


def write_csv(path: Path, rows: list[tuple]) -> None:
    lines = ["case,lhs,rhs,ratio"]
    for case, lhs, rhs, ratio in rows:
        lines.append(f"{case},{lhs:.12g},{rhs:.12g},{ratio:.12g}")
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# norm and factorize commands
# ---------------------------------------------------------------------------

def cmd_norm(args, cfg: RunConfig) -> int:
    if args.norm in BOUNDARY_NORMS:
        report = BOUNDARY_NORMS[args.norm](args.f0)
    else:
        field = holomorphic_extension(args.f0, cfg.ladder())
        report = FIELD_NORMS[args.norm](field)
    out = Path(cfg.out) / f"norm_{args.norm}.json"
    write_json(out, {"norm": args.norm, "input": args.label,
                     "report": report.to_dict()}, cfg)
    print(f"{args.norm}: {report.value:.12g} -> {out}")
    return EXIT_OK


def cmd_factorize(args, cfg: RunConfig) -> int:
    if args.field is not None:
        h_field = lib.FIELDS[args.field](cfg.grid(), cfg.ladder())
        label = args.field
    else:
        h_field = holomorphic_extension(args.f0, cfg.ladder())
        label = args.label
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
# verify and hankel commands
# ---------------------------------------------------------------------------

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
    _check_symbol(args.f0)  # before the pairs are drawn, on the symbol's grid
    pairs = trial_pairs(args.f0.grid, args.trials, cfg.seed)
    study = boundedness_study(args.f0, pairs)
    payload = {
        "symbol_id": args.label,
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

@functools.cache     # built once per process; parsing never mutates it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardylog",
        description="Half-plane Hardy space toolkit: norms, factorization, "
                    "inequality sweeps, Hankel studies.")
    ap.add_argument("--config", help="flat key=value config file")
    for f in fields(RunConfig):  # --grid-L keeps its capital L
        flag = "--" + f.name.replace("_", "-")
        ap.add_argument("--grid-L" if f.name == "grid_l" else flag,
                        dest=f.name, type=type(f.default))
    sub = ap.add_subparsers(dest="command", required=True)

    def source(p):  # exactly one input per command
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", help="columnar function file")
        group.add_argument("--function", choices=lib.FUNCTIONS,
                           help="named closed-form input")
        return group

    p = sub.add_parser("norm", help="compute one norm of a boundary function")
    source(p)
    p.add_argument("--norm", required=True,
                   choices=[*BOUNDARY_NORMS, *FIELD_NORMS])
    p.set_defaults(run=cmd_norm)

    p = sub.add_parser("factorize", help="multiplicative splitting h = f*g")
    source(p).add_argument("--field", choices=lib.FIELDS,
                           help="named closed-form field")
    p.set_defaults(run=cmd_factorize)

    p = sub.add_parser("verify", help="run a named inequality sweep")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("hankel", help="randomized symbol boundedness study")
    source(p)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(run=cmd_hankel)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its usage (2) or help (0)
        return exc.code
    try:
        overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
        cfg = load_config(args.config, dict(os.environ), overrides)
        cfg.validate()
    # numpy refuses an array size it cannot index with ValueError
    except (PreconditionError, OSError, ValueError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if getattr(args, "input", None) is not None:
        try:
            args.f0 = load_function(args.input)
        except (PreconditionError, OSError) as exc:
            print(f"input parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        args.label = str(args.input)

    try:
        if getattr(args, "function", None) is not None:
            args.f0 = lib.named_function(args.function, cfg.grid())
            args.label = args.function
        return args.run(args, cfg)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:      # the reports could not be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
