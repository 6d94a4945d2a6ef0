"""The four benchmark workloads: set-up, one pass, and the correctness gate.

Every workload uses the half-width L=64 and a 48-level ladder.  The three
suite workloads hold the problem size at n=1024; ``scaling`` varies it.  All
inputs come from the benchmark seed: suite seeds and input parameters are
drawn from a generator seeded with it.  A pass writes its reports under
``out`` and its input files under ``inputs``, which is the same path for
every pass, because reports name their input file and must stay
byte-identical.

The gate compares against the independent references in ``hardylog.oracles``
and against closed forms.  Each tolerance below names its reason; most are
the tolerances the repository's own tests state for the same comparison.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

from hardylog import cli, library as lib
from hardylog.factor import coifman_rochberg_symbol, factorize
from hardylog.grid import (HeightLadder, SampledFunction, load_function,
                           make_grid, make_ladder, power_decay, save_function)
from hardylog.maximal import nontangential_max
from hardylog.spaces import (bmo_norm, carleson_ratio, hlog_norm,
                             luxemburg_norm)
from hardylog.transforms import (hilbert_transform, poisson_extend,
                                 poisson_slice, szego_project)

L = 64.0
N = 1024
LEVELS = 48
SCALING_SIZES = (1024, 2048, 4096)
# small sizes are repeated within a pass so each per-size time is a median
SCALING_REPEATS = {1024: 3, 2048: 1, 4096: 1}
# one ladder for every size, resolvable by the FFT path at the coarsest grid
SCALING_LADDER = (1.0 / 16.0, 1e3)
HARMONIC_Y_MIN = 0.1          # >= dx/2 at n=1024, so every norm applies
HARMONIC_INPUTS = 8
HARMONIC_NORMS = ("llog", "h1", "hlog", "carleson", "bmoalog")
SCALING_OPS = ("hilbert_transform", "poisson_fft", "poisson_direct",
               "bmo_real", "bmo_complex", "luxemburg_norm", "hlog_norm",
               "tent", "nontangential_max", "factorize")

# Tolerances (each check reports its worst error against these).
TOL_CONST = 1e-12       # direct path is exact on constants (mass-normalised
                        # taps); tests/test_transforms.py uses 1e-12
TOL_SGN = 1e-4          # far-field part, tests/test_transforms.py
                        # test_direct_path_closed_forms
SGN_JUMP = 3.0 * math.sqrt(3.0) / (8.0 * math.pi)  # max|d/dx P_y| * y^2: a
                        # sampled unit jump errs by at most this * (dx/y)^2
TOL_EXP = 5e-4          # tests/test_transforms.py test_cos_damping
KNOWN_EXP_SLOPE = 6.4e-4    # known defect, ROADMAP open item 2: the direct
                        # path's tail quadrature aliases oscillating
                        # continuations, so P_y*e^{iax} errs by about
                        # 3.2e-4*y (3e-4 at y=1, 9.5e-3 at y=30, 0.14 at
                        # y=1000).  An error over its tolerance but within
                        # twice that line is KNOWN; beyond it, FAIL
TOL_FFT_CLOSED = 1e-4   # relative to max|f0|; tests/test_transforms.py
                        # checks P_2 * p1 = p3 on the FFT path to 1e-4
TOL_POISSON_ORACLE = 1e-6   # acceptance criterion 01
TOL_HILBERT = 1e-4      # relative L2; acceptance criterion 01 on unit-width
RIG_DX = 1.0 / 32.0     # bumps at this spacing.  The pv_sum residue is
                        # O((dx/width)^3), so the oracle is used on bumps of
                        # width dx/RIG_DX, where that criterion applies
TOL_LUXEMBURG = 1e-5    # acceptance criterion 03, relative
BMO_FAMILY_GAP = 0.10   # the swept family reaches 90% of the exhaustive
                        # sup, tests/test_spaces.py
TOL_RESIDUAL = 1e-10    # the factorize command's own exit-4 threshold
ORACLE_HEIGHTS = (0.5, 2.0)     # acceptance criterion 01
BRUTE_N = 1024


PASS, KNOWN, FAIL = "PASS", "KNOWN", "FAIL"


class Checks:
    """Named results, each PASS, KNOWN or FAIL.  KNOWN is a miss within the
    documented envelope of an open defect: it counts in ``fail_ratio`` but
    does not make the run incorrect.  An exception inside a check is FAIL."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok, detail: str = "") -> None:
        status = ok if isinstance(ok, str) else (PASS if ok else FAIL)
        self.results.append((name, status, detail))

    def run(self, name: str, fn, *args) -> None:
        try:
            ok, detail = fn(*args)
        except Exception as exc:          # a raised exception is a failure
            ok, detail = FAIL, f"raised {exc!r}"
        self.add(name, ok, detail)

    def count(self, *statuses) -> int:
        return sum(1 for _, status, _ in self.results if status in statuses)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cfg_args(n, y_min, seed, out) -> list:
    return ["--grid-L", repr(L), "--grid-n", str(n), "--y-min", repr(y_min),
            "--levels", str(LEVELS), "--seed", str(seed), "--out", str(out)]


def _draw_seed(rng) -> int:
    return int(rng.integers(1, 2**31 - 1))


# ---------------------------------------------------------------------------
# shared gate checks
# ---------------------------------------------------------------------------

def _report(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _suite_passes(out: Path, suite: str):
    rep = _report(out, f"verify_{suite}.json")
    return rep["pass"] is True, f"max_ratio={rep.get('max_ratio')}"


def _extend(f0, heights):
    """Slices of f0 at the given heights, one ladder call when possible."""
    heights = sorted(heights)
    if len(heights) >= 8 and heights[-1] >= 1.0:
        return poisson_extend(f0, HeightLadder(tuple(heights))).values
    return np.stack([poisson_slice(f0, y).values for y in heights])


def _worst(errs, tols, heights, known=None):
    """PASS if every error is within its tolerance; KNOWN if the misses all
    lie within the ``known`` envelope of a documented defect; else FAIL."""
    ratios = np.asarray(errs) / np.asarray(tols)
    k = int(np.argmax(ratios))
    bad = int(np.sum(ratios > 1.0))
    detail = (f"worst err={errs[k]:.2e} tol={tols[k]:.2e} at "
              f"y={heights[k]:.4g}; {bad}/{len(heights)} heights over")
    if bad == 0:
        return PASS, detail
    if known is not None and np.all(np.asarray(errs) <= np.asarray(known)):
        return KNOWN, detail + " (within the known-defect envelope)"
    return FAIL, detail


def _resolved(grid, heights):
    # the grid cannot resolve a kernel narrower than half a cell; the FFT
    # path refuses such heights for the same reason
    return sorted(y for y in set(heights) if y >= 0.5 * grid.dx)


def direct_closed_forms(checks: Checks, grid, heights, tag: str) -> None:
    """The direct (log_growth) Poisson path against exact extensions on the
    central half-window: P_y*sgn = (2/pi)arctan(x/y), P_y*e^{iax} =
    e^{-ay}e^{iax}, and P_y*1 = 1 on the whole window."""
    x, dx = grid.nodes, grid.dx
    central = np.abs(x) <= grid.L / 2
    ys = _resolved(grid, heights)

    def sgn():
        vals = _extend(lib.sign_step(grid), ys)
        errs = [float(np.max(np.abs(v - (2 / np.pi) * np.arctan(x / y))[central]))
                for v, y in zip(vals, ys)]
        tols = [SGN_JUMP * (dx / y) ** 2 + TOL_SGN for y in ys]
        return _worst(errs, tols, ys)

    def exp():
        a = lib.harmonic_freq(grid, 1.0)
        vals = _extend(lib.exp_osc(grid, 1.0), ys)
        errs = [float(np.max(np.abs(v - np.exp(-a * y + 1j * a * x))[central]))
                for v, y in zip(vals, ys)]
        # trapezoid sums of a kernel with poles at distance y from the real
        # axis alias by about exp(-2 pi y/dx)
        tols = [math.exp(-2 * math.pi * y / dx) + TOL_EXP for y in ys]
        known = [t + KNOWN_EXP_SLOPE * y for t, y in zip(tols, ys)]
        return _worst(errs, tols, ys, known)

    def const():
        vals = _extend(lib.constant(grid, 1.0), ys)
        errs = [float(np.max(np.abs(v - 1.0))) for v in vals]
        return _worst(errs, [TOL_CONST] * len(ys), ys)

    checks.run(f"direct.sgn[{tag}]", sgn)
    checks.run(f"direct.exp_iax[{tag}]", exp)
    checks.run(f"direct.const[{tag}]", const)


def fft_closed_form(checks: Checks, grid, ladder, shift: float, tag: str):
    """field_inv_square against the FFT-path extension of its boundary
    function 1/(x + i*shift)^2."""
    def run():
        def fn(u):
            return 1.0 / (np.asarray(u, dtype=np.float64) + 1j * shift) ** 2
        f0 = SampledFunction(grid, fn(grid.nodes), power_decay(2.0),
                             continuation=fn)
        ext = poisson_extend(f0, ladder)
        ref = lib.field_inv_square(grid, ladder, shift)
        err = float(np.max(np.abs(ext.values - ref.values)))
        tol = TOL_FFT_CLOSED * float(np.max(np.abs(f0.values)))
        return err <= tol, f"err={err:.2e} tol={tol:.2e}"
    checks.run(f"fft.inv_sq[{tag}]", run)


def hilbert_closed_form(checks: Checks, grid, center: float, width: float,
                        odd: bool, tag: str):
    """hilbert_transform of the Gaussian bump e^{-t^2}, or with odd=True of
    t e^{-t^2}, t = (x - center)/width, against the Dawson closed forms
    H[e^{-t^2}] = (2/sqrt(pi)) D(t) and H[t e^{-t^2}] = -(1 - 2t D(t))/sqrt(pi)
    on every node."""
    from scipy.special import dawsn

    def run():
        t = (grid.nodes - center) / width
        if odd:
            f0 = lib.gaussian_deriv(grid, center, width)
            ref = -(1.0 - 2.0 * t * dawsn(t)) / math.sqrt(math.pi)
        else:
            f0 = lib.gaussian(grid, center, width)
            ref = (2.0 / math.sqrt(math.pi)) * dawsn(t)
        fast = hilbert_transform(f0).values
        err = float(np.linalg.norm(fast - ref) / np.linalg.norm(ref))
        return err <= TOL_HILBERT, f"relL2={err:.2e} tol={TOL_HILBERT:.0e}"
    checks.run(f"closed.hilbert[{tag}]", run)


def hilbert_oracle(checks: Checks, grid, center: float, tag: str):
    """hilbert_transform against the principal-value sum on a Gaussian bump
    of width dx/RIG_DX, the dx/width ratio of acceptance criterion 01."""
    from hardylog.oracles import pv_sum

    def run():
        f0 = lib.gaussian(grid, center, grid.dx / RIG_DX)
        idx = np.arange(0, grid.n, max(1, grid.n // 64))
        fast = hilbert_transform(f0).values[idx]
        ref = pv_sum(f0, idx)
        err = float(np.linalg.norm(fast - ref) / np.linalg.norm(ref))
        return err <= TOL_HILBERT, f"relL2={err:.2e} tol={TOL_HILBERT:.0e}"
    checks.run(f"oracle.hilbert[{tag}]", run)


def poisson_oracle(checks: Checks, f0, tag: str):
    from hardylog.oracles import poisson_sum

    def run():
        idx = np.arange(0, f0.grid.n, max(1, f0.grid.n // 128))
        scale = float(np.max(np.abs(f0.values)))
        err = max(float(np.max(np.abs(poisson_slice(f0, y).values[idx] -
                                      poisson_sum(f0, y, idx)))) / scale
                  for y in ORACLE_HEIGHTS)
        return err <= TOL_POISSON_ORACLE, f"maxabs={err:.2e}"
    checks.run(f"oracle.poisson_fft[{tag}]", run)


def bmo_oracle(checks: Checks, f0, tag: str):
    from hardylog.oracles import bmo_bruteforce

    def run():
        fast = bmo_norm(f0).value
        brute = bmo_bruteforce(f0)
        ok = fast <= brute + 1e-12 and brute - fast <= BMO_FAMILY_GAP * brute
        return ok, f"swept={fast:.6g} exhaustive={brute:.6g}"
    checks.run(f"oracle.bmo[{tag}]", run)


def luxemburg_oracle(checks: Checks, f0, tag: str):
    from hardylog.oracles import luxemburg_scan

    def run():
        fast = luxemburg_norm(f0).value
        scan = luxemburg_scan(f0)
        err = abs(fast - scan) / scan
        return err <= TOL_LUXEMBURG, f"rel={err:.2e}"
    checks.run(f"oracle.luxemburg[{tag}]", run)


# ---------------------------------------------------------------------------
# hankel: the Hankel suite (direct path on many inputs, real-data BMO)
# ---------------------------------------------------------------------------

def setup_hankel(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"seed": _draw_seed(rng), "mix_seed": _draw_seed(rng),
            "center": float(rng.uniform(-L / 4, L / 4)),
            "width": float(rng.uniform(0.5, 4.0)), "grid": make_grid(L, N)}


def pass_hankel(st: dict, out: Path, inputs: Path):
    args = _cfg_args(N, 1e-3, st["seed"], out)
    return [_quiet_main(args + ["verify", "--suite", "hankel"])], {}


def gate_hankel(st: dict, ref: Path, inputs: Path, checks: Checks) -> None:
    grid = st["grid"]
    checks.run("suite.hankel", _suite_passes, ref, "hankel")
    # heights the suite sends through the direct path: the trial g fields
    # (bounded mixtures with an oscillating term) on the pair ladder, and on
    # the symbol ladder the e^{iax} symbol (y_min is below dx/2, so the suite
    # passes no closed-form field for it) and the constant symbol
    pair = make_ladder(0.5 * grid.dx, 1.5, 8).levels
    sem = make_ladder(0.5 * grid.dx, 2.0 * grid.L, 32).levels
    direct_closed_forms(checks, grid, pair, "pair_ladder")
    direct_closed_forms(checks, grid, sem, "symbol_ladder")
    mix = lib.bmo_mixture(make_grid(L, BRUTE_N),
                          np.random.default_rng(st["mix_seed"]))
    bmo_oracle(checks, mix, "bmo_mixture")
    # the suite's trial f inputs are projected odd Gaussian bumps
    f0 = szego_project(lib.gaussian_deriv(grid, st["center"], st["width"]))
    poisson_oracle(checks, f0, "trial_f")


# ---------------------------------------------------------------------------
# symbols: lemma 3.1, Coifman-Rochberg symbols, factorization
# ---------------------------------------------------------------------------

def setup_symbols(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"seed": _draw_seed(rng), "center": float(rng.uniform(-L / 4, L / 4)),
            "grid": make_grid(L, N), "ladder": make_ladder(1e-3, 1e3, LEVELS)}


def pass_symbols(st: dict, out: Path, inputs: Path):
    args = _cfg_args(N, 1e-3, st["seed"], out)
    rcs = [_quiet_main(args + ["verify", "--suite", s])
           for s in ("lemma31", "cr", "thm11")]
    rcs.append(_quiet_main(args + ["factorize", "--field", "inv_sq"]))
    return rcs, {}


def gate_symbols(st: dict, ref: Path, inputs: Path, checks: Checks) -> None:
    grid = st["grid"]
    for suite in ("lemma31", "cr", "thm11"):
        checks.run(f"suite.{suite}", _suite_passes, ref, suite)

    def residual():
        r = _report(ref, "factorization.json")["residual"]
        return r <= TOL_RESIDUAL, f"residual={r:.2e}"
    checks.run("factorize.residual", residual)
    # lemma31 extends its symbols to these heights; factorize extends g over
    # the whole ladder
    direct_closed_forms(checks, grid, (1.0, 10.0, 100.0, 1000.0), "lemma31")
    direct_closed_forms(checks, grid, st["ladder"].levels, "ladder")
    hilbert_closed_form(checks, grid, st["center"], 1.0, False, "gaussian")
    hilbert_oracle(checks, grid, st["center"], "gaussian")
    bmo_oracle(checks, coifman_rochberg_symbol(
        lib.gaussian(make_grid(L, BRUTE_N), st["center"], 1.0)), "cr_symbol")


# ---------------------------------------------------------------------------
# harmonic: decaying data only (FFT path, Luxemburg gauges, complex BMO)
# ---------------------------------------------------------------------------

def setup_harmonic(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    params = [(float(rng.uniform(-L / 4, L / 4)), float(rng.uniform(0.5, 4.0)))
              for _ in range(HARMONIC_INPUTS)]
    return {"seed": _draw_seed(rng), "params": params,
            "shift": float(rng.uniform(0.5, 2.0)), "grid": make_grid(L, N),
            "ladder": make_ladder(HARMONIC_Y_MIN, 1e3, LEVELS)}


def _harmonic_inputs(st: dict) -> list:
    return [lib.gaussian_deriv(st["grid"], c, w) for c, w in st["params"]]


def pass_harmonic(st: dict, out: Path, inputs: Path):
    args = _cfg_args(N, HARMONIC_Y_MIN, st["seed"], out)
    rcs = [_quiet_main(args + ["verify", "--suite", s])
           for s in ("prop31", "thm21")]
    inputs.mkdir(parents=True, exist_ok=True)
    for k, f0 in enumerate(_harmonic_inputs(st)):
        path = inputs / f"input{k}.txt"
        save_function(f0, path)
        sub = _cfg_args(N, HARMONIC_Y_MIN, st["seed"], out / f"input{k}")
        for norm in HARMONIC_NORMS:
            rcs.append(_quiet_main(sub + ["norm", "--input", str(path),
                                          "--norm", norm]))
    return rcs, {}


def gate_harmonic(st: dict, ref: Path, inputs: Path, checks: Checks) -> None:
    grid = st["grid"]
    for suite in ("prop31", "thm21"):
        checks.run(f"suite.{suite}", _suite_passes, ref, suite)
    bumps = _harmonic_inputs(st)

    def round_trip():
        same = all(np.array_equal(load_function(inputs / f"input{k}.txt").values,
                                  f0.values) for k, f0 in enumerate(bumps))
        return same, "saved inputs reload bit for bit"
    checks.run("grid.round_trip", round_trip)
    for k, f0 in enumerate(bumps):
        luxemburg_oracle(checks, f0, f"input{k}")
    for k, (c, w) in enumerate(st["params"]):
        hilbert_closed_form(checks, grid, c, w, True, f"input{k}")
    hilbert_oracle(checks, grid, st["params"][0][0], "input0")
    poisson_oracle(checks, szego_project(bumps[0]), "input0")
    c, w = st["params"][0]
    bmo_oracle(checks, szego_project(lib.gaussian_deriv(
        make_grid(L, BRUTE_N), c, w)), "projected_input0")
    fft_closed_form(checks, grid, st["ladder"], st["shift"], "ladder")


# ---------------------------------------------------------------------------
# scaling: every operator once per grid size
# ---------------------------------------------------------------------------

def setup_scaling(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    ladder = make_ladder(*SCALING_LADDER, LEVELS)
    sizes = {}
    for n in SCALING_SIZES:
        sizes[n] = {"grid": make_grid(L, n),
                    "center": float(rng.uniform(-L / 4, L / 4)),
                    "width": float(rng.uniform(0.5, 4.0)),
                    "shift": float(rng.uniform(0.5, 2.0)),
                    "mix_seed": _draw_seed(rng)}
    return {"seed": _draw_seed(rng), "ladder": ladder, "sizes": sizes}


def _sweep(st: dict, n: int, out: Path, inputs: Path, parts: dict) -> int:
    """Every operator once at size n, then a save -> norm --input round trip.
    Keeps the factorization residual and the gauge value for the gate."""
    p, ladder = st["sizes"][n], st["ladder"]
    grid = p["grid"]
    f = lib.gaussian_deriv(grid, p["center"], p["width"])
    mix = lib.bmo_mixture(grid, np.random.default_rng(p["mix_seed"]))
    proj = szego_project(f)
    h_field = lib.field_inv_square(grid, ladder, p["shift"])
    results = {}

    def timed(op, fn, *args):
        t = _clock()
        results[op] = fn(*args)
        parts.setdefault(f"{op}.n{n}", []).append(_clock() - t)

    timed("hilbert_transform", hilbert_transform, f)
    timed("poisson_fft", poisson_extend, proj, ladder)
    timed("poisson_direct", poisson_extend, mix, ladder)
    timed("bmo_real", bmo_norm, mix)
    timed("bmo_complex", bmo_norm, proj)
    timed("luxemburg_norm", luxemburg_norm, f)
    field = results["poisson_fft"]
    timed("hlog_norm", hlog_norm, field)
    timed("tent", carleson_ratio, field)
    timed("nontangential_max", nontangential_max, field)
    timed("factorize", factorize, h_field)
    path = inputs / f"f{n}.txt"
    save_function(f, path)
    rc = _quiet_main(_cfg_args(n, SCALING_LADDER[0], st["seed"], out / f"n{n}")
                     + ["norm", "--input", str(path), "--norm", "llog"])
    st.setdefault("last", {})[n] = {
        "residual": results["factorize"].residual,
        "llog": results["luxemburg_norm"].value}
    return rc


def pass_scaling(st: dict, out: Path, inputs: Path):
    rcs, parts = [], {}
    inputs.mkdir(parents=True, exist_ok=True)
    for n in SCALING_SIZES:
        for _ in range(SCALING_REPEATS[n]):
            t = _clock()
            rcs.append(_sweep(st, n, out, inputs, parts))
            parts.setdefault(f"n{n}", []).append(_clock() - t)
    return rcs, parts


def gate_scaling(st: dict, ref: Path, inputs: Path, checks: Checks) -> None:
    ladder = st["ladder"]
    for n in SCALING_SIZES:
        p = st["sizes"][n]
        grid = p["grid"]
        f = lib.gaussian_deriv(grid, p["center"], p["width"])
        last = st["last"][n]
        checks.add(f"factorize.residual[n{n}]",
                   last["residual"] <= TOL_RESIDUAL,
                   f"residual={last['residual']:.2e}")

        def round_trip(n=n, last=last):
            got = _report(ref / f"n{n}", "norm_llog.json")["report"]["value"]
            return got == last["llog"], f"file={got!r} direct={last['llog']!r}"
        checks.run(f"grid.round_trip[n{n}]", round_trip)
        direct_closed_forms(checks, grid, ladder.levels, f"n{n}")
        fft_closed_form(checks, grid, ladder, p["shift"], f"n{n}")
        hilbert_closed_form(checks, grid, p["center"], 1.0, False, f"n{n}")
        hilbert_oracle(checks, grid, p["center"], f"n{n}")
        poisson_oracle(checks, szego_project(f), f"n{n}")
    p = st["sizes"][BRUTE_N]
    f = lib.gaussian_deriv(p["grid"], p["center"], p["width"])
    luxemburg_oracle(checks, f, f"n{BRUTE_N}")
    mix = lib.bmo_mixture(p["grid"], np.random.default_rng(p["mix_seed"]))
    bmo_oracle(checks, mix, f"real.n{BRUTE_N}")
    bmo_oracle(checks, szego_project(f), f"complex.n{BRUTE_N}")


WORKLOADS = {
    "hankel": (setup_hankel, pass_hankel, gate_hankel),
    "symbols": (setup_symbols, pass_symbols, gate_symbols),
    "harmonic": (setup_harmonic, pass_harmonic, gate_harmonic),
    "scaling": (setup_scaling, pass_scaling, gate_scaling),
}
