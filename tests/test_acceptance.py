"""Acceptance suite: every criterion at the default rig (L=64, n=4096,
ladder 1e-3..1e3 with 48 levels), one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines for passing tests too.
"""

import numpy as np
import pytest
from scipy.special import wofz

from conftest import max_abs, rel_l2
from hardylog import library as lib
from hardylog.cli import RunConfig, main
from hardylog.suites import (suite_cr, suite_hankel, suite_lemma31,
                             suite_prop31, suite_thm11, suite_thm21)
from hardylog.grid import SampledFunction, power_decay
from hardylog.oracles import luxemburg_scan, poisson_sum, pv_sum
from hardylog.spaces import (THETA, THETA0, luxemburg_norm, weight_eval,
                             weight_integral)
from hardylog.transforms import hilbert_transform, poisson_slice

RIG = RunConfig()


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name} {detail}".rstrip())


@pytest.fixture(scope="module")
def rig_cfg(tmp_path_factory):
    cfg = RunConfig()
    cfg.out = str(tmp_path_factory.mktemp("acceptance"))
    return cfg


def _criterion_set(grid):
    return [("p1", lib.poisson_bump(grid)),
            ("gaussian", lib.gaussian(grid)),
            ("wcos", lib.windowed_cos(grid))]


def test_c01_operator_oracle_equivalence(rig_grid):
    worst_h, worst_p = 0.0, 0.0
    idx_h = np.arange(0, rig_grid.n, 16)
    idx_p = np.arange(0, rig_grid.n, 8)
    for name, f0 in _criterion_set(rig_grid):
        fast = hilbert_transform(f0).values[idx_h]
        orc = pv_sum(f0, idx_h)
        worst_h = max(worst_h, rel_l2(fast, orc))
        scale = max_abs(f0.values)
        for y in (0.5, 2.0):
            slice_fast = poisson_slice(f0, y).values[idx_p]
            slice_orc = poisson_sum(f0, y, idx_p)
            worst_p = max(worst_p, max_abs(slice_fast, slice_orc) / scale)
    ok = worst_h <= 1e-4 and worst_p <= 1e-6
    _line(1, "operator oracle equivalence", ok,
          f"hilbert_relL2={worst_h:.2e} poisson_maxabs={worst_p:.2e}")
    assert worst_h <= 1e-4
    assert worst_p <= 1e-6


def test_c02_poisson_semigroup(rig_grid):
    x = rig_grid.nodes

    def continuation_for(name, y):
        if name == "p1":
            return lambda u: (1.0 + y) / (np.pi * (u * u + (1.0 + y) ** 2))
        if name == "gaussian":
            return lambda u: np.real(wofz(u + 1j * y))
        return lambda u: np.real((u + 1j * y) * wofz(u + 1j * y))

    cases = [("p1", lib.poisson_bump(rig_grid)),
             ("gaussian", lib.gaussian(rig_grid)),
             ("gbump_odd", lib.gaussian_deriv(rig_grid))]
    worst = 0.0
    for name, f0 in cases:
        scale = max_abs(f0.values)
        for y1, y2 in ((0.5, 0.5), (1.0, 2.0), (3.0, 7.0)):
            stage1 = poisson_slice(f0, y2)
            mid = SampledFunction(rig_grid, stage1.values, power_decay(2.0),
                                  continuation=continuation_for(name, y2))
            composed = poisson_slice(mid, y1)
            direct = poisson_slice(f0, y1 + y2)
            worst = max(worst, max_abs(composed.values, direct.values) / scale)
    ok = worst <= 1e-6
    _line(2, "poisson semigroup", ok, f"maxabs={worst:.2e}")
    assert worst <= 1e-6


def test_c03_luxemburg_gauge(rig_grid):
    rng = np.random.default_rng(2024)
    worst_int, worst_scan = 0.0, 0.0
    for _ in range(20):
        parts = [(rng.uniform(0.2, 5.0), rng.uniform(-8, 8),
                  rng.uniform(0.5, 3.0)) for _ in range(rng.integers(1, 4))]

        def f(u, parts=parts):
            u = np.asarray(u, dtype=np.float64)
            return sum(a * np.exp(-((u - c) / w) ** 2) for a, c, w in parts)
        f0 = SampledFunction(rig_grid, f(rig_grid.nodes), lib.RAPID,
                             continuation=f)
        rep = luxemburg_norm(f0)
        integral = weight_integral(rig_grid, np.abs(f0.values), f0.decay,
                                   THETA, rep.value)
        worst_int = max(worst_int, abs(integral - 1.0))
        scan = luxemburg_scan(f0)
        worst_scan = max(worst_scan, abs(rep.value - scan) / scan)
    chi = lib.indicator(rig_grid, -0.5, 0.5)
    chi_err = abs(luxemburg_norm(chi).value - 1.0)
    ok = worst_int <= 1e-6 and chi_err <= 1e-6 and worst_scan <= 1e-5
    _line(3, "luxemburg gauge", ok,
          f"integral_dev={worst_int:.2e} chi_dev={chi_err:.2e} "
          f"scan_dev={worst_scan:.2e}")
    assert worst_int <= 1e-6
    assert chi_err <= 1e-6
    assert worst_scan <= 1e-5


@pytest.mark.xfail(
    strict=True,
    reason="the quadratic-argument weight has a downward slope jump at t=1 "
           "(for x=0: value 1.0 vs chord 0.957 on the pair 0.9/1.1), so "
           "midpoint convexity genuinely fails near the kink; see the "
           "decisions ledger")
def test_c04_theta0_midpoint_convexity():
    xs = np.geomspace(1e-2, 1e3, 100)
    xs[0] = 0.0
    ts = np.geomspace(1e-4, 1e6, 100)
    worst = 0.0
    for x in xs:
        vals = weight_eval(THETA0, x, ts)
        for i in range(ts.size):
            mids = weight_eval(THETA0, x, 0.5 * (ts[i] + ts[i:]))
            viol = mids - 0.5 * (vals[i] + vals[i:])
            worst = max(worst, float(viol.max()))
    ok = worst <= 1e-12
    _line(4, "theta0 midpoint convexity", ok, f"max_violation={worst:.2e}")
    assert worst <= 1e-12


def test_c05_maximal_characterization(rig_cfg):
    rows, summary = suite_thm21(rig_cfg)
    ok = summary["max_ratio"] <= 10.0 and summary["easy_ok"]
    _line(5, "cone-maximal characterization", ok,
          f"C={summary['max_ratio']:.3f} easy_ok={summary['easy_ok']}")
    assert ok


def test_c06_pointwise_maximal_domination(rig_cfg):
    _, summary = suite_thm21(rig_cfg)
    ok = summary["pointwise_c"] <= 10.0
    _line(6, "pointwise sqrt-maximal domination", ok,
          f"C={summary['pointwise_c']:.3f}")
    assert ok


def test_c07_extension_growth_lemma(rig_cfg):
    rows, summary = suite_lemma31(rig_cfg)
    ok = summary["pass"]
    _line(7, "log growth of extended BMO norms", ok,
          f"C={summary['max_ratio']:.3f} log_growth_ok={summary['log_growth_ok']}")
    assert ok


def test_c08_product_estimate(rig_cfg):
    rows, summary = suite_prop31(rig_cfg)
    ok = summary["pass"]
    _line(8, "product norm estimate", ok, f"C={summary['max_ratio']:.3f}")
    assert ok
    assert len(rows) >= 25


def test_c09_factorization(rig_cfg):
    rows, summary = suite_thm11(rig_cfg)
    ok = summary["pass"]
    residuals = [r[1] for r in rows if r[0].endswith("residual")]
    changes = [r[1] for r in rows if r[0].endswith("l1_doubling")]
    _line(9, "constructive factorization", ok,
          f"max_residual={max(residuals):.2e} max_l1_change={max(changes):.2%}")
    assert ok


def test_c10_symbol_norm_bound(rig_cfg):
    rows, summary = suite_cr(rig_cfg)
    ok = summary["pass"]
    _line(10, "log-symbol norm bound", ok,
          f"max={20 * summary['max_ratio']:.3f} bound=20")
    assert ok


def test_c11_hankel_sweep(rig_cfg):
    rows, summary = suite_hankel(rig_cfg)
    ok = summary["pass"] and np.isfinite(summary["max_ratio"])
    _line(11, "hankel antilinearity and forward sweep", ok,
          f"antilinearity={summary['antilinearity']:.2e} "
          f"ratio={summary['max_ratio']:.3f} "
          f"const_flagged={summary['constant_symbol_flagged']}")
    assert ok
    assert summary["antilinearity"] <= 1e-12
    assert summary["constant_symbol_flagged"]


def test_c12_report_determinism(tmp_path):
    args = ["--grid-L", "16", "--grid-n", "1024", "verify", "--suite", "cr"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["--out", str(out)] + args)
        assert rc == 0
        outs.append((out / "verify_cr.csv").read_bytes() +
                    (out / "verify_cr.json").read_bytes())
    ok = outs[0] == outs[1]
    _line(12, "byte-identical reports", ok)
    assert ok
