import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.special import wofz

from conftest import max_abs, rel_l2
from hardylog import library as lib
from hardylog import oracles
from hardylog.grid import (PreconditionError, RAPID, SampledFunction,
                           make_grid, power_decay)
from hardylog.oracles import (bmo_bruteforce, luxemburg_scan, poisson_sum,
                              pv_sum)
from hardylog.spaces import luxemburg_norm


class TestHilbertOracle:
    def test_conjugate_kernel(self):
        g = make_grid(64, 1024)
        p1 = lib.poisson_bump(g)
        x = g.nodes
        out = pv_sum(p1, np.arange(g.n))
        assert rel_l2(out.real, x / (np.pi * (1.0 + x * x))) <= 1e-3

    def test_constant_near_zero(self):
        g = make_grid(16, 512)
        one = lib.constant(g, 2.0)
        out = pv_sum(one, np.arange(g.n))
        # residual truncation asymmetry only
        assert max_abs(out) <= 0.02

    def test_odd_input_even_output(self):
        g = make_grid(16, 512)
        f = lib.gaussian_deriv(g, 0.0, 1.5)
        out = pv_sum(f, np.arange(g.n)).real
        # mirror about the origin, skipping the unpaired leftmost node
        sym = out[1:]
        assert max_abs(sym - sym[::-1]) <= 1e-6 * max_abs(out)


class TestPoissonOracle:
    def test_line_kernel_closed_forms(self, rig_grid):
        # no periodic images: P_y*p1 = p_{1+y} and P_y*e^{-u^2} = Re w(x+iy)
        idx = np.arange(0, rig_grid.n, 64)
        x = rig_grid.nodes[idx]
        for y in (0.5, 2.0):
            out = poisson_sum(lib.poisson_bump(rig_grid), y, idx)
            assert max_abs(out, (1 + y) / (np.pi * (x * x + (1 + y) ** 2))) \
                <= 1e-10
            out = poisson_sum(lib.gaussian(rig_grid), y, idx)
            assert max_abs(out, wofz(x + 1j * y).real) <= 1e-10

    def test_rejects_height_zero(self, small_grid):
        with pytest.raises(PreconditionError, match="height must be positive"):
            poisson_sum(lib.gaussian(small_grid), 0.0, np.arange(4))

    def test_constant_preserved(self):
        g = make_grid(16, 512)
        one = lib.constant(g, 1.0)
        out = poisson_sum(one, 1.0, np.arange(g.n))
        assert max_abs(out, 1.0) <= 1e-12

    def test_semigroup_value(self):
        g = make_grid(64, 1024)
        p1 = lib.poisson_bump(g)
        out = poisson_sum(p1, 2.0, np.arange(g.n))
        x = g.nodes
        assert max_abs(out.real,
                       3.0 / (np.pi * (x * x + 9.0))) <= 1e-4

    def test_bump_far_field_decay(self):
        g = make_grid(64, 1024)
        chi = lib.indicator(g, -0.5, 0.5)
        y = 10.0
        out = poisson_sum(chi, y, np.arange(g.n))
        center = out.real[g.index_of(0.0)]
        assert abs(center - 1.0 / (np.pi * y)) <= 0.02 / (np.pi * y)


class TestBmoBruteforce:
    def test_constant(self, small_grid):
        assert bmo_bruteforce(lib.constant(small_grid, 3.0)) == 0.0

    def test_sign_step(self):
        g = make_grid(16, 512)
        val = bmo_bruteforce(lib.sign_step(g))
        assert abs(val - 1.0) <= 0.01

    def test_indicator_straddle(self):
        g = make_grid(16, 512)
        val = bmo_bruteforce(lib.indicator(g, 0.0, 1.0))
        assert abs(val - 0.5) <= 0.02

    def test_size_cap(self):
        g = make_grid(64, 8192)
        f = SampledFunction(g, np.zeros(g.n), RAPID)
        with pytest.raises(PreconditionError):
            bmo_bruteforce(f)


class TestLuxemburgScan:
    def test_indicator(self, rig_grid):
        chi = lib.indicator(rig_grid, -0.5, 0.5)
        assert abs(luxemburg_scan(chi) - 1.0) <= 1e-5

    def test_zero(self, small_grid):
        z = SampledFunction(small_grid, np.zeros(small_grid.n), RAPID)
        assert luxemburg_scan(z) == 0.0

    def test_scaling_moves_gauge_exactly(self, small_grid):
        f = lib.gaussian(small_grid, 0.5, 1.5)
        base = luxemburg_scan(f)
        scaled = luxemburg_scan(f.with_values(np.e * f.values))
        assert abs(scaled - np.e * base) <= 1e-5 * base

    def test_agrees_with_solver(self, small_grid):
        # rapid Gaussians, and power-law bumps whose tail the scan takes
        # from line_integral: a = 0.05 is solved below max|f| in 13 steps,
        # a = 1 in the closed form; a row of ones whose power tail holds
        # nearly all its mass, so only the whole-line mass brackets it
        rng = np.random.default_rng(21)
        inputs = [lib.gaussian(small_grid, rng.uniform(-4, 4),
                               rng.uniform(0.5, 2), rng.uniform(0.5, 8))
                  for _ in range(3)]
        inputs += [lib.poisson_bump(small_grid, a) for a in (0.05, 1.0)]
        inputs.append(SampledFunction(small_grid, np.ones(small_grid.n),
                                      power_decay(1.00001)))
        for f in inputs:
            fast = luxemburg_norm(f).value
            slow = luxemburg_scan(f)
            assert abs(fast - slow) / slow <= 1e-5


def test_oracles_import_nothing_from_transforms():
    # the references share only grid's model of values beyond the window;
    # "from .transforms import x" and "from . import transforms" both count
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert imported
    assert not [m for m in imported if "transforms" in m.split(".")]
