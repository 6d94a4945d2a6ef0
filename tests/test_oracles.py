import numpy as np
import pytest
from scipy.special import wofz

from conftest import max_abs, rel_l2
from hardylog import library as lib
from hardylog.grid import (PreconditionError, RAPID, SampledFunction,
                           make_grid)
from hardylog.oracles import (bmo_bruteforce, hilbert_pv_direct,
                              luxemburg_scan, poisson_direct, poisson_sum)
from hardylog.spaces import luxemburg_norm


class TestHilbertOracle:
    def test_conjugate_kernel(self):
        g = make_grid(64, 1024)
        p1 = lib.poisson_bump(g)
        x = g.nodes
        out = hilbert_pv_direct(p1)
        assert rel_l2(out.values.real, x / (np.pi * (1.0 + x * x))) <= 1e-3

    def test_constant_near_zero(self):
        g = make_grid(16, 512)
        one = lib.constant(g, 2.0)
        out = hilbert_pv_direct(one)
        # residual truncation asymmetry only
        assert max_abs(out.values) <= 0.02

    def test_odd_input_even_output(self):
        g = make_grid(16, 512)
        f = lib.gaussian_deriv(g, 0.0, 1.5)
        out = hilbert_pv_direct(f).values.real
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

    def test_constant_preserved(self):
        g = make_grid(16, 512)
        one = lib.constant(g, 1.0)
        out = poisson_direct(one, 1.0)
        assert max_abs(out.values, 1.0) <= 1e-12

    def test_semigroup_value(self):
        g = make_grid(64, 1024)
        p1 = lib.poisson_bump(g)
        out = poisson_direct(p1, 2.0)
        x = g.nodes
        assert max_abs(out.values.real,
                       3.0 / (np.pi * (x * x + 9.0))) <= 1e-4

    def test_bump_far_field_decay(self):
        g = make_grid(64, 1024)
        chi = lib.indicator(g, -0.5, 0.5)
        y = 10.0
        out = poisson_direct(chi, y)
        center = out.values.real[g.index_of(0.0)]
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
        rng = np.random.default_rng(21)
        for _ in range(3):
            f = lib.gaussian(small_grid, rng.uniform(-4, 4),
                             rng.uniform(0.5, 2), rng.uniform(0.5, 8))
            fast = luxemburg_norm(f).value
            slow = luxemburg_scan(f)
            assert abs(fast - slow) / slow <= 1e-5
