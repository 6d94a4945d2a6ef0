import tracemalloc

import numpy as np
import pytest

from conftest import max_abs
from hardylog import library as lib
from hardylog.factor import (build_g, coifman_rochberg_symbol, factorize,
                             product)
from hardylog.grid import (PreconditionError, RAPID, SampledFunction, Term,
                           load_function, make_grid, make_ladder,
                           sample_field, save_function, tail_samples)
from hardylog.transforms import boundary_value

E = float(np.e)


class TestSymbol:
    def test_zero_input(self, rig_grid):
        # log|x + ie| + 1, all of it declared: the rest is exactly zero
        z = SampledFunction(rig_grid, np.zeros(rig_grid.n), RAPID)
        b = coifman_rochberg_symbol(z)
        target = 0.5 * np.log(rig_grid.nodes ** 2 + E ** 2) + 1.0
        assert max_abs(b.values.real, target) < 1e-14
        assert abs(b.values.real[rig_grid.index_of(0.0)] - 2.0) < 1e-14
        assert not np.any(b.values - tail_samples(b.tail, rig_grid))

    def test_indicator_value(self, rig_grid):
        chi = lib.indicator(rig_grid, 0.0, 1.0)
        b = coifman_rochberg_symbol(chi)
        # sup of window averages of sqrt(chi) at an interior point is 1
        expected = 0.5 * np.log(0.25 + E ** 2) + np.log(E + 1.0)
        assert abs(b.values.real[rig_grid.index_of(0.5)] - expected) < 1e-12

    def test_declares_its_growth(self, tmp_path, small_grid):
        # log|u + ie| and 1 as terms, which a saved symbol keeps
        b = coifman_rochberg_symbol(lib.gaussian(small_grid))
        assert b.tail == (Term("log", 1.0, w=E), Term("const", 1.0))
        save_function(b, tmp_path / "b.txt")
        assert load_function(tmp_path / "b.txt").tail == b.tail

    def test_lower_bound_and_marking(self, rig_grid):
        b = coifman_rochberg_symbol(lib.gaussian(rig_grid, amplitude=50.0))
        assert b.values.real.min() >= 1.0
        assert b.decay.tag == "log_growth" and b.decay.bounded is False
        assert b.continuation is not None

    def test_rejects_non_integrable(self, rig_grid):
        with pytest.raises(PreconditionError):
            coifman_rochberg_symbol(lib.sign_step(rig_grid))


class TestBuildG:
    @pytest.mark.parametrize("L, n", [(16, 1024), (64, 4096)])
    def test_zero_input_in_closed_form(self, L, n):
        # the declared symbol log|x + ie| + 1 gives g = log(z + ie) + 1 -
        # i pi/2, on the boundary and on every row; 2.1e-16 measured
        grid = make_grid(L, n)
        lad = make_ladder(0.5 * grid.dx, 1e3, 48)
        b = coifman_rochberg_symbol(SampledFunction(grid, np.zeros(n), RAPID))
        g0, g_field = build_g(b, lad)
        for z, g in ((grid.nodes, g0.values),
                     (grid.nodes + 1j * lad.y[:, None], g_field.values)):
            target = np.log(z + 1j * E) + 1.0 - 0.5j * np.pi
            assert np.max(np.abs(g - target) / np.abs(target)) <= 1e-13

    def test_constant_symbol(self, rig_grid):
        lad = make_ladder(0.1, 10.0, 8)
        ones = lib.constant(rig_grid, 1.0)
        g0, g_field = build_g(ones, lad)
        assert max_abs(g0.values, 1.0) < 1e-12
        assert max_abs(g_field.values, 1.0) < 1e-11

    def test_bump_symbol(self, rig_grid):
        lad = make_ladder(0.1, 10.0, 8)
        x = rig_grid.nodes
        p1 = 1.0 / (np.pi * (1.0 + x * x))

        def cont(u):
            u = np.asarray(u, dtype=np.float64)
            return 1.0 + 1.0 / (np.pi * (1.0 + u * u))
        b = SampledFunction(rig_grid, 1.0 + p1, lib.BOUNDED,
                            continuation=cont)
        g0, g_field = build_g(b, lad)
        q1 = x / (np.pi * (1.0 + x * x))
        assert max_abs(g0.values.imag - q1) <= 2e-4
        assert np.all(np.abs(g0.values) >= 1.0 - 1e-12)

    def test_g_field_of_a_bump_symbol(self, rig_grid, rig_ladder):
        # b = 1 + p1 extends to 1 + (i/pi)/(z + i); 4.9e-10 measured
        def cont(u):
            u = np.asarray(u, dtype=np.float64)
            return 1.0 + 1.0 / (np.pi * (1.0 + u * u))
        b = SampledFunction(rig_grid, cont(rig_grid.nodes), lib.BOUNDED,
                            continuation=cont)
        _, g_field = build_g(b, rig_ladder)
        z = rig_grid.nodes[None, :] + 1j * rig_ladder.y[:, None]
        assert max_abs(g_field.values, 1.0 + (1j / np.pi) / (z + 1j)) <= 1e-8

    def test_boundary_real_part_recovered(self, rig_grid):
        lad = make_ladder(1e-3, 10.0, 12)
        h = lib.field_inv_square(rig_grid, make_ladder(1e-3, 1e3, 48))
        b = coifman_rochberg_symbol(boundary_value(h).f0)
        g0, g_field = build_g(b, lad)
        bv = boundary_value(g_field)
        # smooth away from the maximal function's kinks; compare in sup norm
        assert max_abs(bv.f0.values.real - b.values.real) <= 0.01

    def test_requires_real_symbol(self, small_grid):
        lad = make_ladder(0.1, 10.0, 8)
        with pytest.raises(PreconditionError, match="must be real"):
            build_g(lib.constant(small_grid, 2.0 + 1.0j), lad)

    def test_requires_unit_lower_bound(self, rig_grid):
        lad = make_ladder(0.1, 10.0, 8)
        small = lib.constant(rig_grid, 0.5)
        with pytest.raises(PreconditionError):
            build_g(small, lad)


class TestFactorize:
    def test_zero_field(self, rig_grid):
        lad = make_ladder(0.1, 10.0, 8)
        zero = sample_field(rig_grid, lad, lambda z: 0.0 * z, RAPID)
        res = factorize(zero)
        assert res.residual == 0.0
        assert max_abs(res.f_field.values) == 0.0

    def test_closed_form_case(self, rig_grid, rig_ladder):
        from hardylog.spaces import hp_norm
        h = lib.field_inv_square(rig_grid, rig_ladder)
        res = factorize(h)
        assert res.residual <= 1e-12
        assert res.f_l1 <= np.pi
        assert res.b.values.real.min() >= 1.0
        assert np.min(np.abs(res.g0.values)) >= 1.0
        assert np.all(np.abs(res.f0.values) <=
                      np.abs(res.h0.values) + 1e-15)
        # sup over heights of the quotient is attained at the boundary
        rep = hp_norm(res.f_field)
        assert rep.attaining_parameter == rig_ladder.levels[0]

    def test_working_set_is_three_fields(self, rig_ladder):
        # the result's f and g and no whole-field temporary beyond one more
        # field: 2.43 field sizes measured, 6.04 when g_norm was taken with
        # five fields alive and the residual was formed on the whole field
        h = lib.field_inv_square(make_grid(64, 1024), rig_ladder)
        factorize(h)                # the grid's window counts are cached
        tracemalloc.start()
        try:
            factorize(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * h.values.nbytes

    def test_mass_stable_under_domain_doubling(self, rig_ladder):
        vals = {}
        for L, n in ((64, 4096), (128, 8192)):
            g = make_grid(L, n)
            vals[L] = factorize(lib.field_inv_square(g, rig_ladder)).f_l1
        assert abs(vals[128] - vals[64]) <= 0.05 * vals[64]


class TestProduct:
    def test_identity(self, rig_grid):
        lad = make_ladder(0.1, 10.0, 8)
        f = lib.field_inv_square(rig_grid, lad)
        one = lib.field_constant(rig_grid, lad, 1.0)
        assert max_abs(product(f, one).values, f.values) == 0.0

    def test_cauchy_squared(self, rig_grid):
        lad = make_ladder(0.1, 10.0, 8)
        c = lib.field_cauchy(rig_grid, lad, 1.0)
        sq = lib.field_inv_square(rig_grid, lad, 1.0)
        prod = product(c, c)
        scale = np.abs(sq.values)
        assert np.max(np.abs(prod.values - sq.values) / scale) <= 1e-12

    def test_grid_mismatch(self, rig_grid, small_grid):
        lad = make_ladder(0.1, 10.0, 8)
        a = lib.field_constant(rig_grid, lad, 1.0)
        b = lib.field_constant(small_grid, lad, 1.0)
        with pytest.raises(PreconditionError):
            product(a, b)

    def test_ladder_mismatch(self, rig_grid):
        a = lib.field_constant(rig_grid, make_ladder(0.1, 10.0, 8), 1.0)
        b = lib.field_constant(rig_grid, make_ladder(0.2, 10.0, 8), 1.0)
        with pytest.raises(PreconditionError):
            product(a, b)

    def test_forward_backward_round_trip(self, rig_grid, rig_ladder):
        from hardylog.spaces import bmo_plus_norm, hlog_norm, hp_norm
        F = lib.field_inv_square(rig_grid, rig_ladder)
        G = lib.field_exp_osc(rig_grid, rig_ladder, 1.0)
        h = product(F, G)
        res = factorize(h)
        assert res.residual <= 1e-12
        new_f_h1 = hp_norm(res.f_field).value
        assert np.isfinite(new_f_h1)
        lhs = hlog_norm(h).value
        rhs = hp_norm(F).value * \
            bmo_plus_norm(boundary_value(G).f0).value
        assert lhs <= 50.0 * rhs
