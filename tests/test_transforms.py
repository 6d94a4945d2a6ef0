import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import dawsn, wofz

from conftest import max_abs, rel_l2
from hardylog import library as lib
from hardylog import transforms
from hardylog.grid import (BOUNDED, LOG_GROWTH, HeightLadder,
                           NonIntegrableError, PreconditionError,
                           SampledFunction, integrate, make_grid, make_ladder,
                           power_decay)
from hardylog.factor import coifman_rochberg_symbol
from hardylog.hankel import hankel_apply
from hardylog.maximal import max_interval_average, nontangential_max
from hardylog.transforms import (boundary_value, hilbert_transform,
                                 holomorphic_extension, holomorphic_slice,
                                 poisson_extend, poisson_slice, szego_project)


def _same(f0):
    return f0


def _stripped(f0):
    """f0 without its declared terms: its samples and continuation, which
    the line rule extends."""
    return SampledFunction(f0.grid, f0.values, f0.decay,
                           continuation=f0.continuation)


class TestPoissonExtend:
    def test_constant_exact_on_direct_path(self, rig_grid):
        one = lib.constant(rig_grid, 1.0)
        lad = make_ladder(1e-3, 1e3, 12)
        fld = poisson_extend(one, lad)
        assert max_abs(fld.values, 1.0) < 1e-12

    def test_semigroup_slice(self, rig_grid):
        p1 = lib.poisson_bump(rig_grid)
        x = rig_grid.nodes
        out = poisson_slice(p1, 2.0)
        assert max_abs(out.values.real, 3.0 / (np.pi * (x * x + 9.0))) <= 1e-4

    def test_harmonic_cosine_multiplier(self, rig_grid):
        a = lib.harmonic_freq(rig_grid, 1.0)
        x = rig_grid.nodes
        f0 = SampledFunction(rig_grid, np.cos(a * x), lib.BOUNDED,
                             continuation=lambda u: np.cos(a * u))
        out = poisson_slice(f0, 1.0)
        assert max_abs(out.values.real, np.exp(-a) * np.cos(a * x)) < 5e-4

    def test_windowed_cos_damping(self, rig_grid):
        wc = lib.windowed_cos(rig_grid)
        out = poisson_slice(wc, 1.0)
        central = np.abs(rig_grid.nodes) <= rig_grid.L / 2
        target = np.exp(-1.0) * np.cos(rig_grid.nodes)
        assert max_abs(out.values.real[central] - target[central]) < 2e-3

    def test_heights_below_dx_accepted(self, rig_grid):
        x, dx = rig_grid.nodes, rig_grid.dx
        lad = make_ladder(dx / 8, 1.0, 8)

        def inv_sq(u):
            return 1.0 / (np.asarray(u, dtype=np.float64) + 1j) ** 2
        f0 = SampledFunction(rig_grid, inv_sq(x), power_decay(2.0),
                             continuation=inv_sq)
        ex = lib.exp_osc(rig_grid, 1.0)
        a = lib.harmonic_freq(rig_grid, 1.0)
        sg = lib.sign_step(rig_grid)
        # at dx/2 the sampled step's own trapezoid error dx^2 y/(3 pi x^3)
        # is 1.04e-4 at x = 8dx, so that height is read from 16dx out
        for y, jump_gap in ((dx / 8, 8), (dx / 2, 16)):
            exact = 1.0 / (x + 1j * (y + 1.0)) ** 2
            assert max_abs(poisson_slice(f0, y).values, exact) <= \
                1e-8 * max_abs(f0.values)
            assert max_abs(poisson_slice(ex, y).values,
                           np.exp(-a * y) * np.exp(1j * a * x)) <= 1e-5
            away = np.abs(x) > jump_gap * dx
            err = poisson_slice(sg, y).values.real - \
                (2 / np.pi) * np.arctan(x / y)
            assert max_abs(err[away]) <= 1e-4
        # the ladder's lowest row is the slice at that height
        for extend, slice_at in ((poisson_extend, poisson_slice),
                                 (holomorphic_extension, holomorphic_slice)):
            field, row = extend(f0, lad), slice_at(f0, dx / 8)
            assert np.array_equal(field.values[0], row.values)
            assert row.decay == field.decay

    def test_slice_keeps_the_bound(self, rig_grid):
        # averaging a bounded function keeps it bounded, and log|x| unbounded
        assert poisson_slice(lib.sign_step(rig_grid), 1.0).decay == BOUNDED
        assert poisson_slice(lib.log_abs(rig_grid), 1.0).decay == LOG_GROWTH

    def test_log_growth_needs_continuation(self, rig_grid):
        vals = np.sign(rig_grid.nodes)
        bare = SampledFunction(rig_grid, vals, lib.BOUNDED)
        with pytest.raises(PreconditionError):
            poisson_slice(bare, 1.0)

    @given(st.integers(0, 7), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_nonfinite_height_is_rejected(self, k, bad):
        f0 = lib.gaussian_deriv(make_grid(8, 64))
        levels = list(make_ladder(0.1, 10.0, 8).levels)
        levels[k] = bad
        with pytest.raises(PreconditionError):
            poisson_slice(f0, bad)
        with pytest.raises(PreconditionError):
            poisson_extend(f0, HeightLadder(tuple(levels)))

    @pytest.mark.parametrize("y", [0.0, -0.0, -1.0])
    def test_nonpositive_height_is_rejected(self, y):
        with pytest.raises(PreconditionError, match="positive and finite"):
            poisson_slice(lib.gaussian_deriv(make_grid(8, 64)), y)

    @staticmethod
    def _closed_form_errors(rig_grid, strip, log_heights):
        """Per height, the errors of P_y 1, P_y sgn, P_y log|x| (None off
        log_heights) and P_y e^{iax} on the central half-window, for the
        library inputs passed through strip."""
        x = rig_grid.nodes
        central = np.abs(x) <= rig_grid.L / 2
        a = lib.harmonic_freq(rig_grid, 1.0)
        one, sg, la, ex = (strip(f) for f in (
            lib.constant(rig_grid, 1.0), lib.sign_step(rig_grid),
            lib.log_abs(rig_grid), lib.exp_osc(rig_grid, 1.0)))
        for y in (0.1, 1.0, 30.0, 100.0, 1000.0):
            log_err = max_abs(poisson_slice(la, y).values.real
                              - 0.5 * np.log(x * x + y * y)) \
                if y in log_heights else None
            target = np.exp(-a * y) * np.exp(1j * a * x)
            yield (y, max_abs(poisson_slice(one, y).values, 1.0),
                   max_abs(poisson_slice(sg, y).values.real,
                           (2 / np.pi) * np.arctan(x / y)),
                   log_err,
                   max_abs((poisson_slice(ex, y).values - target)[central]))

    def test_direct_path_closed_forms(self, rig_grid):
        # the declared terms extend in closed form: 8.9e-16 on log|x|, which
        # includes the origin at y = 0.1, and 0 on the others
        heights = (0.1, 1.0, 30.0, 100.0, 1000.0)
        for y, one, sgn, log, exp in self._closed_form_errors(
                rig_grid, _same, heights):
            assert max(one, sgn, log) < 1e-12 and exp <= 1e-9

    def test_direct_path_closed_forms_on_the_rule(self, rig_grid):
        # the same inputs without their terms take the line rule: its far
        # nodes alias e^{iax} by 4.2e-5 y, and the origin's sampled log
        # singularity costs 0.11 at y = 0.1, which is left out
        dx = rig_grid.dx
        for y, one, sgn, log, exp in self._closed_form_errors(
                rig_grid, _stripped, (1.0, 30.0, 1000.0)):
            assert one < 1e-12
            # sampling the unit step costs up to dx^2 * max|P_y'|
            assert sgn < 1e-4 + 3 * np.sqrt(3) / (8 * np.pi) * (dx / y) ** 2
            assert log is None or log < 0.02
            assert exp <= 1e-4 * y

    def test_direct_path_samples_continuation_once(self, rig_grid):
        # the continuation is sampled on the near window and the far nodes
        # in one call per input, however many heights are extended
        n = rig_grid.n
        sg = lib.sign_step(rig_grid)
        for count in (8, 48):
            seen = []

            def counted(u):
                seen.append(np.size(u))
                return np.sign(u)
            f0 = SampledFunction(rig_grid, sg.values, lib.BOUNDED,
                                 continuation=counted)
            poisson_extend(f0, make_ladder(1e-3, 1e3, count))
            assert len(seen) == 1
            assert sum(seen) <= 9 * n + 1 + 2 * 256

    @pytest.mark.parametrize("L", [16, 64])
    @pytest.mark.parametrize("make", [
        lib.gaussian, lib.gaussian_deriv, lib.poisson_bump, lib.conjugate_bump,
        lib.windowed_cos,
        lambda g: _stripped(lib.bmo_mixture(g, np.random.default_rng(5))),
        lib.sign_step, lib.log_abs,
        lambda g: lib.bmo_mixture(g, np.random.default_rng(5)),
        lambda g: coifman_rochberg_symbol(lib.gaussian(g))],
        ids=["gaussian", "gaussian_deriv", "p1", "q1", "wcos",
             "stripped_mixture", "sgn", "logabs", "mixture", "symbol"])
    def test_twice_the_real_cauchy_row(self, make, L):
        # one row rule: P_y of real data is the Cauchy row's P_y, bit for
        # bit, for declared terms too, with or without a rest
        f0 = make(make_grid(L, 1024))
        lad = make_ladder(0.5 * f0.grid.dx, 1e3, 24)
        assert np.array_equal(poisson_extend(f0, lad).values,
                              2 * holomorphic_extension(f0, lad).values.real)

    def test_gaussian_against_faddeeva(self, rig_grid, rig_ladder):
        # P_y e^{-u^2} = Re w(x + iy); measured 6.7e-16 over the whole window
        z = rig_grid.nodes + 1j * rig_ladder.y[:, None]
        out = poisson_extend(lib.gaussian(rig_grid), rig_ladder)
        assert max_abs(out.values, wofz(z).real) <= 1e-13

    @pytest.mark.parametrize("L, n", [(16, 1024), (64, 4096)])
    def test_cauchy_rows_of_exp_ix(self, L, n):
        # the declared e^{iax} and its conjugate term -i e^{iax} give e^{iaz}
        # on every row, to 3.1e-16 of the row's max measured, where the line
        # rule erred by 2.7e-3 at L=16 and 8.9e-4 on the rig
        grid, lad = make_grid(L, n), make_ladder(0.05, 100.0, 16)
        a = lib.harmonic_freq(grid, 1.0)
        target = np.exp(1j * a * (grid.nodes + 1j * lad.y[:, None]))
        rows = holomorphic_extension(lib.exp_osc(grid, 1.0), lad).values
        assert np.all(np.max(np.abs(rows - target), axis=1)
                      <= 1e-13 * np.max(np.abs(target), axis=1))

    def test_cauchy_rows_of_p1(self, rig_grid, rig_ladder):
        # (P_y + i Q_y) p1 / 2 = i / (2 pi (z + i)); measured 3.5e-11 of
        # max|p1| over the whole window
        f0 = lib.poisson_bump(rig_grid)
        z = rig_grid.nodes + 1j * rig_ladder.y[:, None]
        out = holomorphic_extension(f0, rig_ladder)
        assert max_abs(out.values, 1j / (2 * np.pi * (z + 1j))) <= \
            1e-10 * max_abs(f0.values)


class TestHilbert:
    def test_conjugate_kernel(self, rig_grid):
        p1 = lib.poisson_bump(rig_grid)
        x = rig_grid.nodes
        q1 = x / (np.pi * (1.0 + x * x))
        h = hilbert_transform(p1)
        assert rel_l2(h.values.real, q1) <= 1e-9

    def test_windowed_cos_to_sin(self, rig_grid):
        wc = lib.windowed_cos(rig_grid)
        h = hilbert_transform(wc)
        central = np.abs(rig_grid.nodes) <= rig_grid.L / 2
        assert max_abs((h.values.real - np.sin(rig_grid.nodes))[central]) <= 1e-3

    def test_involution_on_mean_free(self, rig_grid):
        f = lib.gaussian_deriv(rig_grid)
        hh = hilbert_transform(hilbert_transform(f))
        assert rel_l2(hh.values.real, -f.values.real) <= 1e-6

    def test_gaussian_dawson(self, rig_grid):
        f = lib.gaussian(rig_grid)
        h = hilbert_transform(f)
        target = 2.0 / np.sqrt(np.pi) * dawsn(rig_grid.nodes)
        assert rel_l2(h.values.real, target) <= 1e-12

    def test_kills_constants(self, rig_grid):
        one = lib.constant(rig_grid, 2.5)
        h = hilbert_transform(one)
        assert max_abs(h.values) == 0.0

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_half_log_closed_form(self, n):
        # H (1/2) log(u^2 + e^2) = arctan2(e, x) - pi/2 up to a constant; no
        # periodic window tilts the growing data (4.1e-7 measured)
        g = make_grid(64, n)
        x = g.nodes

        def c(u):
            return 0.5 * np.log(np.asarray(u) ** 2 + np.e ** 2)
        h = hilbert_transform(SampledFunction(g, c(x), LOG_GROWTH,
                                              continuation=c))
        err = h.values.real - (np.arctan2(np.e, x) - np.pi / 2.0)
        assert max_abs(err - np.median(err)) <= 1e-6

    @pytest.mark.parametrize("L, n", [(16, 1024), (64, 4096)])
    def test_declared_closed_forms(self, L, n):
        # the conjugate terms exactly: H sgn = (2/pi) log|x|, read at dx/2 on
        # the origin node, H log|x| = -(pi/2) sgn x and H e^{iax} = -i e^{iax}
        grid = make_grid(L, n)
        x, a = grid.nodes, lib.harmonic_freq(grid, 1.0)
        for f, target in (
                (lib.sign_step(grid),
                 2.0 / np.pi * np.log(np.maximum(np.abs(x), 0.5 * grid.dx))),
                (lib.log_abs(grid), -0.5 * np.pi * np.sign(x)),
                (lib.exp_osc(grid, 1.0), -1j * np.exp(1j * a * x))):
            assert np.array_equal(hilbert_transform(f).values, target)

    @pytest.mark.parametrize("L, n", [(16, 1024), (64, 4096)])
    @pytest.mark.parametrize("make, bound", [
        (lib.sign_step, 1e-3), (lib.log_abs, 1.5e-2),
        (lambda g: lib.exp_osc(g, 1.0), 6e-3),
        (lambda g: lib.bmo_mixture(g, np.random.default_rng(5)), 1e-3)],
        ids=["sgn", "logabs", "exp_ix", "mixture"])
    def test_declared_against_the_rule(self, make, bound, L, n):
        # the conjugate terms against the 9L line rule on the same input
        # without its terms, on the central half minus |x| <= 1, after a
        # constant, within the rule's documented errors: 1.9e-4 (sgn), 1.3e-2
        # (the log singularity), 2.8e-3 (e^{iax}'s far-node aliasing, 5.4e-3
        # documented) and 5.5e-4 (mixture) measured
        f = make(make_grid(L, n))
        x = f.grid.nodes
        keep = (np.abs(x) <= L / 2) & (np.abs(x) > 1.0)
        err = (hilbert_transform(_stripped(f)).values
               - hilbert_transform(f).values)[keep]
        err -= np.median(err.real) + 1j * np.median(err.imag)
        assert max_abs(err) <= bound

    def test_log_abs_to_sign(self, rig_grid):
        # H log|x| = -(pi/2) sgn x up to a constant; the sampled singularity
        # at the origin leaves 1.3e-2 on |x| > 1
        x = rig_grid.nodes
        h = hilbert_transform(lib.log_abs(rig_grid))
        err = (h.values.real + 0.5 * np.pi * np.sign(x))[np.abs(x) > 1.0]
        assert max_abs(err - np.median(err)) <= 1.5e-2

    @given(st.floats(0.5, 1.0), st.floats(-100.0, 100.0),
           st.sampled_from([1024, 4096]))
    def test_involution_on_random_mean_free(self, width, log_scale, n):
        # 3.9e-8 measured at width 1; the power-law fill of the 1/x^2 tail
        # of Hf is what remains
        f = lib.gaussian_deriv(make_grid(64, n), 0.0, width, 10.0 ** log_scale)
        hh = hilbert_transform(hilbert_transform(f))
        assert rel_l2(hh.values.real, -f.values.real) <= 1e-7

    # up to 1e308, where the window's FFT would overflow
    @given(st.complex_numbers(max_magnitude=1e308))
    def test_random_constant_is_exactly_zero(self, c):
        h = hilbert_transform(lib.constant(make_grid(8, 64), c))
        assert not np.any(h.values)

    @given(st.floats(0.3, 3.0), st.floats(-100.0, 100.0))
    def test_even_input_odd_output(self, width, log_scale):
        out = hilbert_transform(lib.gaussian(make_grid(16, 512), 0.0, width,
                                             10.0 ** log_scale)).values.real
        # mirror about the origin, skipping the unpaired leftmost node
        sym = out[1:]
        assert max_abs(sym + sym[::-1]) <= 1e-12 * max_abs(out)

    def test_output_decay_bookkeeping(self, rig_grid):
        # mean-free rapid input keeps a 1/x^2 tail
        assert hilbert_transform(lib.gaussian_deriv(rig_grid)).decay == \
            power_decay(2.0)
        # mean-free power input keeps an integrable (conservative) tag
        q = lib.conjugate_bump(rig_grid)
        p = SampledFunction(rig_grid, q.values, power_decay(2.0))
        assert hilbert_transform(p).decay == power_decay(1.5)
        # nonzero-mean power input is flagged non-integrable
        p1 = lib.poisson_bump(rig_grid)
        assert hilbert_transform(p1).decay.tag == "log_growth"

    @pytest.mark.parametrize("p", [1.2, 1.8, 3.0])
    def test_projection_and_cauchy_rows_take_the_class_of_h(self, p):
        # (f + iHf)/2 and its Cauchy rows hold iHf/2, so their tails fall
        # no faster than H's
        grid = make_grid(16, 1024)
        f = SampledFunction(grid, lib.gaussian_deriv(grid).values,
                            power_decay(p))
        h = hilbert_transform(f).decay
        assert h == power_decay(min(p, 1.5))
        assert szego_project(f).decay == h
        assert holomorphic_slice(f, 0.1).decay == h
        assert holomorphic_extension(f, make_ladder(0.1, 10.0, 8)).decay == h

    def test_nonzero_mean_rapid_input_is_not_integrable(self, rig_grid):
        # H(gaussian) = (2/sqrt(pi)) D(x) ~ 1/(sqrt(pi) x): a 1/x tail
        h = hilbert_transform(lib.gaussian(rig_grid))
        assert abs(rig_grid.L * h.values.real[-1] - 1 / np.sqrt(np.pi)) < 1e-2
        assert h.decay.tag == "log_growth"
        with pytest.raises(NonIntegrableError):
            integrate(h)


class TestUnboundedOutputs:
    """H and the Szego projection do not map bounded functions to bounded
    ones: H(sgn) = (2/pi) log|x| grows without bound."""

    def test_hilbert_of_sign_step(self):
        # the conjugate term (2/pi) log|x|, read at dx/2 on the origin node
        g = make_grid(16, 1024)
        h = hilbert_transform(lib.sign_step(g))
        log = np.log(np.maximum(np.abs(g.nodes), 0.5 * g.dx))
        assert np.array_equal(h.values, 2.0 / np.pi * log)
        assert h.decay == LOG_GROWTH

    def test_szego_of_sign_step(self):
        p = szego_project(lib.sign_step(make_grid(16, 1024)))
        assert p.decay == LOG_GROWTH

    def test_szego_flat_component_is_bounded(self, rig_grid):
        # a nonzero mean leaves a constant, which is bounded
        assert szego_project(lib.gaussian(rig_grid)).decay == BOUNDED

    def test_hilbert_of_bounded_declared_terms_is_bounded(self):
        # H(e^{iax}) = -i e^{iax} exactly, no log among the conjugate terms
        g = make_grid(16, 256)
        h = hilbert_transform(lib.exp_osc(g))
        assert h.decay == BOUNDED
        hankel_apply(h, lib.gaussian(g))

    def test_projection_of_unbounded_declared_terms_stays_unbounded(self):
        # H(log|x|) is a bounded arctan, but (f + iHf)/2 holds log|x| too
        f = lib.log_abs(make_grid(16, 256))
        assert hilbert_transform(f).decay == BOUNDED
        assert szego_project(f).decay == LOG_GROWTH
        assert holomorphic_slice(f, 0.5).decay == LOG_GROWTH

    @pytest.mark.parametrize("name, peak", [
        # 2/sqrt(pi) max Dawson and the max of x/(pi(x^2 + 1))
        ("gaussian", 2.0 / np.sqrt(np.pi) * 0.5410442246),
        ("p1", 0.5 / np.pi)])
    def test_hilbert_of_integrable_mass_is_bounded(self, name, peak):
        # a nonzero mean leaves Hf ~ (mass/pi)/x: bounded but not
        # integrable, as for the projection, so Hf is a Hankel symbol
        g = make_grid(16, 1024)
        f = lib.named_function(name, g)
        h = hilbert_transform(f)
        assert h.decay == szego_project(f).decay == BOUNDED
        assert abs(np.max(np.abs(h.values)) - peak) <= 1e-3
        hankel_apply(h, lib.gaussian(g))


_centres, _widths = st.floats(-4.0, 4.0), st.floats(0.25, 3.0)


def _dawson_projection(grid, center, width, odd):
    """The bump, the Gaussian e^{-t^2} or with odd t e^{-t^2}, t = (x -
    center)/width, and its projection (f + iHf)/2 from the Dawson closed
    forms H[e^{-t^2}] = (2/sqrt(pi)) D(t), H[t e^{-t^2}] = -(1 - 2t D(t))/
    sqrt(pi)."""
    t = (grid.nodes - center) / width
    if odd:
        f = lib.gaussian_deriv(grid, center, width)
        hf = -(1.0 - 2.0 * t * dawsn(t)) / np.sqrt(np.pi)
    else:
        f = lib.gaussian(grid, center, width)
        hf = 2.0 / np.sqrt(np.pi) * dawsn(t)
    return f, 0.5 * (f.values + 1j * hf)


_DAWSON_CASES = [(64, 4096, 0.0, 1.0, True), (64, 4096, 0.0, 4.0, True),
                 (64, 4096, 16.0, 4.0, True), (16, 1024, 0.0, 1.0, True),
                 (16, 1024, 4.0, 4.0, True), (64, 4096, 0.0, 1.0, False)]


class TestSzego:
    # 2.2e-15 worst measured, relative to the closed form's max
    @pytest.mark.parametrize("L, n, center, width, odd", _DAWSON_CASES)
    def test_dawson_closed_forms(self, L, n, center, width, odd):
        f, target = _dawson_projection(make_grid(L, n), center, width, odd)
        assert max_abs(szego_project(f).values, target) <= \
            1e-12 * max_abs(target)

    # 2.1e-14 worst measured on the ladder, relative to the field's max
    @pytest.mark.parametrize("L, n, center, width, odd", _DAWSON_CASES)
    def test_extension_closed_forms(self, L, n, center, width, odd):
        # the extension of (f + iHf)/2 is w(z)/2 for the Gaussian and
        # (z w(z) - i/sqrt(pi))/2 for the odd bump, z = (x + iy - center)/width
        grid, lad = make_grid(L, n), make_ladder(1e-3, 1e3, 48)
        f, _ = _dawson_projection(grid, center, width, odd)
        z = (grid.nodes[None, :] + 1j * lad.y[:, None] - center) / width
        target = 0.5 * (z * wofz(z) - 1j / np.sqrt(np.pi) if odd else wofz(z))
        assert max_abs(holomorphic_extension(f, lad).values, target) <= \
            1e-12 * max_abs(target)

    def test_fixes_nonnegative_spectrum(self, rig_grid):
        # 1/(x + i)^2 is the boundary value of a decaying holomorphic
        # function; 3.0e-8 of the max measured, a constant left by the +1/(pi
        # u) of H's far kernel, which drops (1/pi) int_{|u|>W} f(u)/u du
        def inv_sq(u):
            return 1.0 / (np.asarray(u, dtype=np.float64) + 1j) ** 2
        f0 = SampledFunction(rig_grid, inv_sq(rig_grid.nodes),
                             power_decay(2.0), continuation=inv_sq)
        p = szego_project(f0)
        assert max_abs(p.values, f0.values) <= 1e-7 * max_abs(f0.values)

    def test_idempotent(self, rig_grid):
        # P P f - P f = (i/4)(HHf + f) with f the projection: H o H = -I on
        # its 1/x^2 tail, which the power law fills; 1.4e-8 relative L2
        # measured
        p1 = szego_project(lib.gaussian_deriv(rig_grid))
        p2 = szego_project(p1)
        assert rel_l2(p2.values, p1.values) <= 1e-7

    @given(st.floats(0.5, 1.0), st.floats(-100.0, 100.0),
           st.sampled_from([1024, 4096]))
    def test_idempotent_on_random_data(self, width, log_scale, n):
        # the draws of TestHilbert.test_involution_on_random_mean_free, whose
        # bound 1e-7 on H o H = -I carries over; 1.4e-8 relative L2 measured
        f = lib.gaussian_deriv(make_grid(64, n), 0.0, width, 10.0 ** log_scale)
        p1 = szego_project(f)
        p2 = szego_project(p1)
        assert rel_l2(p2.values, p1.values) <= 1e-7

    def test_windowed_cos_projection(self, rig_grid):
        wc = lib.windowed_cos(rig_grid)
        p = szego_project(wc)
        central = np.abs(rig_grid.nodes) <= rig_grid.L / 2
        target = 0.5 * np.exp(1j * rig_grid.nodes)
        assert max_abs((p.values - target)[central]) <= 1e-3

    @given(_centres, _widths, st.floats(-100.0, 100.0))
    def test_conjugate_identity(self, c, w, log_scale):
        # P f + conj(P conj f) = f: H is real, so the two imaginary parts
        # cancel up to rounding
        grid = make_grid(16, 1024)
        vals = 10.0 ** log_scale * (lib.gaussian(grid, c, w).values
                                    + 1j * lib.gaussian_deriv(grid, -c, w).values)
        f0 = SampledFunction(grid, vals, lib.RAPID)
        conj_f0 = SampledFunction(grid, np.conj(vals), lib.RAPID)
        lhs = szego_project(f0).values + np.conj(szego_project(conj_f0).values)
        assert max_abs(lhs, vals) <= 4.0 * np.finfo(float).eps * max_abs(vals)

    def test_holomorphy_link(self, rig_grid):
        # whole-line operators: P_y f + i P_y Hf = w(x + iy) for f = e^{-u^2},
        # w the Faddeeva function, whose boundary values are f + i Hf
        x = rig_grid.nodes
        central = np.abs(x) <= rig_grid.L / 2
        f = lib.gaussian(rig_grid)
        hf = hilbert_transform(f)
        hf = SampledFunction(rig_grid, hf.values, hf.decay,
                             continuation=lambda u: wofz(u).imag)
        y = 2.0
        lhs = poisson_slice(f, y).values + 1j * poisson_slice(hf, y).values
        assert max_abs((lhs - wofz(x + 1j * y))[central]) <= 1e-8

    def test_commutes_with_extension(self, rig_grid):
        # P_2 q1 = q3 and H p3 = q3, q_a and p_a the conjugate and Poisson
        # kernels at height a: extension and conjugation commute
        central = np.abs(rig_grid.nodes) <= rig_grid.L / 2
        q3 = lib.conjugate_bump(rig_grid, 3.0).values
        p_q1 = poisson_slice(lib.conjugate_bump(rig_grid), 2.0)
        h_p3 = hilbert_transform(lib.poisson_bump(rig_grid, 3.0))
        assert max_abs((p_q1.values - q3)[central]) <= 1e-8
        assert max_abs((h_p3.values - q3)[central]) <= 1e-10


# the same dx on two windows; |x| <= 8 is the central half of the smaller
_WINDOWS = (make_grid(16, 1024), make_grid(32, 2048))
_CENTRAL = [np.abs(g.nodes) <= 8 for g in _WINDOWS]


def _on_both_windows(make, op):
    """op of the function make(grid) builds, on the central |x| <= 8 of each
    window: the smaller window's output, the larger's, and its max."""
    small, big = (op(make(g))[..., c] for g, c in zip(_WINDOWS, _CENTRAL))
    return small, big, max_abs(big)


def _mixture_on(seed, strip=_same):
    """bmo_mixture's draws scale with L, so both windows sample the one
    the smaller window draws, by its declared terms."""
    mix = lib.bmo_mixture(_WINDOWS[0], np.random.default_rng(seed))
    return lambda g: strip(SampledFunction.declared(g, mix.tail, mix.decay))


class TestWindowIndependence:
    """Outputs on the central half-window do not depend on the window: (L, n)
    = (16, 1024) against (32, 2048).  The measured figures are the worst of
    150 to 300 seeded draws.  H fails the law only on undeclared growing
    inputs, whose constant depends on W; declared terms take none."""

    _ladder = make_ladder(1 / 32, 100.0, 16)

    # 4.4e-15 measured
    @given(st.sampled_from([lib.gaussian, lib.gaussian_deriv]), _centres,
           _widths)
    def test_hilbert_of_integrable_data(self, make, c, w):
        small, big, top = _on_both_windows(
            lambda g: make(g, c, w), lambda f: hilbert_transform(f).values)
        assert max_abs(small, big) <= 1e-13 * top

    # 8.0e-16 measured
    @given(st.sampled_from([lib.gaussian, lib.gaussian_deriv]), _centres,
           _widths)
    def test_szego_project_of_integrable_data(self, make, c, w):
        small, big, top = _on_both_windows(
            lambda g: make(g, c, w), lambda f: szego_project(f).values)
        assert max_abs(small, big) <= 1e-13 * top

    # 6.2e-15 measured
    @given(st.sampled_from([lib.gaussian, lib.gaussian_deriv]), _centres,
           _widths)
    def test_holomorphic_extension_of_a_bump(self, make, c, w):
        small, big, top = _on_both_windows(
            lambda g: make(g, c, w),
            lambda f: holomorphic_extension(f, self._ladder).values)
        assert max_abs(small, big) <= 1e-13 * top

    # 6.1e-16 measured
    @given(st.sampled_from([lib.gaussian, lib.gaussian_deriv]), _centres,
           _widths)
    def test_nontangential_max_of_the_extension(self, make, c, w):
        small, big, top = _on_both_windows(
            lambda g: make(g, c, w), lambda f: nontangential_max(
                holomorphic_extension(f, self._ladder)).values)
        assert max_abs(small, big) <= 1e-13 * top

    # 4.1e-16 measured
    @given(_centres, _widths)
    def test_poisson_extend_of_a_bump(self, c, w):
        small, big, top = _on_both_windows(
            lambda g: lib.gaussian_deriv(g, c, w),
            lambda f: poisson_extend(f, self._ladder).values)
        assert max_abs(small, big) <= 1e-13 * top

    def test_poisson_extend_of_sgn(self):
        # 0 measured: the declared term extends in closed form
        small, big, top = _on_both_windows(
            lib.sign_step, lambda f: poisson_extend(f, self._ladder).values)
        assert max_abs(small, big) <= 1e-7 * top

    # 0 measured: the declared terms extend in closed form
    @given(st.integers(0, 2 ** 32 - 1))
    def test_poisson_extend_of_a_mixture(self, seed):
        small, big, top = _on_both_windows(
            _mixture_on(seed),
            lambda f: poisson_extend(f, self._ladder).values)
        assert max_abs(small, big) <= 1e-13 * top

    # without its terms the line rule takes the mixture, whose far nodes
    # alias the cosine term by up to 5.8e-4 y of the max; its arctan steps
    # alone keep 1.7e-8
    @given(st.integers(0, 2 ** 32 - 1))
    def test_poisson_extend_of_a_stripped_mixture(self, seed):
        small, big, top = _on_both_windows(
            _mixture_on(seed, _stripped),
            lambda f: poisson_extend(f, self._ladder).values)
        gap = np.max(np.abs(small - big), axis=1)
        assert np.all(gap <= 2e-3 * self._ladder.y * top)

    # 0 measured: the declared terms and their conjugate terms in closed
    # form
    @pytest.mark.parametrize("make", [
        lib.sign_step, lib.log_abs, lambda g: lib.exp_osc(g, 1.0)],
        ids=["sgn", "logabs", "exp_ix"])
    def test_hilbert_and_cauchy_rows_of_declared_inputs(self, make):
        for op in (lambda f: hilbert_transform(f).values,
                   lambda f: holomorphic_extension(f, self._ladder).values):
            small, big, top = _on_both_windows(make, op)
            assert max_abs(small, big) <= 1e-13 * top

    # 0 measured
    @given(st.integers(0, 2 ** 32 - 1))
    def test_hilbert_and_cauchy_rows_of_a_mixture(self, seed):
        for op in (lambda f: hilbert_transform(f).values,
                   lambda f: holomorphic_extension(f, self._ladder).values):
            small, big, top = _on_both_windows(_mixture_on(seed), op)
            assert max_abs(small, big) <= 1e-13 * top

    # 8.3e-15 measured: the windows' prefix sums round differently
    @given(_centres, _widths)
    def test_max_interval_average(self, c, w):
        small, big, top = _on_both_windows(
            lambda g: lib.gaussian_deriv(g, c, w),
            lambda f: max_interval_average(f.values))
        assert max_abs(small, big) <= 1e-13 * top


class TestPoissonSemigroup:
    """P_y2(P_y1 f) = P_(y1+y2) f on |x| <= L/2 for decaying f.  The inner
    slice has no continuation, so the outer extension fills its tail by the
    power law: 6.3e-5 (y1 + y2) of the max, the worst of 600 seeded draws
    with heights in [dx/2, 2]."""

    _grid = make_grid(16, 1024)

    @given(st.sampled_from(["gaussian", "gaussian_deriv", "poisson_bump"]),
           _centres, _widths,
           st.floats(np.log2(1 / 64), 1.0), st.floats(np.log2(1 / 64), 1.0))
    def test_composition_is_the_sum_height(self, kind, c, w, e1, e2):
        grid, (y1, y2) = self._grid, (2.0 ** e1, 2.0 ** e2)
        f = (lib.poisson_bump(grid, w) if kind == "poisson_bump"
             else getattr(lib, kind)(grid, c, w))
        twice = poisson_slice(poisson_slice(f, y1), y2).values
        once = poisson_slice(f, y1 + y2).values
        central = np.abs(grid.nodes) <= grid.L / 2
        assert (max_abs((twice - once)[central])
                <= 2e-4 * (y1 + y2) * max_abs(once))


class TestOverflow:
    """Finite samples whose modulus or transform overflows float64 are
    rejected by name, with no numpy warning."""

    @staticmethod
    def _input(kind):
        g = make_grid(16, 1024)
        if kind == "constant":          # on the rule, with no declared term
            c = lib.constant(g, 1e306)
            return SampledFunction(g, c.values, c.decay,
                                   continuation=c.continuation)
        if kind == "flat":              # its sum and its far values overflow
            return SampledFunction(g, np.full(g.n, 1e306), lib.RAPID)
        vals = np.zeros(g.n, dtype=complex)
        vals[g.n // 2] = 1.5e308 + 1.5e308j
        return SampledFunction(g, vals, lib.RAPID)

    @pytest.mark.parametrize("op, kind", [
        (szego_project, "flat"), (szego_project, "modulus"),
        (hilbert_transform, "flat"), (hilbert_transform, "modulus"),
        (transforms._is_mean_zero, "flat")])
    def test_named_precondition_error(self, op, kind):
        f0 = self._input(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="overflow"):
                op(f0)

    def test_large_constant_projects_without_overflow(self):
        # H gives exact zeros on constants, so the projection c/2 is
        # representable however close c is to the float64 limit
        f0 = self._input("constant")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(szego_project(f0).values == 0.5e306)

    def test_declared_constant_extends_exactly(self):
        # the term's closed form takes no quadrature, so nothing overflows
        f0 = lib.constant(make_grid(16, 1024), 1e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(poisson_slice(f0, 1.0).values == 1e306)

    @staticmethod
    def _extend(op, f0):
        if op == "poisson_slice":
            return poisson_slice(f0, 1.0).values
        return poisson_extend(f0, make_ladder(0.5 * f0.grid.dx, 1.5, 8)).values

    @pytest.mark.parametrize("kind", ["flat", "modulus"])
    @pytest.mark.parametrize("op", ["poisson_slice", "poisson_extend"])
    def test_poisson_precondition_error(self, op, kind):
        # the flat samples' far values, less f(-L), overflow at the far-node
        # product; the modulus overflows in the near convolution
        f0 = self._input(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="overflow"):
                self._extend(op, f0)

    @pytest.mark.parametrize("op", ["poisson_slice", "poisson_extend"])
    def test_large_constant_extends_without_overflow(self, op):
        # the rule reads f - f(-L), zero for the stripped constant, and adds
        # f(-L) back, as H and the Cauchy rows do
        f0 = self._input("constant")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(self._extend(op, f0) == 1e306)


class TestBoundaryValue:
    def test_constant_field(self, rig_grid):
        lad = make_ladder(0.1, 10, 8)
        fld = lib.field_constant(rig_grid, lad, 3.0)
        bv = boundary_value(fld)
        assert max_abs(bv.f0.values, 3.0) == 0.0
        assert bv.gap == 0.0
        assert not bv.flagged

    def test_recovers_smooth_data(self, rig_grid):
        f = lib.gaussian(rig_grid)
        lad = make_ladder(0.5 * rig_grid.dx, 4.0, 16)
        fld = poisson_extend(f, lad)
        bv = boundary_value(fld)
        # kernel concentration: error O(y_min)
        assert max_abs(bv.f0.values, f.values) <= 2.0 * lad.levels[0]

    def test_closed_form_field(self, rig_grid, rig_ladder):
        fld = lib.field_inv_square(rig_grid, rig_ladder)
        bv = boundary_value(fld)
        target = 1.0 / (rig_grid.nodes + 1j) ** 2
        assert max_abs(bv.f0.values, target) <= 2.2e-3

    def test_flag_on_wide_gap(self, rig_grid):
        lad = make_ladder(0.1, 10, 8)
        vals = np.zeros((8, rig_grid.n), dtype=complex)
        vals[0] = 1.0
        vals[1] = 2.0
        from hardylog.grid import HalfPlaneField, RAPID
        fld = HalfPlaneField(rig_grid, lad, vals, RAPID)
        bv = boundary_value(fld)
        assert bv.flagged and bv.gap == 1.0
