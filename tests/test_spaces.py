import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hardylog import library as lib
from hardylog import spaces
from hardylog.grid import (HalfPlaneField, LOG_GROWTH, NonIntegrableError,
                           PreconditionError, RAPID, SampledFunction,
                           integrate, make_grid, make_ladder, power_decay,
                           sample_field)
from hardylog.oracles import bmo_bruteforce
from hardylog.spaces import (NormReport, THETA,
                             THETA0, bmo_norm, bmo_plus_norm,
                             bmoa_log_seminorm, carleson_ratio, hlog_norm,
                             hp_norm, luxemburg_norm, weight_eval,
                             weight_integral, _gauges, _height_weights,
                             _window_counts)
from hardylog.transforms import holomorphic_extension, poisson_extend

E = float(np.e)


class TestWeights:
    def test_theta_pinned_values(self):
        assert weight_eval(THETA, 0.0, 1.0) == 1.0
        assert abs(weight_eval(THETA, E, E ** 2) - E ** 2 / 3.0) < 1e-14
        # theta0(0,2) = 4/(1 + 0.5*log 4)
        assert abs(weight_eval(THETA0, 0.0, 2.0) -
                   4.0 / (1.0 + 0.5 * np.log(4.0))) < 1e-14

    def test_zero_at_zero_and_increasing(self):
        t = np.linspace(0.0, 50.0, 4001)
        for x in (0.0, 1.0, 10.0, 1e4):
            vals = weight_eval(THETA, x, t)
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) > 0)

    def test_dominated_by_t(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-100, 100, 200)
        t = rng.uniform(0, 1e6, 200)
        assert np.all(weight_eval(THETA, x, t) <= t + 1e-12)

    def test_rejects_negative_t(self):
        with pytest.raises(PreconditionError):
            weight_eval(THETA, 0.0, -1.0)

    def test_theta0_convex_away_from_junction(self):
        # piecewise convexity holds on each side of t = 1
        for x in (0.0, 3.0, 50.0):
            for t in (np.linspace(0.01, 0.99, 99),
                      np.linspace(1.0, 1e3, 999)):
                v = weight_eval(THETA0, x, t)
                assert np.all(v[:-2] + v[2:] - 2 * v[1:-1] >= -1e-9 * v.max())

    def test_theta0_kink_at_one(self):
        # the slope drops crossing t=1, so midpoint convexity fails there:
        # a genuine property of the weight, documented by this test
        mid = weight_eval(THETA0, 0.0, 1.0)
        avg = 0.5 * (weight_eval(THETA0, 0.0, 0.9) +
                     weight_eval(THETA0, 0.0, 1.1))
        assert mid - avg > 0.04


class TestIntervalTent:
    def test_norm_report_validation(self):
        with pytest.raises(PreconditionError):
            NormReport(-1.0)
        rep = NormReport(2.0, attaining_parameter=1.5, iterations=3,
                         tolerance=1e-8)
        d = rep.to_dict()
        assert d["value"] == 2.0 and d["iterations"] == 3


class TestLuxemburg:
    def test_indicator_unit_norm(self, rig_grid):
        chi = lib.indicator(rig_grid, -0.5, 0.5)
        rep = luxemburg_norm(chi)
        assert abs(rep.value - 1.0) <= 1e-6
        assert abs(rep.flags["integral"] - 1.0) <= 1e-6

    def test_zero(self, small_grid):
        z = SampledFunction(small_grid, np.zeros(small_grid.n), RAPID)
        assert luxemburg_norm(z).value == 0.0

    def test_exact_homogeneity(self, small_grid):
        f = lib.gaussian(small_grid, 1.0, 2.0, amplitude=3.0)
        v1 = luxemburg_norm(f).value
        v2 = luxemburg_norm(f.with_values(2.0 * f.values)).value
        assert v1 <= v2 <= 4.0 * v1
        assert abs(v2 - 2.0 * v1) <= 1e-6 * v1

    def test_integral_below_one_beyond_root(self, small_grid):
        from hardylog.spaces import weight_integral
        f = lib.gaussian(small_grid)
        rep = luxemburg_norm(f)
        mags = np.abs(f.values)
        for c in (1.001, 1.5, 10.0):
            assert weight_integral(small_grid, mags, f.decay, THETA,
                                   c * rep.value) <= 1.0

    def test_dominated_by_unit_l1(self, small_grid):
        # the weight sits below t, so the gauge never exceeds max(||f||_1, 1)
        from hardylog.grid import integrate
        rng = np.random.default_rng(17)
        for k in range(4):
            f = lib.gaussian(small_grid, rng.uniform(-4, 4),
                             rng.uniform(0.2, 2), rng.uniform(0.05, 20))
            bound = max(float(integrate(f.abs())), 1.0)
            assert luxemburg_norm(f).value <= bound * (1 + 1e-9)

    def test_rejects_log_growth(self, small_grid):
        with pytest.raises(NonIntegrableError):
            luxemburg_norm(lib.sign_step(small_grid))

    def test_step_cap(self, small_grid, monkeypatch):
        # a narrow unit bump has its gauge, 0.038, below max|f| = 1, which
        # it reaches in 13 steps; a lower cap stops it there, short of the
        # tolerance, and the report says by how much
        f = lib.gaussian(small_grid, width=0.05)
        assert luxemburg_norm(f).iterations == 13
        mags = np.abs(f.values)
        top = mags.max()
        for cap in (0, 1, 4):
            monkeypatch.setattr(spaces, "_GAUGE_STEPS", cap)
            rep = luxemburg_norm(f)
            missed = abs(rep.flags["integral"] - 1.0)
            assert rep.iterations == cap
            assert rep.flags["achieved_tolerance"] == missed > rep.tolerance
            if cap == 0:
                # no step below max|f|: the gauge is the first, M * phi(M)
                assert rep.value == top * weight_integral(
                    small_grid, mags, f.decay, THETA, top)

    def test_flags_are_final_integral(self, small_grid):
        # the closed form (phi(max|f|) >= 1, 0 steps) and two gauges below
        # max|f| report the integral at the gauge, within the tolerance,
        # and no other flag
        for f in (lib.gaussian(small_grid, 1.0, 2.0),
                  lib.gaussian(small_grid, width=0.05),
                  lib.gaussian_deriv(small_grid)):
            rep = luxemburg_norm(f)
            assert set(rep.flags) == {"integral"}
            assert rep.flags["integral"] == weight_integral(
                small_grid, np.abs(f.values), f.decay, THETA, rep.value)
            assert abs(rep.flags["integral"] - 1.0) <= rep.tolerance

    @pytest.mark.parametrize("nodes,integral", [(1, 0.03125), (40, 1.25)])
    def test_subnormal_rows_keep_their_max(self, nodes, integral):
        # 5e-324 on central nodes in |x| < 1 at dx = 1/32, 0 elsewhere: the
        # first step, M * phi(M), underflows to 0 on one node and rounds
        # back to M on 40, so the gauge keeps M, in 0 steps and with no
        # warning, and the report says how far phi(M) is from 1
        grid = make_grid(16, 1024)
        vals = np.zeros(grid.n)
        start = grid.n // 2 - nodes // 2
        vals[start:start + nodes] = 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = luxemburg_norm(SampledFunction(grid, vals, RAPID))
        assert (rep.value, rep.iterations) == (5e-324, 0)
        assert rep.flags == {"integral": integral,
                             "achieved_tolerance": abs(integral - 1.0)}


def _scalar_gauge(grid, mags, decay, tol=1e-8, steps=200):
    """The one-row gauge of theta, step by step: lam <- lam * phi(lam) from
    M = max|f| until |phi - 1| <= tol, a step that does not lower lam, a
    step that underflows to 0 (lam stays) or `steps` steps below M; value,
    iterations, final integral and every lam taken, M first."""
    def phi(lam):
        return weight_integral(grid, mags, decay, THETA, lam)

    path, its = [mags.max()], 0
    while True:
        lam = path[-1]
        val = phi(lam)
        step = lam * val
        if step > 0.0:
            path.append(step)
        if (abs(val - 1.0) <= tol or step >= lam or step == 0.0
                or its == steps):
            return path[-1], its, phi(path[-1]), path
        its += 1


_PROP_GRID = make_grid(16, 512)
_X = _PROP_GRID.nodes
# the unit indicator: phi(max|f|) = 1, the boundary of the closed form
_CHI = np.abs(lib.indicator(_PROP_GRID, -0.5, 0.5).values)
# 0.9(1 - x^2) on |x| < 1, where theta(x, t) = t: phi(max|f|) = 4/3, so
# the gauge is its L1 mass 1.2 in closed form
_CAP = 0.9 * np.maximum(1.0 - _X * _X, 0.0)
_bumps = st.lists(
    st.one_of(st.none(),
              st.tuples(st.floats(-3.0, 3.0), st.floats(-8.0, 8.0),
                        st.floats(0.05, 4.0))),
    min_size=2, max_size=12)
_decays = st.one_of(st.just(RAPID), st.floats(1.05, 4.0).map(power_decay))


def _rows(bumps):
    """Rows on _PROP_GRID from None (zeros), (log10 amplitude, center,
    width) for a Gaussian, or the samples themselves."""
    return np.array([np.zeros(_X.size) if b is None else
                     b if isinstance(b, np.ndarray) else
                     10.0 ** b[0] * np.exp(-((_X - b[1]) / b[2]) ** 2)
                     for b in bumps])


class TestBatchedGauge:
    """hlog_norm and _gauges solve all rows in one batch; each row must
    come out exactly as the one-row solver gives it."""

    @given(_bumps, _decays)
    @example([(3.0, 0.0, 0.05), (-3.0, 2.0, 0.05), None], RAPID)
    # tall narrow bumps: each gauge is below max|f|, so every step after
    # the first is in the log regime
    @example([(1.0, 0.0, 0.05), (1.0, 2.0, 0.05)], RAPID)
    @example([(1.0, 0.0, 0.05), (1.0, 2.0, 0.05)], power_decay(2.0))
    @example([(-300.0, 0.0, 1.0), (300.0, 0.0, 1.0)], RAPID)
    @example([(-300.0, 1.0, 0.5), (300.0, -1.0, 0.5)], power_decay(1.5))
    @example([_CHI, _CAP], RAPID)
    def test_rows_replay_one_row_solver(self, bumps, decay):
        mags = _rows(bumps)
        value, its = _gauges(_PROP_GRID, mags, decay)
        for k, row in enumerate(mags):
            rep = luxemburg_norm(SampledFunction(_PROP_GRID, row, decay))
            assert (value[k], its[k]) == (rep.value, rep.iterations)
            if not row.any():
                assert (rep.value, rep.iterations) == (0.0, 0)
                continue
            one, steps, integral, path = _scalar_gauge(_PROP_GRID, row, decay)
            assert (rep.value, rep.iterations, rep.flags["integral"]) == (
                one, steps, integral)
            if path[-1] >= path[0]:
                # the closed form: one step, which does not lower lam
                assert (len(path), steps) == (2, 0)
            else:
                # below max|f| every step lowers lam
                assert all(a > b for a, b in zip(path, path[1:]))

    @given(_bumps, _decays)
    @example([_CHI, _CAP, (3.0, 0.0, 0.05), (-3.0, 0.0, 3.0)],
             power_decay(1.05))
    def test_closed_form_above_the_max(self, bumps, decay):
        """A row with phi(M) >= 1 at M = max|f| has the gauge M * phi(M) in
        0 steps, where the integral is 1 to rounding; any other row has its
        gauge below M."""
        for row in _rows(bumps):
            if not row.any():
                continue
            top = row.max()
            at_top = weight_integral(_PROP_GRID, row, decay, THETA, top)
            rep = luxemburg_norm(SampledFunction(_PROP_GRID, row, decay))
            if at_top < 1.0:
                assert rep.value < top
                continue
            assert (rep.value, rep.iterations) == (top * at_top, 0)
            assert abs(rep.flags["integral"] - 1.0) <= 1e-14

    def test_subnormal_row_in_closed_form(self):
        # slices of a product that underflows: magnitudes of a few
        # subnormal steps, the tails flushed to 0
        row = 1e-320 * np.exp(-(_X / 4.0) ** 2)
        top = row.max()
        assert 0.0 < top < np.finfo(float).tiny
        at_top = weight_integral(_PROP_GRID, row, RAPID, THETA, top)
        assert at_top >= 1.0
        value, its = _gauges(_PROP_GRID, row[None, :], RAPID)
        assert (value[0], its[0]) == (top * at_top, 0)
        # no double near a subnormal gauge brings phi within 1e-8 of 1, and
        # the report says by how much it misses: 8.4e-6 here, 5.2e-3 on a
        # flat 5e-324 row, whose gauge reads 6.4e-323
        for mags in (row, np.full(_X.size, 5e-324)):
            rep = luxemburg_norm(SampledFunction(_PROP_GRID, mags, RAPID))
            missed = abs(rep.flags["integral"] - 1.0)
            assert rep.flags["achieved_tolerance"] == missed > rep.tolerance

    @pytest.fixture
    def stacked(self, small_grid):
        """48 levels with an all-zero slice and two equal largest slices."""
        fld = lib.field_inv_square(small_grid, make_ladder(0.1, 4.0, 48))
        vals = fld.values.copy()
        vals[7] = 0.0
        vals[20] = vals[30] = 3.0 * vals[0]
        return HalfPlaneField(fld.grid, fld.ladder, vals, fld.decay)

    def test_hlog_matches_slice_loop(self, stacked):
        reps = [luxemburg_norm(stacked.slice_at(k))
                for k in range(stacked.ladder.count)]
        best, best_y = -1.0, None
        for rep, y in zip(reps, stacked.ladder.levels):
            if rep.value > best:
                best, best_y = rep.value, y
        assert reps[7].value == 0.0 and reps[20].value == reps[30].value
        assert best_y == stacked.ladder.levels[20]
        rep = hlog_norm(stacked)
        assert rep.value == best
        assert rep.attaining_parameter == best_y
        assert rep.iterations == sum(r.iterations for r in reps)

    def test_hlog_evaluates_all_slices_per_step(self, stacked, monkeypatch):
        longest = max(luxemburg_norm(stacked.slice_at(k)).iterations
                      for k in range(stacked.ladder.count))
        calls = []
        quadrature = spaces.line_integral

        def counting(*args, **kwargs):
            calls.append(1)
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(spaces, "line_integral", counting)
        hlog_norm(stacked)
        assert len(calls) <= 1 + longest

    def test_hlog_certified_probes_skip_the_quadrature(self, stacked,
                                                       monkeypatch):
        # one batch at each slice's max|f|, where every slice of this field
        # has phi >= 1 and takes the closed form; hlog_norm reads no final
        # integral
        calls = []
        quadrature = spaces.line_integral

        def counting(*args, **kwargs):
            calls.append(1)
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(spaces, "line_integral", counting)
        hlog_norm(stacked)
        assert len(calls) == 1

    def test_one_quadrature_per_step_below_the_max(self, small_grid,
                                                   monkeypatch):
        # this tall narrow bump has phi(max|f|) < 1, so its gauge lies
        # below max|f|: one quadrature at max|f|, one at each of the 15
        # steps below it and one for the final integral
        f = lib.gaussian(small_grid, 1.0, 0.3, amplitude=4.0)
        calls = []
        quadrature = spaces.line_integral

        def counting(*args, **kwargs):
            calls.append(1)
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(spaces, "line_integral", counting)
        rep = luxemburg_norm(f)
        assert rep.iterations == 15 and len(calls) == 17
        assert (rep.value, rep.iterations, rep.flags["integral"]) == \
            _scalar_gauge(small_grid, np.abs(f.values), f.decay)[:3]

    def test_overflowing_modulus_is_precondition_error(self, small_grid):
        # finite parts whose modulus is inf: rejected up front, with no
        # warning
        vals = np.zeros(small_grid.n, dtype=complex)
        vals[small_grid.n // 2] = 1.5e308 + 1.5e308j
        fld = HalfPlaneField(small_grid, make_ladder(0.1, 4.0, 8),
                             np.tile(vals, (8, 1)), RAPID)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for norm in (lambda: luxemburg_norm(
                             SampledFunction(small_grid, vals, RAPID)),
                         lambda: hlog_norm(fld)):
                with pytest.raises(PreconditionError, match="overflows"):
                    norm()


class TestBmo:
    def test_constant_is_zero(self, small_grid):
        c = lib.constant(small_grid, 5.0 - 2.0j)
        assert bmo_norm(c).value == 0.0

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("c", [0.1, 1.0 / 3.0, 1e3])
    def test_constant_scores_rounding_noise(self, c, n):
        # window means are rounded prefix differences: 0.1 scores 2.3e-14
        # at n=4096, a quarter of the bound; 1e3 sums exactly and scores 0
        value = bmo_norm(lib.constant(make_grid(8, n), c)).value
        assert 0.0 <= value <= n * np.finfo(float).eps * abs(c)

    def test_sign_step(self, rig_grid):
        rep = bmo_norm(lib.sign_step(rig_grid))
        assert abs(rep.value - 1.0) <= 0.01
        # attaining window straddles the jump
        assert abs(rep.attaining_parameter["x0"]) <= 1.0

    def test_log_abs_in_range(self, rig_grid):
        rep = bmo_norm(lib.log_abs(rig_grid))
        assert 0.5 <= rep.value <= 2.0

    @pytest.mark.parametrize("name", ["sgn", "logabs", "chi_01"])
    def test_family_within_ten_percent_of_exhaustive(self, name):
        g = make_grid(16, 512)
        f = lib.named_function(name, g)
        fast = bmo_norm(f).value
        brute = bmo_bruteforce(f)
        assert fast <= brute + 1e-12
        assert brute - fast <= 0.10 * brute

    def test_random_mixture_against_exhaustive(self):
        g = make_grid(16, 512)
        for seed in range(3):
            f = lib.bmo_mixture(g, np.random.default_rng(seed))
            fast = bmo_norm(f).value
            brute = bmo_bruteforce(f)
            assert fast <= brute + 1e-12
            assert brute - fast <= 0.10 * brute

    def test_translation_invariance(self, rig_grid):
        mix = lib.bmo_mixture(rig_grid, np.random.default_rng(13))
        shifted = SampledFunction(
            rig_grid, mix.continuation(rig_grid.nodes - rig_grid.L / 4),
            mix.decay)
        v0 = bmo_norm(mix).value
        v1 = bmo_norm(shifted).value
        assert abs(v0 - v1) <= 0.05 * v0

    def test_complex_input(self, small_grid):
        f = lib.exp_osc(small_grid, 2.0)
        rep = bmo_norm(f)
        assert 0.0 < rep.value < 2.0


_BMO_GRID = make_grid(4, 256)
_seeds = st.integers(0, 2 ** 32 - 1)
# +-10**e: a factor that keeps the scaled samples clear of underflow
_factors = st.tuples(st.sampled_from([-1.0, 1.0]),
                     st.floats(-3.0, 3.0)).map(lambda t: t[0] * 10.0 ** t[1])


def _random_real(seed):
    """Seeded real samples on _BMO_GRID: Gaussian noise at a random scale."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=_BMO_GRID.n) * 10.0 ** rng.uniform(-3.0, 3.0)
    return SampledFunction(_BMO_GRID, vals, RAPID)


class TestBmoInvariances:
    """Laws of the mean-oscillation seminorm on real data, which any faster
    per-window scorer must keep."""

    @given(_seeds, st.floats(-1e3, 1e3))
    def test_constant_shift(self, seed, c):
        f = _random_real(seed)
        shifted = f.with_values(f.values + c)
        sup = float(np.max(np.abs(f.values)))
        assert abs(bmo_norm(shifted).value - bmo_norm(f).value) \
            <= 1e-12 * (sup + abs(c))

    @given(_seeds, _factors)
    def test_homogeneous(self, seed, a):
        f = _random_real(seed)
        scaled = f.with_values(a * f.values)
        sup = float(np.max(np.abs(f.values)))
        assert abs(bmo_norm(scaled).value - abs(a) * bmo_norm(f).value) \
            <= 1e-12 * abs(a) * sup

    @given(_seeds)
    def test_at_most_twice_the_sup(self, seed):
        f = _random_real(seed)
        assert bmo_norm(f).value <= 2.0 * float(np.max(np.abs(f.values)))


class TestBmoPlus:
    def test_zero(self, small_grid):
        z = SampledFunction(small_grid, np.zeros(small_grid.n), RAPID)
        assert bmo_plus_norm(z).value == 0.0

    def test_constant_one(self, small_grid):
        rep = bmo_plus_norm(lib.constant(small_grid, 1.0))
        assert abs(rep.value - 2.0) < 1e-12

    def test_sign_step(self, rig_grid):
        # the node at the jump carries sgn(0)=0, costing one dx of local mass
        rep = bmo_plus_norm(lib.sign_step(rig_grid))
        assert abs(rep.value - 3.0) <= 1.5 * rig_grid.dx


class TestHeightNorms:
    def test_hp_closed_form(self, rig_grid, rig_ladder):
        fld = lib.field_inv_square(rig_grid, rig_ladder)
        rep = hp_norm(fld)
        assert abs(rep.value - np.pi) <= 1e-2
        assert rep.attaining_parameter == rig_ladder.levels[0]

    def test_hp_zero_and_scaling(self, small_grid):
        lad = make_ladder(0.1, 4.0, 8)
        zero = sample_field(small_grid, lad, lambda z: 0.0 * z, RAPID)
        assert hp_norm(zero).value == 0.0
        fld = lib.field_inv_square(small_grid, lad)
        scaled = lib.field_inv_square(small_grid, lad, 1.0, 3.0)
        assert abs(hp_norm(scaled).value -
                   3.0 * hp_norm(fld).value) < 1e-10

    def test_hp_matches_slice_loop(self, small_grid):
        # the vectorised sweep equals whole-line quadrature slice by slice
        lad = make_ladder(0.1, 4.0, 8)
        fld = lib.field_inv_square(small_grid, lad, 0.7)
        per_slice = [integrate(SampledFunction(
            small_grid, np.abs(row), power_decay(2.0))) for row in fld.values]
        k = int(np.argmax(per_slice))
        rep = hp_norm(fld)
        assert rep.value == per_slice[k]
        assert rep.attaining_parameter == lad.levels[k]

    def test_hlog_rejects_non_integrable_field(self, small_grid):
        lad = make_ladder(0.1, 4.0, 8)
        fld = poisson_extend(lib.sign_step(small_grid), lad)
        with pytest.raises(NonIntegrableError, match="integrable decay"):
            hlog_norm(fld)

    def test_hlog_zero(self, small_grid):
        lad = make_ladder(0.1, 4.0, 8)
        zero = sample_field(small_grid, lad, lambda z: 0.0 * z, RAPID)
        assert hlog_norm(zero).value == 0.0

    def test_hlog_extension_of_indicator(self, rig_grid, conv_ladder):
        chi = lib.indicator(rig_grid, -0.5, 0.5)
        fld = poisson_extend(chi, conv_ladder)
        rep = hlog_norm(fld)
        assert rep.value <= 1.0 + 1e-6
        assert rep.attaining_parameter == conv_ladder.levels[0]

    def test_hlog_slices_decrease(self, rig_grid, conv_ladder):
        chi = lib.indicator(rig_grid, -0.5, 0.5)
        fld = poisson_extend(chi, conv_ladder)
        vals = [luxemburg_norm(fld.slice_at(k)).value for k in range(0, 48, 6)]
        assert np.all(np.diff(vals) <= 1e-8)

    def test_hlog_below_h1(self, rig_grid, rig_ladder):
        for name, fld in (
                ("inv_sq", lib.field_inv_square(rig_grid, rig_ladder)),
                ("pair", lib.field_cauchy_pair(rig_grid, rig_ladder))):
            ratio = hlog_norm(fld).value / hp_norm(fld).value
            assert ratio <= 3.0, name


class TestTentEnergies:
    def test_constant_field_zero(self, small_grid):
        lad = make_ladder(0.1, 40.0, 16)
        fld = lib.field_constant(small_grid, lad, 2.0)
        assert carleson_ratio(fld).value <= 1e-20
        assert bmoa_log_seminorm(fld).value <= 1e-20

    def test_bounded_oscillation_closed_form(self, rig_grid):
        lad = make_ladder(0.5 * rig_grid.dx, 2 * rig_grid.L, 48)
        fld = lib.field_exp_osc(rig_grid, lad, 1.0)
        a = lib.harmonic_freq(rig_grid, 1.0)
        rep = carleson_ratio(fld)
        # analytic sup over the same family: integral_0^r y e^{-2ay} dy
        best = max((1.0 - np.exp(-2 * a * r) * (1 + 2 * a * r)) / 4.0
                   for r in (c * rig_grid.dx / 2 for c in _window_counts(rig_grid)))
        assert abs(rep.value - best) <= 0.02 * best

    def test_log_weighted_closed_form(self, rig_grid):
        lad = make_ladder(0.5 * rig_grid.dx, 2 * rig_grid.L, 48)
        fld = lib.field_exp_osc(rig_grid, lad, 1.0)
        a = lib.harmonic_freq(rig_grid, 1.0)
        rep = bmoa_log_seminorm(fld)
        best = 0.0
        for count in _window_counts(rig_grid):
            r = count * rig_grid.dx / 2
            offs = rig_grid.n - count + 1
            x0_edge = abs(rig_grid.nodes[0] + (count - 1) * rig_grid.dx / 2)
            x0_edge = max(x0_edge,
                          abs(rig_grid.nodes[offs - 1] + (count - 1) * rig_grid.dx / 2))
            g_int = (1.0 - np.exp(-2 * a * r) * (1 + 2 * a * r)) / (4 * a * a)
            box = 2.0 * r * 2.0 * a * a * g_int
            best = max(best, box * (abs(np.log(r)) + np.log(E + x0_edge)) / r)
        assert abs(rep.value - best) <= 0.03 * best

    @pytest.mark.parametrize("name", ["sgn", "logabs"])
    def test_slope_of_poisson_extension(self, name):
        # d/dx P_y sgn = (2/pi) y/(x^2 + y^2) and d/dx P_y log|x| =
        # x/(x^2 + y^2), within 1% of each row's max on rows y >= 4dx
        # (2.6e-3 and 4.1e-3, at y = 4dx); the slices' ends differ, so a
        # derivative that wrapped the window would miss by orders of magnitude
        grid = make_grid(64, 1024)
        lad = make_ladder(4.0 * grid.dx, 2.0 * grid.L, 24)
        x, y = grid.nodes[None, :], lad.y[:, None]
        f0, exact = {"sgn": (lib.sign_step(grid),
                             2.0 / np.pi * y / (x * x + y * y)),
                     "logabs": (lib.log_abs(grid), x / (x * x + y * y))}[name]
        err = np.abs(spaces._slope(poisson_extend(f0, lad)) - exact)
        assert np.all(err.max(axis=1) <= 0.01 * np.abs(exact).max(axis=1))

    @pytest.mark.parametrize("snapped", [True, False])
    def test_slope_of_exp_osc(self, rig_grid, snapped):
        # d/dz e^{iaz} = ia e^{iaz} on the central half (3e-8 relative),
        # whether or not a is a harmonic of the window; the second-order end
        # columns within 1e-3 (3.3e-4)
        lad = make_ladder(0.5 * rig_grid.dx, 2 * rig_grid.L, 48)
        if snapped:
            a = lib.harmonic_freq(rig_grid, 1.0)
            fld = lib.field_exp_osc(rig_grid, lad, 1.0)
        else:
            a = 1.0
            fld = sample_field(rig_grid, lad, lambda z: np.exp(1j * z),
                               LOG_GROWTH)
        z = rig_grid.nodes[None, :] + 1j * lad.y[:, None]
        exact = 1j * a * np.exp(1j * a * z)
        rel = np.abs(spaces._slope(fld) - exact) / np.abs(exact)
        assert rel[:, rig_grid.n // 4:3 * rig_grid.n // 4].max() <= 1e-5
        assert rel[:, [0, 1, -2, -1]].max() <= 1e-3

    @pytest.mark.parametrize("name", ["p1", "sgn", "logabs"])
    def test_carleson_window_law(self, name):
        # at fixed dx = 1/32 the Carleson ratio of the Cauchy rows does not
        # depend on the window (spread 0.3%, 0.8% and 1.3% over L = 16, 32,
        # 64); a derivative that wrapped the window would add a jump at +-L
        # whose share grows with L
        lad = make_ladder(0.05, 1e3, 48)
        values = [carleson_ratio(holomorphic_extension(
            lib.named_function(name, grid), lad)).value
            for grid in (make_grid(L, 64 * L) for L in (16, 32, 64))]
        assert max(values) <= 1.02 * min(values)

    def test_quadratic_homogeneity(self, rig_grid):
        lad = make_ladder(0.5 * rig_grid.dx, 2 * rig_grid.L, 24)
        fld = lib.field_exp_osc(rig_grid, lad, 1.0)
        doubled = lib.field_constant(rig_grid, lad, 2.0)
        from hardylog.factor import product
        fld2 = product(fld, doubled)
        assert abs(carleson_ratio(fld2).value -
                   4.0 * carleson_ratio(fld).value) <= 1e-10
        assert abs(bmoa_log_seminorm(fld2).value -
                   4.0 * bmoa_log_seminorm(fld).value) <= 1e-9


def _scan(grid, scores):
    """Reference sweep: first-index argmax over offsets, counts in order."""
    best, best_iv, scanned = 0.0, None, 0
    for count in _window_counts(grid):
        s = scores(count)
        if s is None:
            continue
        scanned += s.size
        k = int(np.argmax(s))
        if s[k] > best:
            best = float(s[k])
            best_iv = {"x0": float(grid.nodes[k] + (count - 1) * grid.dx / 2),
                       "r": count * grid.dx / 2}
    return best, best_iv, scanned


def _oscillations(vals):
    prefix = np.concatenate((np.zeros(1, dtype=vals.dtype), np.cumsum(vals)))

    def scores(count):
        means = (prefix[count:] - prefix[:-count]) / count
        windows = np.lib.stride_tricks.sliding_window_view(vals, count)
        return np.abs(windows - means[:, None]).mean(axis=1)
    return scores


def _tent_scores(field, energy, ratio):
    grid, levels = field.grid, field.ladder.y
    prefix = np.concatenate(
        (np.zeros((levels.size, 1)), np.cumsum(energy, axis=1)), axis=1)

    def scores(count):
        r = count * grid.dx / 2
        w = _height_weights(levels, r)
        if w is None:
            return None
        boxes = (w @ (prefix[:w.size, count:] - prefix[:w.size, :-count])) \
            * grid.dx
        x0s = grid.nodes[:boxes.size] + (count - 1) * grid.dx / 2
        return ratio(boxes, x0s, r)
    return scores


def _as_tuple(rep):
    return rep.value, rep.attaining_parameter, rep.iterations


# Samples whose rounding stresses a pruned sweep: each maps (n, rng) to
# real or complex values.  On the constants the rounded window means leave
# scores near 1e-15, and those are the sup.
_ADVERSARIAL = {
    "const_0.1": lambda n, rng: np.full(n, 0.1),
    "const_third": lambda n, rng: np.full(n, 1.0 / 3.0),
    "zeros": lambda n, rng: np.zeros(n),
    "noise_1e-300": lambda n, rng: 1e-300 * rng.standard_normal(n),
    "noise_1e-310": lambda n, rng: 1e-310 * rng.standard_normal(n),
    "1e8_plus_noise": lambda n, rng: 1e8 + rng.standard_normal(n),
    "1e3_plus_ripple": lambda n, rng: 1e3 + 1e-12 * np.sin(np.arange(n)),
    "complex_1e6_offset": lambda n, rng: (1e6 + rng.standard_normal(n)
                                          + 1j * rng.standard_normal(n)),
    "period_16": lambda n, rng: np.where(np.arange(n) // 8 % 2 == 0, 1.0, -1.0),
    "random_signs": lambda n, rng: rng.choice([-1.0, 1.0], n),
    "step_plus_1e-10_noise": lambda n, rng: (
        np.where(np.arange(n) < n // 2, -1.0, 1.0)
        + 1e-10 * rng.standard_normal(n)),
    "mixture": lambda n, rng: lib.bmo_mixture(make_grid(8, n), rng).values,
}

# prefix or window sums of these overflow, so the sweep meets inf or NaN
# scores; a window that holds both 8e307 spikes has a finite bound on its
# mean deviation but a window sum above the float range
_OVERFLOWING = {
    "two_spikes_8e307": lambda n: np.where(
        np.isin(np.arange(n), [n // 3, n // 3 + 4]), 8e307, 0.0),
    "spike_1e308": lambda n: np.where(np.arange(n) == n // 3, 1e308, 0.0),
    "spike_-1e308": lambda n: np.where(np.arange(n) == n // 3, -1e308, 0.0),
    "spikes_pm_1e308": lambda n: np.where(
        np.arange(n) == n // 3, 1e308,
        np.where(np.arange(n) == n // 2, -1e308, 0.0)),
    "const_1e306": lambda n: np.full(n, 1e306),
    "noise_1e307": lambda n: 1e307 * np.random.default_rng(n)
    .standard_normal(n),
}


class TestSharedSweep:
    """Every interval-family norm reports the value, attaining {x0, r} and
    window count of one first-index sweep over _window_counts."""

    @pytest.fixture
    def grid(self):
        return make_grid(8, 256)

    def test_bmo_real_with_ties(self, grid):
        # a step of period 16 samples: windows 16 apart hold the same
        # samples, so the tie-breaking rule decides the attaining interval
        steps = np.where(np.arange(grid.n) // 8 % 2 == 0, 1.0, -1.0)
        f = SampledFunction(grid, steps, RAPID)
        assert _as_tuple(bmo_norm(f)) == _scan(grid, _oscillations(
            f.values.real))

    def test_bmo_real_random(self, grid):
        vals = np.random.default_rng(5).standard_normal(grid.n)
        f = SampledFunction(grid, vals, RAPID)
        assert _as_tuple(bmo_norm(f)) == _scan(grid, _oscillations(vals))

    def test_bmo_complex(self, grid):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        f = SampledFunction(grid, vals, RAPID)
        assert _as_tuple(bmo_norm(f)) == _scan(grid, _oscillations(f.values))

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
    def test_bmo_rounding_adversarial(self, name, n):
        grid = make_grid(8, n)
        f = SampledFunction(grid, _ADVERSARIAL[name](
            n, np.random.default_rng(n)), RAPID)
        vals = f.values.real if f.is_real else f.values
        assert _as_tuple(bmo_norm(f)) == _scan(grid, _oscillations(vals))

    def test_tent_norms(self, grid):
        lad = make_ladder(0.5 * grid.dx, 2.0 * grid.L, 16)
        for fld in (lib.field_exp_osc(grid, lad, 1.0),
                    lib.field_inv_square(grid, lad, 0.5)):
            d2 = np.abs(spaces._slope(fld)) ** 2
            energy = d2 * lad.y[:, None]
            assert _as_tuple(carleson_ratio(fld)) == _scan(grid, _tent_scores(
                fld, energy, lambda boxes, x0s, r: boxes / (2.0 * r)))
            energy = 2.0 * d2 * lad.y[:, None]
            assert _as_tuple(bmoa_log_seminorm(fld)) == _scan(
                grid, _tent_scores(fld, energy, lambda boxes, x0s, r: boxes * (
                    abs(np.log(r)) + np.log(E + np.abs(x0s))) / r))


class TestOscillationBounds:
    """The per-window bounds that let bmo_norm skip windows."""

    @pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
    def test_bound_every_computed_score(self, name):
        grid = make_grid(8, 256)
        f = SampledFunction(grid, _ADVERSARIAL[name](
            grid.n, np.random.default_rng(3)), RAPID)
        vals = f.values.real if f.is_real else f.values
        scores = _oscillations(vals)
        counts = _window_counts(grid)
        bounds = spaces._oscillation_bounds(vals, counts)
        for count in counts:
            assert np.all(bounds[count] >= scores(count))

    @pytest.mark.parametrize("name", sorted(_OVERFLOWING))
    def test_overflowing_windows_keep_unbounded_bounds(self, name):
        # a window whose score may be inf or NaN keeps an inf or NaN bound
        grid = make_grid(8, 256)
        vals = _OVERFLOWING[name](grid.n)
        with np.errstate(all="ignore"):
            scores = _oscillations(vals)
            for count, b in spaces._oscillation_bounds(
                    vals, _window_counts(grid)).items():
                s = scores(count)
                assert not np.any(np.isfinite(b) & ~np.isfinite(s))

    def test_few_windows_can_win_on_a_mixture(self):
        grid = make_grid(64, 4096)
        f = lib.bmo_mixture(grid, np.random.default_rng(0))
        sup = bmo_norm(f).value
        bounds = spaces._oscillation_bounds(f.values.real,
                                            _window_counts(grid))
        reach = sum(int(np.sum(b >= sup)) for b in bounds.values())
        total = sum(b.size for b in bounds.values())
        assert reach <= 0.05 * total


class TestWindowCounts:
    """The interval family's window counts, cached per grid."""

    @pytest.mark.parametrize("L,n", [(8.0, 16), (8.0, 256), (64.0, 1024),
                                     (3.0, 1024), (64.0, 4096)])
    def test_cached_equals_fresh(self, L, n):
        grid = make_grid(L, n)
        assert _window_counts(grid) == tuple(_window_counts.__wrapped__(grid))
        assert _window_counts(grid) is _window_counts(grid)

    def test_keyed_on_the_grid_not_on_n(self):
        # geomspace(dx, 2L)/dx rounds to different counts at L=8 and L=64
        narrow, wide = make_grid(8.0, 1024), make_grid(64.0, 1024)
        assert _window_counts(narrow) != _window_counts(wide)
        for grid in (narrow, wide):
            assert _window_counts(grid) == tuple(
                _window_counts.__wrapped__(grid))

    def test_same_n_other_L_is_a_new_entry(self):
        before = _window_counts.cache_info().currsize
        _window_counts(make_grid(5.25, 512))
        _window_counts(make_grid(5.75, 512))
        assert _window_counts.cache_info().currsize == before + 2

    def test_callers_cannot_mutate_the_cache(self):
        grid = make_grid(8.0, 256)
        counts = _window_counts(grid)
        assert isinstance(counts, tuple)
        with pytest.raises(AttributeError):
            counts.append(7)
        assert _window_counts(grid) == tuple(_window_counts.__wrapped__(grid))


@st.composite
def _bmo_cases(draw):
    """(grid, samples) with n = 16..1024: Gaussian noise, a seeded
    bmo_mixture or integer plateaus of one width (windows that tie), real
    or complex, at a scale 10**e for |e| <= 300."""
    n = draw(st.sampled_from([1024, 512, 256, 128, 64, 32, 16]))
    grid = make_grid(draw(st.sampled_from([1.0, 8.0, 64.0])), n)
    kind = draw(st.sampled_from(["noise", "mixture", "plateaus"]))
    rng = np.random.default_rng(draw(_seeds))
    if kind == "noise":
        vals = rng.standard_normal(n)
    elif kind == "mixture":
        vals = lib.bmo_mixture(grid, rng).values.real
    else:
        levels = rng.integers(-2, 3, size=draw(st.integers(1, 6)))
        width = draw(st.integers(1, n))
        vals = levels[np.arange(n) // width % levels.size].astype(float)
    if draw(st.booleans()):
        vals = vals + 1j * np.roll(vals, n // 3)
    return grid, vals * 10.0 ** draw(st.integers(-300, 300))


def _overflowing(name):
    return make_grid(8.0, 256), _OVERFLOWING[name](256)


class TestPrunedSweep:
    """bmo_norm against the exhaustive first-index sweep, and the pieces
    of its pruning."""

    @given(_bmo_cases(), st.just(False))
    @example(_overflowing("two_spikes_8e307"), True)
    @example(_overflowing("spike_1e308"), True)
    @example(_overflowing("spike_-1e308"), True)
    @example(_overflowing("spikes_pm_1e308"), True)
    @example(_overflowing("const_1e306"), True)
    @example(_overflowing("noise_1e307"), True)
    def test_equals_exhaustive_scan(self, case, overflows):
        grid, vals = case
        f = SampledFunction(grid, vals, RAPID)
        with np.errstate(all="ignore"):
            expected = _scan(grid, _oscillations(vals))
            assert np.isfinite(expected[0]) != overflows
            if overflows:
                with pytest.raises(PreconditionError,
                                   match="overflow float64"):
                    bmo_norm(f)
            else:
                assert _as_tuple(bmo_norm(f)) == expected

    @pytest.mark.parametrize("norm", [bmo_norm, bmo_plus_norm])
    @pytest.mark.parametrize("name", sorted(_OVERFLOWING))
    def test_overflow_is_named_without_warnings(self, name, norm):
        f = SampledFunction(*_overflowing(name), RAPID)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError,
                               match="window sums of the samples overflow "
                                     "float64"):
                norm(f)

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_single_window_score_is_the_batched_one(self, n, complex_):
        grid = make_grid(8.0, n)
        rng = np.random.default_rng(n)
        vals = lib.bmo_mixture(grid, rng).values.real
        if complex_:
            vals = vals + 1j * rng.standard_normal(n)
        prefix = spaces._prefix(vals)
        for count in _window_counts(grid):
            offsets = np.arange(n + 1 - count)
            batched = spaces._scores(vals, prefix, count, offsets)
            assert [spaces._scores(vals, prefix, count, np.array([k]))[0]
                    for k in offsets] == list(batched)

    @pytest.mark.parametrize("chunk", [7, 64])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_chunking_cannot_change_a_score(self, chunk, complex_,
                                            monkeypatch):
        # n = 1024 splits counts 512 and 513 at the default chunk too
        grid = make_grid(8.0, 1024)
        rng = np.random.default_rng(chunk)
        vals = lib.bmo_mixture(grid, rng).values.real
        if complex_:
            vals = vals + 1j * rng.standard_normal(grid.n)
        prefix = spaces._prefix(vals)
        cases = []
        for count in _window_counts(grid):
            every = np.arange(grid.n + 1 - count)
            cases += [(count, every),
                      (count, every[rng.random(every.size) < 0.3])]
        default = [spaces._scores(vals, prefix, c, k) for c, k in cases]
        monkeypatch.setattr(spaces, "_OSC_CHUNK", chunk)
        for (count, offsets), expected in zip(cases, default):
            assert spaces._scores(vals, prefix, count, offsets).tobytes() \
                == expected.tobytes()

    def test_each_window_is_scored_once(self, monkeypatch):
        # 1e3 + 1e-12 noise prunes nothing: every one of its 19332 windows
        # is scored, each count's highest-bound window once, not twice
        grid = make_grid(16.0, 1024)
        noise = np.random.default_rng(0).standard_normal(grid.n)
        f = SampledFunction(grid, 1e3 + 1e-12 * noise, RAPID)
        scored, scores = [], spaces._scores

        def counted(vals, prefix, count, offsets):
            scored.append(offsets.size)
            return scores(vals, prefix, count, offsets)

        expected = bmo_norm(f)
        monkeypatch.setattr(spaces, "_scores", counted)
        assert _as_tuple(bmo_norm(f)) == _as_tuple(expected)
        assert expected.iterations == sum(scored) == 19332

    def test_samples_are_not_written(self, small_grid):
        f = lib.bmo_mixture(small_grid, np.random.default_rng(3))
        before = f.values.copy()
        bmo_norm(f)
        assert f.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("name", ["mixture", "zeros"])
    def test_peak_memory_at_n4096(self, rig_grid, name):
        # zeros prune nothing, so every window of every count is scored
        f = (lib.bmo_mixture(rig_grid, np.random.default_rng(0))
             if name == "mixture"
             else SampledFunction(rig_grid, np.zeros(rig_grid.n), RAPID))
        _window_counts(rig_grid)    # the per-grid cache is not one sweep's
        tracemalloc.start()
        try:
            bmo_norm(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
