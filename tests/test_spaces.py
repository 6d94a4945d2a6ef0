import numpy as np
import pytest

from hardylog import library as lib
from hardylog.grid import (NonIntegrableError, PreconditionError, RAPID,
                           SampledFunction, integrate, make_grid, make_ladder,
                           power_decay, sample_field)
from hardylog.oracles import bmo_bruteforce, luxemburg_scan
from hardylog.spaces import (BracketError, MusielakWeight, NormReport, THETA,
                             THETA0, THETA1, bmo_norm, bmo_plus_norm,
                             bmoa_log_seminorm, carleson_ratio, hlog_norm,
                             hp_norm, luxemburg_norm, spectral_derivative,
                             weight_eval, _height_weights, _window_counts)
from hardylog.transforms import poisson_extend

E = float(np.e)


class TestWeights:
    def test_theta_pinned_values(self):
        assert weight_eval(THETA, 0.0, 1.0) == 1.0
        assert abs(weight_eval(THETA, E, E ** 2) - E ** 2 / 3.0) < 1e-14
        # theta0(0,2) = 4/(1 + 0.5*log 4)
        assert abs(weight_eval(THETA0, 0.0, 2.0) -
                   4.0 / (1.0 + 0.5 * np.log(4.0))) < 1e-14

    def test_theta1_is_square(self):
        x, t = 2.7, 5.1
        assert abs(weight_eval(THETA1, x, t) -
                   weight_eval(THETA, x, t) ** 2) < 1e-14

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

    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            MusielakWeight("theta2")

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

    def test_doubled_indicator_quadratic_weight(self, rig_grid):
        chi = lib.indicator(rig_grid, -0.5, 0.5)
        f = SampledFunction(rig_grid, 2.0 * chi.values, RAPID)
        rep = luxemburg_norm(f, THETA1)
        assert 1.9 < rep.value < 2.2
        scan = luxemburg_scan(f, THETA1)
        assert abs(rep.value - scan) / scan <= 1e-5

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

    def test_bracket_exhaustion(self, small_grid):
        f = lib.gaussian(small_grid, amplitude=100.0)
        with pytest.raises(BracketError):
            luxemburg_norm(f, max_doublings=0)


class TestBmo:
    def test_constant_is_zero(self, small_grid):
        c = lib.constant(small_grid, 5.0 - 2.0j)
        assert bmo_norm(c).value == 0.0

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
            mix.decay, bounded=True)
        v0 = bmo_norm(mix).value
        v1 = bmo_norm(shifted).value
        assert abs(v0 - v1) <= 0.05 * v0

    def test_complex_input(self, small_grid):
        f = lib.exp_osc(small_grid, 2.0)
        rep = bmo_norm(f)
        assert 0.0 < rep.value < 2.0


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
        rep = hp_norm(fld, 1.0)
        assert abs(rep.value - np.pi) <= 1e-2
        assert rep.attaining_parameter == rig_ladder.levels[0]

    def test_hp_zero_and_scaling(self, small_grid):
        lad = make_ladder(0.1, 4.0, 8)
        zero = sample_field(small_grid, lad, lambda z: 0.0 * z, RAPID)
        assert hp_norm(zero, 1.0).value == 0.0
        fld = lib.field_inv_square(small_grid, lad)
        scaled = lib.field_inv_square(small_grid, lad, 1.0, 3.0)
        assert abs(hp_norm(scaled, 1.0).value -
                   3.0 * hp_norm(fld, 1.0).value) < 1e-10

    def test_hp_matches_slice_loop(self, small_grid):
        # the vectorised sweep equals whole-line quadrature slice by slice
        lad = make_ladder(0.1, 4.0, 8)
        fld = lib.field_inv_square(small_grid, lad, 0.7)
        for p in (1.0, 1.5):
            per_slice = [integrate(SampledFunction(
                small_grid, np.abs(row) ** p, power_decay(2.0 * p)))
                for row in fld.values]
            k = int(np.argmax(per_slice))
            rep = hp_norm(fld, p)
            assert rep.value == per_slice[k] ** (1.0 / p)
            assert rep.attaining_parameter == lad.levels[k]

    def test_hp_rejects_bad_exponent(self, small_grid):
        lad = make_ladder(0.1, 4.0, 8)
        fld = lib.field_inv_square(small_grid, lad)
        with pytest.raises(PreconditionError):
            hp_norm(fld, 0.0)
        with pytest.raises(NonIntegrableError):
            hp_norm(fld, 0.4)      # tail exponent 0.8 <= 1

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
            ratio = hlog_norm(fld).value / hp_norm(fld, 1.0).value
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

    def test_tent_norms(self, grid):
        lad = make_ladder(0.5 * grid.dx, 2.0 * grid.L, 16)
        for fld in (lib.field_exp_osc(grid, lad, 1.0),
                    lib.field_inv_square(grid, lad, 0.5)):
            d2 = np.abs(spectral_derivative(fld)) ** 2
            energy = d2 * lad.y[:, None]
            assert _as_tuple(carleson_ratio(fld)) == _scan(grid, _tent_scores(
                fld, energy, lambda boxes, x0s, r: boxes / (2.0 * r)))
            energy = 2.0 * d2 * lad.y[:, None]
            assert _as_tuple(bmoa_log_seminorm(fld)) == _scan(
                grid, _tent_scores(fld, energy, lambda boxes, x0s, r: boxes * (
                    abs(np.log(r)) + np.log(E + np.abs(x0s))) / r))
