import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import max_abs
from hardylog import library as lib
from hardylog import hankel, transforms
from hardylog.cli import EXIT_OK, RunConfig, main
from hardylog.suites import suite_hankel
from hardylog.grid import (PreconditionError, SampledFunction, load_function,
                           make_grid, make_ladder, power_decay, save_function)
from hardylog.hankel import (boundedness_study, hankel_apply, hankel_form,
                             symbol_ladder, trial_pairs)
from hardylog.spaces import bmoa_log_seminorm, hp_norm
from hardylog.transforms import (holomorphic_extension, poisson_extend,
                                 szego_project)


@pytest.fixture(scope="module")
def pair_ladder(rig_grid):
    return make_ladder(0.5 * rig_grid.dx, 1.5, 8)


@pytest.fixture(scope="module")
def grid1024():
    return make_grid(64, 1024)


def boundary_f(grid, ladder):
    """Slice 0 of the Poisson extension of the projected odd bump: an H^1
    boundary value of the study's kind, unscaled (the study draws the bump's
    Cauchy row at dx/2 and scales it to unit H^1 norm)."""
    return poisson_extend(szego_project(lib.gaussian_deriv(grid)),
                          ladder).slice_at(0)



class TestHankelApply:
    def test_constant_symbol_annihilates_projected_mean_free(self, rig_grid):
        one = lib.constant(rig_grid, 1.0)
        f0 = szego_project(lib.gaussian_deriv(rig_grid))
        out = hankel_apply(one, f0)
        # P conj(P f) = (i/4)(HHf + f) for mean-free f: what is left is
        # H o H = -I on the 1/x^2 tail of Hf, which the power law fills
        # (TestHilbert's involution bound); 4.8e-9 of the max measured
        assert max_abs(out.values) <= 5e-8 * max_abs(f0.values)

    def test_zero_symbol(self, rig_grid):
        zero = lib.constant(rig_grid, 0.0)
        f0 = szego_project(lib.gaussian_deriv(rig_grid))
        assert max_abs(hankel_apply(zero, f0).values) == 0.0

    def test_antilinearity(self, rig_grid):
        b0 = lib.exp_osc(rig_grid, 1.0)
        f0 = szego_project(lib.gaussian_deriv(rig_grid))
        fi = f0.with_values(1j * f0.values)
        lhs = hankel_apply(b0, fi).values
        rhs = -1j * hankel_apply(b0, f0).values
        assert max_abs(lhs, rhs) <= 1e-12 * max_abs(rhs)

    def test_saved_bounded_symbol_is_accepted(self, tmp_path, rig_grid):
        path = tmp_path / "exp_ix.txt"
        save_function(lib.exp_osc(rig_grid, 1.0), path)
        hankel._check_symbol(load_function(path))

    def test_rejects_unbounded_symbol(self, rig_grid):
        la = lib.log_abs(rig_grid)
        f0 = szego_project(lib.gaussian_deriv(rig_grid))
        with pytest.raises(PreconditionError):
            hankel_apply(la, f0)

    def test_rejects_mismatched_grids(self, rig_grid, small_grid):
        with pytest.raises(PreconditionError, match="different grids"):
            hankel_apply(lib.constant(small_grid, 1.0),
                         lib.gaussian(rig_grid))

    def test_rejects_non_integrable_argument(self, rig_grid):
        b0 = lib.exp_osc(rig_grid, 1.0)
        with pytest.raises(PreconditionError):
            hankel_apply(b0, lib.sign_step(rig_grid))


class TestHankelForm:
    def test_zero_symbol(self, rig_grid, pair_ladder):
        zero = lib.constant(rig_grid, 0.0)
        f = boundary_f(rig_grid, pair_ladder)
        g = lib.field_constant(rig_grid, pair_ladder, 1.0).slice_at(0)
        assert hankel_form(zero, f, g) == 0.0

    def test_constant_against_mean_free(self, rig_grid, pair_ladder):
        one = lib.constant(rig_grid, 1.0)
        f = boundary_f(rig_grid, pair_ladder)
        g = lib.field_constant(rig_grid, pair_ladder, 1.0).slice_at(0)
        val = hankel_form(one, f, g)
        # f integrates to zero on the line, but the core trapezoid leaves out
        # the tail 1/(4 sqrt(pi) x^2) of its imaginary part Hf/2 beyond the
        # window; 1.6e-6 remains
        assert abs(val - 1j / (2.0 * np.sqrt(np.pi) * rig_grid.L)) <= 1e-5

    def test_matches_operator_pairing(self, rig_grid, pair_ladder):
        b0 = lib.exp_osc(rig_grid, 1.0)
        f = boundary_f(rig_grid, pair_ladder)
        g = poisson_extend(lib.bmo_mixture(rig_grid,
                                           np.random.default_rng(11)),
                           pair_ladder).slice_at(0)
        form = hankel_form(b0, f, g)
        applied = hankel_apply(b0, SampledFunction(rig_grid,
                                                   f.values * g.values,
                                                   power_decay(2.0)))
        # (p + iHp)/2 keeps half the mean of p, so twice the plain average
        # of the operator output reproduces the pairing, up to the 1/x^2
        # tail of Hp beyond the window; 4.8e-3 of |form| measured
        alt = 2.0 * rig_grid.L * np.mean(applied.values)
        assert abs(form - 2.0 * alt) <= 1e-2 * abs(form)

    def test_linear_in_symbol(self, rig_grid, pair_ladder):
        b1 = lib.exp_osc(rig_grid, 1.0)
        b2 = SampledFunction(rig_grid, 2.0 * b1.values, b1.decay,
                             continuation=None)
        f = boundary_f(rig_grid, pair_ladder)
        g = lib.field_blaschke(rig_grid, pair_ladder).slice_at(0)
        assert abs(hankel_form(b2, f, g) -
                   2.0 * hankel_form(b1, f, g)) <= 1e-12

    def test_rejects_grids_that_differ(self, rig_grid, grid1024):
        b0 = lib.exp_osc(rig_grid, 1.0)
        f = boundary_f(rig_grid, make_ladder(0.5 * rig_grid.dx, 1.5, 8))
        g = lib.constant(grid1024, 1.0)
        with pytest.raises(PreconditionError, match="different grids"):
            hankel_form(b0, f, g)

    def test_rejects_non_integrable_product(self, rig_grid):
        b0 = lib.exp_osc(rig_grid, 1.0)
        with pytest.raises(PreconditionError, match="not integrable"):
            hankel_form(b0, lib.sign_step(rig_grid), lib.constant(rig_grid, 1.0))


class TestTrialPairs:
    def test_extend_by_prefix(self, grid1024):
        head = trial_pairs(grid1024, 10, 41)[:3]
        alone = trial_pairs(grid1024, 3, 41)
        assert len(alone) == 3
        for (f1, g1, p1), (f2, g2, p2) in zip(head, alone):
            assert np.array_equal(f1.values, f2.values)
            assert np.array_equal(g1.values, g2.values)
            assert f1.decay == f2.decay and g1.decay == g2.decay
            assert p1 == p2

    def test_g0_is_lowest_slice_of_pair_extension(self, grid1024):
        # each pair is bit for bit its definition over the 8-level pair
        # ladder: f0 the lowest Cauchy row of the bump's extension, scaled to
        # unit H^1 norm, whose sup sits at that lowest row; g0 the lowest
        # row of the mixture's Poisson extension
        for grid in (grid1024, make_grid(16, 256)):
            lad = make_ladder(0.5 * grid.dx, 1.5, 8)
            rng = np.random.default_rng(41)
            for f0, g0, _ in trial_pairs(grid, 3, 41):
                center = rng.uniform(-grid.L / 4, grid.L / 4)
                width = rng.uniform(0.5, 4.0)
                field = holomorphic_extension(
                    lib.gaussian_deriv(grid, center, width), lad)
                norm = hp_norm(field)
                assert norm.attaining_parameter == lad.levels[0]
                assert np.array_equal(f0.values,
                                      field.values[0] * (1.0 / norm.value))
                assert f0.decay == field.decay
                mixture = lib.bmo_mixture(grid, rng)
                full = poisson_extend(mixture, lad)
                assert np.array_equal(g0.values, full.values[0])

    def test_suite_draws_each_pair_once(self, monkeypatch):
        calls = []
        original = hankel.bmo_plus_norm

        def counting(f0):
            calls.append(1)
            return original(f0)

        monkeypatch.setattr(hankel, "bmo_plus_norm", counting)
        suite_hankel(RunConfig(grid_n=1024))
        assert len(calls) == 50

    def test_builds_each_height_table_once(self, grid1024, monkeypatch):
        # each draw reads one Cauchy row at dx/2 (W = 3L) and no other; the
        # mixtures' terms extend in closed form, with no table: per draw one
        # geometry and one height table, freed with the call
        geometries, heights = [], []
        build_geometry = transforms._geometry
        build_height = transforms._height_table

        def geometry(grid, factor, v_max):
            geometries.append((factor, v_max))
            return build_geometry(grid, factor, v_max)

        def height(g, grid, y, cauchy):
            heights.append((g.span // grid.n, y, cauchy))   # span = factor*n
            return build_height(g, grid, y, cauchy)
        monkeypatch.setattr(transforms, "_geometry", geometry)
        monkeypatch.setattr(transforms, "_height_table", height)
        trial_pairs(grid1024, 10, 41)
        assert heights == [(3, 0.5 * grid1024.dx, True)] * 10
        assert geometries == [(3, 1e8)] * 10


class TestStudy:
    def test_deterministic(self, rig_grid):
        b0 = lib.exp_osc(rig_grid, 1.0)
        s1 = boundedness_study(b0, trial_pairs(rig_grid, 3, 77))
        s2 = boundedness_study(b0, trial_pairs(rig_grid, 3, 77))
        assert s1 == s2

    def test_symbol_doubling_doubles_forms(self, rig_grid):
        # doubling is exact in floating point, so the form doubles and the
        # quadratic tent seminorm quadruples to rounding
        b1 = lib.exp_osc(rig_grid, 1.0)
        b2 = SampledFunction(rig_grid, 2.0 * b1.values, b1.decay,
                             tail=tuple(replace(t, coef=2.0 * t.coef)
                                        for t in b1.tail))
        pairs = trial_pairs(rig_grid, 3, 5)
        s1 = boundedness_study(b1, pairs)
        s2 = boundedness_study(b2, pairs)
        assert abs(s2["max_form"] - 2.0 * s1["max_form"]) <= 1e-12
        assert abs(s2["seminorm"] / (4.0 * s1["seminorm"]) - 1.0) <= 1e-12

    def test_constant_symbol_degenerate(self, rig_grid):
        study = boundedness_study(lib.constant(rig_grid, 2.0),
                                  trial_pairs(rig_grid, 2, 9))
        assert study["degenerate"] is True
        assert study["max_ratio"] is None
        assert study["max_form"] > 0.0

    def test_needs_a_trial(self, rig_grid):
        with pytest.raises(PreconditionError, match="at least one trial"):
            boundedness_study(lib.exp_osc(rig_grid, 1.0), [])

    def test_conjugate_pair_reads_one_seminorm(self):
        # the study reads the Cauchy rows, and q1's are -i times p1's: one
        # seminorm, 0.0161869 at L=16, n=1024, where P_y read 0.0303 for p1
        # and 0.0358 for q1
        grid = make_grid(16, 1024)
        pairs = trial_pairs(grid, 1, 3)
        p1, q1 = (boundedness_study(lib.named_function(name, grid),
                                    pairs)["seminorm"]
                  for name in ("p1", "q1"))
        assert abs(q1 / p1 - 1.0) <= 5e-10
        assert abs(p1 - 0.0161869) <= 1e-7

    @pytest.mark.parametrize("freq", [0.5, 1.0, 2.0])
    def test_extended_symbol_seminorm(self, freq):
        # the study extends boundary symbols by their Cauchy rows; its tent
        # seminorm must match the closed-form field exp(i*a*z)
        grid = make_grid(64, 1024)
        lad = symbol_ladder(grid)
        extended = bmoa_log_seminorm(
            holomorphic_extension(lib.exp_osc(grid, freq), lad)).value
        exact = bmoa_log_seminorm(lib.field_exp_osc(grid, lad, freq)).value
        assert abs(extended / exact - 1.0) <= 0.01


class TestSuiteStudy:
    """verify --suite hankel runs the study of hankel --function exp_ix."""

    SMALL = ["--grid-L", "16", "--grid-n", "1024", "--seed", "3"]

    def test_suite_equals_command(self, tmp_path):
        rows, summary = suite_hankel(RunConfig(grid_l=16.0, grid_n=1024,
                                               y_min=0.1, seed=3))
        rc = main(self.SMALL + ["--y-min", "0.1", "--out", str(tmp_path),
                                "hankel", "--function", "exp_ix",
                                "--trials", "50"])
        assert rc == EXIT_OK
        rep = json.loads((tmp_path / "hankel_study.json").read_text())
        # in memory: the CSV rounds to 12 digits
        assert summary["seminorm"] == rep["seminorm"]
        assert summary["max_ratio"] == rep["ratio"]
        trials = rows[1:]
        assert len(trials) == len(rep["rows"]) == 50
        for (case, form, _, ratio), r in zip(trials, rep["rows"]):
            assert case == f"trial{r['trial']}"
            assert (form, ratio) == (r["form"], r["ratio"])

    def test_reports_do_not_depend_on_the_ladder(self, tmp_path):
        reports = []
        for y_min in ("1e-3", "0.1"):
            out = tmp_path / y_min
            rc = main(self.SMALL + ["--y-min", y_min, "--out", str(out),
                                    "verify", "--suite", "hankel"])
            assert rc == EXIT_OK
            summary = json.loads((out / "verify_hankel.json").read_text())
            reports.append(((out / "verify_hankel.csv").read_bytes(),
                            summary.pop("config_hash"), summary))
        (csv_lo, hash_lo, json_lo), (csv_hi, hash_hi, json_hi) = reports
        assert csv_lo == csv_hi
        assert json_lo == json_hi
        assert hash_lo != hash_hi
