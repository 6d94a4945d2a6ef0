import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import max_abs, term_lists
from hardylog import library as lib
from hardylog.grid import (BOUNDED, DecayClass, HalfPlaneField, HeightLadder,
                           LOG_GROWTH, NonIntegrableError, PreconditionError,
                           RAPID, SampledFunction, Term, frozen, integrate,
                           integrate_window, load_function, make_grid,
                           make_ladder, power_decay, product_decay,
                           sample_field, save_function, tail_extension,
                           tail_values)
from hardylog.transforms import poisson_extend


class TestMakeGrid:
    def test_spacing_small(self):
        g = make_grid(1, 16)
        assert g.dx == 0.125

    def test_spacing_rig(self):
        g = make_grid(64, 4096)
        assert g.dx == 0.03125

    def test_nodes_symmetric_up_to_one_sample(self):
        g = make_grid(4, 64)
        assert g.nodes[0] == -4.0
        assert g.nodes[-1] == 4.0 - g.dx
        assert np.allclose(g.nodes[1:] + g.nodes[:0:-1], 0.0)

    @pytest.mark.parametrize("x", [-4.5, 4.0, 100.0])
    def test_index_of_outside_window(self, x):
        g = make_grid(4, 64)
        assert (g.index_of(-4.0), g.index_of(0.0)) == (0, 32)
        with pytest.raises(PreconditionError, match="outside grid window"):
            g.index_of(x)

    @pytest.mark.parametrize("L,n", [(1, 15), (1, 12), (0, 16), (-2, 16), (1, 8),
                                     (np.inf, 16), (1e308, 16)])
    def test_rejects_bad_parameters(self, L, n):
        with pytest.raises(PreconditionError):
            make_grid(L, n)


class TestDecayClass:
    def test_power_requires_p_above_one(self):
        with pytest.raises(PreconditionError):
            power_decay(1.0)
        with pytest.raises(PreconditionError):
            power_decay(0.5)

    def test_parse_round_trip(self):
        for d in (RAPID, power_decay(2.5), LOG_GROWTH):
            assert DecayClass.parse(str(d)) == d

    def test_unknown_tag(self):
        with pytest.raises(PreconditionError):
            DecayClass("fast")

    def test_decaying_tag_takes_no_exponent(self):
        with pytest.raises(PreconditionError, match="takes no exponent"):
            DecayClass("rapid", 2.0)

    @pytest.mark.parametrize("text", ["power:inf", "power:nan", "power:-inf"])
    def test_power_requires_finite_p(self, text):
        # an infinite exponent would drop the tail mass from every integral
        with pytest.raises(PreconditionError):
            DecayClass.parse(text)

    def test_decaying_classes_are_bounded(self):
        assert DecayClass("rapid", bounded=False) == RAPID
        assert RAPID.bounded and power_decay(1.5).bounded
        assert not LOG_GROWTH.bounded and BOUNDED.bounded

    def test_bounded_keeps_the_log_growth_tag(self):
        # every non-decaying class takes the direct Poisson path by its tag
        assert BOUNDED.tag == "log_growth" and not BOUNDED.integrable
        assert (str(BOUNDED), str(LOG_GROWTH)) == ("log_growth:bounded",
                                                   "log_growth")
        assert DecayClass.parse("log_growth:bounded") == BOUNDED
        with pytest.raises(PreconditionError):
            DecayClass.parse("rapid:bounded")

    @pytest.mark.parametrize("a,b,expected", [
        (RAPID, LOG_GROWTH, RAPID),
        (BOUNDED, RAPID, RAPID),
        (power_decay(2.0), power_decay(1.5), power_decay(3.5)),
        (power_decay(2.0), LOG_GROWTH, power_decay(2.0)),
        (BOUNDED, power_decay(1.5), power_decay(1.5)),
        (BOUNDED, BOUNDED, BOUNDED),
        (BOUNDED, LOG_GROWTH, LOG_GROWTH),
        (LOG_GROWTH, BOUNDED, LOG_GROWTH),
        (LOG_GROWTH, LOG_GROWTH, LOG_GROWTH),
    ])
    def test_product_rule(self, a, b, expected):
        assert product_decay(a, b) == expected


class TestSampledFunction:
    def test_length_mismatch(self, small_grid):
        with pytest.raises(PreconditionError):
            SampledFunction(small_grid, np.zeros(7), RAPID)

    def test_rejects_nonfinite(self, small_grid):
        vals = np.zeros(small_grid.n)
        vals[3] = np.nan
        with pytest.raises(PreconditionError):
            SampledFunction(small_grid, vals, RAPID)
        vals[3] = np.inf
        with pytest.raises(PreconditionError):
            SampledFunction(small_grid, vals, RAPID)

    @given(st.integers(0, 15), st.sampled_from([np.nan, np.inf, -np.inf]),
           st.booleans())
    def test_rejects_nonfinite_anywhere(self, k, bad, imag):
        vals = np.zeros(16, dtype=complex)
        vals[k] = complex(0.0, bad) if imag else bad
        with pytest.raises(PreconditionError):
            SampledFunction(make_grid(4, 16), vals, RAPID)

    def test_values_immutable(self, small_grid):
        f = SampledFunction(small_grid, np.zeros(small_grid.n), RAPID)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_tail_and_continuation_are_exclusive(self, small_grid):
        with pytest.raises(PreconditionError, match="own continuation"):
            SampledFunction(small_grid, np.ones(small_grid.n), BOUNDED,
                            tail=(Term("const", 1.0),),
                            continuation=np.ones_like)

    def test_bounded_inferred(self, small_grid):
        f = SampledFunction(small_grid, np.zeros(small_grid.n), RAPID)
        assert f.decay.bounded is True
        h = SampledFunction(small_grid, np.zeros(small_grid.n), LOG_GROWTH)
        assert h.decay.bounded is False


class TestIntegrate:
    def test_indicator_mass(self):
        g = make_grid(4, 1024)
        chi = lib.indicator(g, -0.5, 0.5)
        assert abs(integrate(chi) - 1.0) <= g.dx

    def test_lorentzian_with_tail(self):
        g = make_grid(64, 4096)
        f = SampledFunction(g, 1.0 / (1.0 + g.nodes ** 2), power_decay(2.0))
        assert abs(integrate(f) - np.pi) <= 1e-3

    def test_zero(self, small_grid):
        f = SampledFunction(small_grid, np.zeros(small_grid.n), RAPID)
        assert integrate(f) == 0.0

    def test_rejects_log_growth(self, small_grid):
        f = lib.sign_step(small_grid)
        with pytest.raises(NonIntegrableError):
            integrate(f)

    def test_linearity(self, small_grid):
        rng = np.random.default_rng(5)
        u = rng.normal(size=small_grid.n)
        v = rng.normal(size=small_grid.n)
        fu = SampledFunction(small_grid, u, RAPID)
        fv = SampledFunction(small_grid, v, RAPID)
        fw = SampledFunction(small_grid, 2.0 * u - 3.0 * v, RAPID)
        lhs = integrate(fw)
        rhs = 2.0 * integrate(fu) - 3.0 * integrate(fv)
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)

    def test_monotone_in_magnitude(self, small_grid):
        rng = np.random.default_rng(6)
        u = np.abs(rng.normal(size=small_grid.n))
        f = SampledFunction(small_grid, u, RAPID)
        f2 = SampledFunction(small_grid, u + 0.5, RAPID)
        assert integrate(f2) >= integrate(f) >= 0.0

    def test_refinement_within_trapezoid_bound(self):
        vals = {}
        for n in (2048, 4096):
            g = make_grid(64, n)
            f = SampledFunction(g, 1.0 / (1.0 + g.nodes ** 2), power_decay(2.0))
            vals[n] = integrate(f)
        g = make_grid(64, 8192)
        x = g.nodes
        second = np.gradient(np.gradient(1.0 / (1.0 + x ** 2), x), x)
        bound = (make_grid(64, 2048).dx ** 2 / 12.0) * np.trapezoid(np.abs(second), x)
        assert abs(vals[4096] - vals[2048]) <= 4.0 * bound

    def test_complex_values(self, small_grid):
        f = SampledFunction(small_grid,
                            (1.0 + 2.0j) * np.exp(-small_grid.nodes ** 2), RAPID)
        out = integrate(f)
        assert isinstance(out, complex)
        assert abs(out - (1.0 + 2.0j) * np.sqrt(np.pi)) < 1e-6


class TestIntegrateWindow:
    def test_constant_on_unit_window(self):
        g = make_grid(1, 16)
        val = integrate_window(g, np.ones(g.n), -1.0, 1.0)
        assert abs(val - 2.0) < 1e-12

    def test_aligned_indicator(self):
        g = make_grid(16, 512)
        chi = lib.indicator(g, -1.0, 1.0)
        val = integrate_window(g, np.abs(chi.values), -1.0, 1.0)
        assert abs(val - 2.0) <= 2 * g.dx

    def test_empty_window_rejected(self, small_grid):
        with pytest.raises(PreconditionError):
            integrate_window(small_grid, np.ones(small_grid.n), 1.0, 1.0)


class TestHeightLadder:
    def test_make_ladder_geometric(self):
        lad = make_ladder(1e-3, 1e3, 48)
        assert lad.count == 48
        ratios = np.diff(np.log(lad.y))
        assert np.allclose(ratios, ratios[0])

    @pytest.mark.parametrize("levels", [
        (0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95),          # y_max < 1
        (0.0, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 1.5),           # y_min 0
        (0.1, 0.2, 0.3, 0.3, 0.7, 0.8, 0.9, 1.5),           # not increasing
        (0.1, 0.2, 1.5),                                     # too few
    ])
    def test_invariants(self, levels):
        with pytest.raises(PreconditionError):
            HeightLadder(tuple(levels))

    @pytest.mark.parametrize("k", [0, 4, 7])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_level_is_rejected(self, k, bad):
        levels = list(make_ladder(0.1, 10.0, 8).levels)
        levels[k] = bad
        with pytest.raises(PreconditionError, match="finite"):
            HeightLadder(tuple(levels))

    @pytest.mark.parametrize("y_max", [np.inf, np.nan])
    def test_make_ladder_rejects_nonfinite_top(self, y_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError):
                make_ladder(1e-3, y_max, 48)


class TestHalfPlaneField:
    def test_shape_validation(self, small_grid):
        lad = make_ladder(0.1, 10.0, 8)
        with pytest.raises(PreconditionError):
            HalfPlaneField(small_grid, lad, np.zeros((3, small_grid.n)), RAPID)

    @given(st.integers(0, 8 * 16 - 1),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans())
    def test_rejects_nonfinite_anywhere(self, k, bad, imag):
        vals = np.zeros(8 * 16, dtype=complex)
        vals[k] = complex(0.0, bad) if imag else bad
        with pytest.raises(PreconditionError):
            HalfPlaneField(make_grid(4, 16), make_ladder(0.1, 10.0, 8),
                           vals.reshape(8, 16), RAPID)

    @pytest.mark.parametrize("fn", [
        lambda z: 0.7 / (z + 1.3j) ** 2, lambda z: np.exp(0.9j * z),
        lambda z: (z - 1j) / (z + 1j), lambda z: np.log(z + 1j)])
    def test_sample_field_is_the_closed_form_row_by_row(self, small_grid, fn):
        # one height at a time gives the whole-grid evaluation bit for bit
        lad = make_ladder(0.1, 10.0, 8)
        fld = sample_field(small_grid, lad, fn)
        z = small_grid.nodes[None, :] + 1j * lad.y[:, None]
        assert fld.values.tobytes() == fn(z).astype(complex).tobytes()
        assert not fld.values.flags.writeable

    def test_slice_round_trip(self, small_grid):
        lad = make_ladder(0.1, 10.0, 8)
        vals = np.random.default_rng(0).normal(size=(8, small_grid.n))
        fld = HalfPlaneField(small_grid, lad, vals, RAPID)
        assert np.allclose(fld.slice_at(3).values.real, vals[3])


def _field_or_function(shape):
    grid, ladder = make_grid(4, 16), make_ladder(0.1, 10.0, 8)
    if shape == "field":
        return (8, 16), lambda v: HalfPlaneField(grid, ladder, v, RAPID)
    return (16,), lambda v: SampledFunction(grid, v, RAPID)


@pytest.mark.parametrize("shape", ["field", "function"])
class TestOwnership:
    """A field or function copies a caller's writeable array and takes over
    a frozen one that owns its data; its values are read-only either way."""

    def test_writeable_array_is_copied(self, shape):
        size, make = _field_or_function(shape)
        vals = np.ones(size, dtype=complex)
        obj = make(vals)
        vals[...] = 2.0
        assert not np.shares_memory(obj.values, vals)
        assert np.all(obj.values == 1.0)
        assert not obj.values.flags.writeable

    def test_frozen_owner_is_taken_over(self, shape):
        size, make = _field_or_function(shape)
        vals = frozen(np.ones(size, dtype=complex))
        obj = make(vals)
        assert obj.values is vals
        assert np.shares_memory(obj.values, vals)
        assert not obj.values.flags.writeable

    def test_frozen_view_is_copied(self, shape):
        # a read-only view of a writeable buffer could still change
        size, make = _field_or_function(shape)
        base = np.ones((2,) + size, dtype=complex)
        obj = make(frozen(base[0]))
        base[...] = 2.0
        assert np.all(obj.values == 1.0)
        assert not obj.values.flags.writeable


class TestConjugate:
    """Term.conjugate: terms whose samples are H of the term and whose P_y
    is its Q_y."""

    _u = np.linspace(-12.0, 12.0, 97)
    _x, _y = np.linspace(-12.0, 12.0, 49), np.geomspace(0.5, 50.0, 7)[:, None]

    @staticmethod
    def _twice(t):
        return tuple(c for d in t.conjugate() for c in d.conjugate())

    @given(term_lists)
    def test_twice_negates_all_but_constants(self, tail):
        # H o H = -I term by term, with no constant added: a constant (exp
        # and cos at w = 0 included) conjugates to zero
        for t in tail:
            flat = t.kind == "const" or (t.kind in ("exp", "cos")
                                         and t.w == 0.0)
            for got, own in (
                    (tail_values(self._twice(t), self._u, 0.1),
                     t.at(self._u, 0.1)),
                    (tail_extension(self._twice(t), self._x, self._y),
                     t.extend(self._x, self._y))):
                target = 0.0 * own if flat else -own
                assert max_abs(got, target) <= \
                    1e-14 * max(abs(t.coef), max_abs(own))

    @given(term_lists)
    def test_cauchy_riemann(self, tail):
        # P_y of the term plus i P_y of its conjugate terms is holomorphic
        # in x + iy: central differences at step h meet dF/dy = i dF/dx to
        # their truncation error, h^2/6 times the third derivative, on
        # heights y >= 1/2
        h = 1e-4
        for t in tail:
            def field(x, y):
                return t.extend(x, y) + 1j * tail_extension(t.conjugate(),
                                                            x, y)
            x, y = self._x, self._y
            d_y = field(x, y + h) - field(x, y - h)
            d_x = field(x + h, y) - field(x - h, y)
            assert max_abs(d_y, 1j * d_x) / (2 * h) <= \
                1e-6 * abs(t.coef) * max(1.0, abs(t.w)) ** 3


class TestSerialization:
    def test_round_trip(self, tmp_path, small_grid):
        rng = np.random.default_rng(9)
        f = SampledFunction(small_grid,
                            rng.normal(size=small_grid.n) +
                            1j * rng.normal(size=small_grid.n),
                            power_decay(2.0))
        path = tmp_path / "f.txt"
        save_function(f, path)
        h = load_function(path)
        assert h.grid == f.grid
        assert h.decay == f.decay
        assert np.array_equal(h.values, f.values)

    @given(st.floats(1e-6, 1e6),
           st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                    min_size=16, max_size=16),
           st.one_of(st.just(RAPID), st.just(LOG_GROWTH), st.just(BOUNDED),
                     st.floats(1.0, 1e6, exclude_min=True).map(power_decay)))
    def test_round_trip_is_bit_exact(self, L, values, decay):
        f = SampledFunction(make_grid(L, 16), values, decay)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            save_function(f, path)
            h = load_function(path)
        assert (h.grid, h.decay) == (f.grid, f.decay)
        assert h.values.tobytes() == f.values.tobytes()

    @given(term_lists, st.booleans(), st.sampled_from([BOUNDED, LOG_GROWTH]))
    def test_declared_round_trip(self, tail, bump, decay):
        # the terms survive with their samples and their P_y rows; a bump on
        # top leaves a rest for the line rule
        grid = make_grid(8, 64)
        f = SampledFunction.declared(grid, tail, decay)
        if bump:
            f = SampledFunction(grid, f.values + lib.gaussian(grid).values,
                                decay, tail=tail)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            save_function(f, path)
            h = load_function(path)
        assert (h.grid, h.decay, h.tail) == (f.grid, f.decay, f.tail)
        assert h.values.tobytes() == f.values.tobytes()
        assert all(Term.parse(str(t)) == t for t in tail)
        lad = make_ladder(0.5 * grid.dx, 100.0, 8)
        assert np.array_equal(poisson_extend(h, lad).values,
                              poisson_extend(f, lad).values)

    @pytest.mark.parametrize("kind, coef, w, s", [
        ("sin", 1.0, 1.0, 0.0), ("exp", complex(1.0, np.inf), 1.0, 0.0),
        ("cos", 1.0, np.nan, 0.0), ("cos", 1j, 1.0, 0.0),
        ("atan", 1.0, -0.5, 0.0), ("log", 1.0, -1.0, 0.0),
        ("const", 1.0, 0.0, 2.0)])
    def test_term_rejects_what_it_cannot_extend(self, kind, coef, w, s):
        # unknown kinds, non-finite numbers, a complex a, negative widths
        # and numbers a kind does not take
        with pytest.raises(PreconditionError):
            Term(kind, coef, w=w, s=s)

    def test_rows_are_the_per_sample_format(self, tmp_path):
        # signed zero, subnormals, huge and tiny magnitudes, a power of two
        # past 2^53 and a repeating fraction, real and imaginary
        edge = np.array([-0.0, 5e-324, -5e-324, 1e306, -1e-300, 2.0 ** 60,
                         1.0 / 3.0])
        grid = make_grid(2.0, 16)
        values = np.resize(edge, 16) + 1j * np.resize(-edge[::-1], 16)
        for f in (SampledFunction(grid, values.real, RAPID),
                  SampledFunction(grid, values, power_decay(2.0))):
            path = tmp_path / "f.txt"
            save_function(f, path)
            body = path.read_text().split("\n", 1)[1]
            assert body == "".join(f"{x:.17g} {v.real:.17g} {v.imag:.17g}\n"
                                   for x, v in zip(grid.nodes, f.values))

    def test_bounded_header(self, tmp_path, small_grid):
        path = tmp_path / "sgn.txt"
        save_function(lib.sign_step(small_grid), path)
        head, body = path.read_text().split("\n", 1)
        assert "decay=log_growth:bounded" in head.split()
        assert load_function(path).decay == BOUNDED
        # a plain log_growth header states no bound
        path.write_text(head.replace(":bounded", "") + "\n" + body)
        assert load_function(path).decay == LOG_GROWTH

    def test_failed_rename_leaves_no_file(self, tmp_path, small_grid,
                                          monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        f = SampledFunction(small_grid, np.zeros(small_grid.n), RAPID)
        with pytest.raises(OSError, match="rename refused"):
            save_function(f, tmp_path / "f.txt")
        assert not list(tmp_path.iterdir())

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("not a header\n0 0 0\n")
        with pytest.raises(PreconditionError):
            load_function(p)

    def test_truncated_body(self, tmp_path, small_grid):
        f = SampledFunction(small_grid, np.zeros(small_grid.n), RAPID)
        p = tmp_path / "f.txt"
        save_function(f, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:100]) + "\n")
        with pytest.raises(PreconditionError):
            load_function(p)
