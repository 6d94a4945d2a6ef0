import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import max_abs
from hardylog import library as lib
from hardylog import maximal
from hardylog.grid import (HalfPlaneField, RAPID, SampledFunction, make_grid,
                           make_ladder, power_decay, sample_field)
from hardylog.maximal import max_interval_average, nontangential_max
from hardylog.transforms import poisson_extend


def brute_max_average(values):
    """All sample-aligned windows, O(n^2) with prefix sums."""
    a = np.abs(values)
    n = a.size
    pref = np.concatenate(([0.0], np.cumsum(a)))
    out = np.zeros(n)
    for lo in range(n):
        for hi in range(lo, n):
            avg = (pref[hi + 1] - pref[lo]) / (hi + 1 - lo)
            out[lo:hi + 1] = np.maximum(out[lo:hi + 1], avg)
    return out


def brute_power_of_two_average(values):
    """Every power-of-two window at every offset, O(n^2)."""
    a = np.abs(values)
    n = a.size
    pref = np.concatenate(([0.0], np.cumsum(a)))
    out = a.copy()
    size = 2
    while size <= n:
        for lo in range(n - size + 1):
            avg = (pref[lo + size] - pref[lo]) / size
            out[lo:lo + size] = np.maximum(out[lo:lo + size], avg)
        size *= 2
    return out


def brute_window_max(a, before, after):
    padded = np.concatenate((np.full(before, -np.inf), a,
                             np.full(after, -np.inf)))
    windows = np.lib.stride_tricks.sliding_window_view(padded,
                                                       before + after + 1)
    return windows.max(axis=-1)


class TestWindowMax:
    @pytest.mark.parametrize("centred", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7, 1024])
    def test_matches_sliding_window_scan(self, n, centred):
        # sizes past n: windows wider than the data see only -inf beyond it
        a = np.random.default_rng(n).normal(size=n)
        for size in range(1, n + 3):
            before, after = ((size // 2, (size - 1) // 2) if centred
                             else (size - 1, 0))
            got = maximal._window_max(a, before, after)
            assert got.tobytes() == brute_window_max(a, before,
                                                     after).tobytes()


class TestHlMaximal:
    def test_indicator_far_point(self):
        g = make_grid(4, 256)
        chi = lib.indicator(g, 0.0, 1.0)
        m = max_interval_average(chi.values)
        assert abs(m[g.index_of(2.0)] - 0.5) <= 2 * g.dx

    def test_indicator_inside(self):
        g = make_grid(4, 256)
        chi = lib.indicator(g, 0.0, 1.0)
        m = max_interval_average(chi.values)
        assert m[g.index_of(0.5)] == 1.0

    def test_constant(self, small_grid):
        c = lib.constant(small_grid, 2.0)
        m = max_interval_average(c.values)
        assert max_abs(m, 2.0) < 1e-14

    def test_dominates_input(self, small_grid):
        rng = np.random.default_rng(2)
        f = SampledFunction(small_grid, rng.normal(size=small_grid.n),
                            lib.RAPID)
        m = max_interval_average(f.values)
        assert np.all(m >= np.abs(f.values) - 1e-15)

    def test_sublinear_exactly(self, small_grid):
        rng = np.random.default_rng(3)
        u = rng.normal(size=small_grid.n)
        v = rng.normal(size=small_grid.n)
        msum = max_interval_average(u + v)
        assert np.all(msum <= max_interval_average(u) +
                      max_interval_average(v) + 1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bracketed_by_all_interval_scan(self, seed):
        g = make_grid(1, 64)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=g.n)
        fast = max_interval_average(v)
        brute = brute_max_average(v)
        assert np.all(fast <= brute + 1e-12)
        assert np.all(brute <= 2.0 * fast + 1e-12)

    @pytest.mark.parametrize("n", [64, 100])
    def test_equals_power_of_two_window_scan(self, n):
        v = np.random.default_rng(n).normal(size=n)
        assert (max_interval_average(v).tobytes()
                == brute_power_of_two_average(v).tobytes())


def _random_field(seed, log_y0, count, log_scale):
    """Complex Gaussian samples of scale 10^log_scale on an L=4, n=128 grid
    under the ladder from 10^log_y0 to 4."""
    rng = np.random.default_rng(seed)
    g = make_grid(4, 128)
    lad = make_ladder(10.0 ** log_y0, 4.0, count)
    vals = 10.0 ** log_scale * (rng.normal(size=(count, g.n)) +
                                1j * rng.normal(size=(count, g.n)))
    return HalfPlaneField(g, lad, vals, RAPID)


_fields = st.tuples(st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 0.0),
                    st.integers(8, 16), st.floats(-100.0, 100.0))


class TestNontangentialMax:
    @given(_fields, st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0))
    def test_sublinear(self, spec, seed, log_ratio):
        # N(F+G) <= N(F) + N(G) up to the rounding of |F+G| and of the sum:
        # the excess measured 0 over 2000 seeded draws; the bound is 4 eps
        f = _random_field(*spec)
        g = _random_field(seed, spec[1], spec[2], spec[3] + log_ratio)
        both = HalfPlaneField(f.grid, f.ladder, f.values + g.values, RAPID)
        nf, ng, nfg = (nontangential_max(h).values.real for h in (f, g, both))
        assert np.all(nfg <= (nf + ng) * (1.0 + 4.0 * np.finfo(float).eps))

    @given(_fields)
    def test_dominates_every_slice(self, spec):
        # every cone holds its own apex at every height, and the max does
        # not round: the lowest slice (and each other) is below N(F) exactly
        fld = _random_field(*spec)
        star = nontangential_max(fld).values.real
        assert np.all(np.abs(fld.values) <= star)

    def test_constant_field(self, small_grid):
        lad = make_ladder(0.1, 10.0, 8)
        fld = lib.field_constant(small_grid, lad, -3.0 + 4.0j)
        star = nontangential_max(fld)
        assert max_abs(star.values.real, 5.0) < 1e-12

    def test_peak_of_extension(self, rig_grid):
        p1 = lib.poisson_bump(rig_grid)
        lad = make_ladder(0.5 * rig_grid.dx, 8.0, 24)
        fld = poisson_extend(p1, lad)
        star = nontangential_max(fld)
        peak = star.values.real[rig_grid.index_of(0.0)]
        assert abs(peak - 1.0 / np.pi) <= 0.025 / np.pi

    def test_dominates_lowest_slice(self, small_grid):
        lad = make_ladder(0.05, 4.0, 12)
        fld = sample_field(small_grid, lad,
                           lambda z: 1.0 / (z + 1j), power_decay(2.0))
        star = nontangential_max(fld)
        assert np.all(star.values.real >= np.abs(fld.values[0]) - 1e-14)

    def test_matches_brute_cone_scan(self):
        g = make_grid(2, 64)
        lad = make_ladder(0.05, 2.0, 9)
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(9, g.n)) + 1j * rng.normal(size=(9, g.n))
        fld = HalfPlaneField(g, lad, vals, RAPID)
        star = nontangential_max(fld)
        mags = np.abs(vals)
        for j in (0, 7, 31, 40, 63):
            apex = g.nodes[j]
            best = -np.inf
            for k, y in enumerate(lad.levels):
                for i in range(g.n):
                    # aperture-one cone over the whole ladder
                    if abs(g.nodes[i] - apex) < y:
                        best = max(best, mags[k, i])
            assert abs(star.values.real[j] - best) < 1e-14

    def test_cone_wider_than_window(self, rig_grid):
        # only the y=1000 row is nonzero; its cone half-width of 32000
        # samples covers all 4096 nodes from every apex
        lad = make_ladder(0.5 * rig_grid.dx, 1000.0, 8)
        vals = np.zeros((lad.count, rig_grid.n), dtype=np.complex128)
        vals[-1] = np.random.default_rng(9).normal(size=rig_grid.n)
        star = nontangential_max(HalfPlaneField(rig_grid, lad, vals, RAPID))
        assert np.all(star.values.real == np.abs(vals[-1]).max())
