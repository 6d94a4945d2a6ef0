import numpy as np
import pytest
from hypothesis import settings, strategies as st

from hardylog.grid import Term, make_grid, make_ladder

# Property tests draw the same examples on every run, so Tier-1 stays
# reproducible; numpy-heavy examples have no per-example deadline.
settings.register_profile("hardylog", derandomize=True, deadline=None)
settings.load_profile("hardylog")


_coef, _shift = st.floats(-1e3, 1e3), st.floats(-8.0, 8.0)
_freq = st.floats(-5.0, 5.0)
# every kind of declared term, with finite numbers on a window |s| <= 8
terms = st.one_of(
    st.builds(lambda re, im, w: Term("exp", complex(re, im), w=w),
              _coef, _coef, _freq),
    st.builds(lambda a, w: Term("cos", a, w=w), _coef, _freq),
    st.builds(lambda a, s, w: Term("atan", a, s=s, w=w), _coef, _shift,
              st.floats(0.0, 5.0)),
    st.builds(lambda a, s, w: Term("log", a, s=s, w=w), _coef, _shift,
              st.floats(0.0, 5.0)),
    st.builds(lambda re, im: Term("const", complex(re, im)), _coef, _coef))
term_lists = st.lists(terms, min_size=1, max_size=4).map(tuple)


@pytest.fixture(scope="session")
def rig_grid():
    """Default verification rig grid."""
    return make_grid(64, 4096)


@pytest.fixture(scope="session")
def rig_ladder():
    """Default rig ladder (for fields sampled from closed forms)."""
    return make_ladder(1e-3, 1e3, 48)


@pytest.fixture(scope="session")
def conv_ladder(rig_grid):
    """The rig ladder started at dx/2, half a sample spacing, in place of
    1e-3."""
    return make_ladder(0.5 * rig_grid.dx, 1e3, 48)


@pytest.fixture(scope="session")
def small_grid():
    return make_grid(16, 512)


def rel_l2(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def max_abs(a, b=None):
    a = np.asarray(a)
    if b is not None:
        a = a - np.asarray(b)
    return float(np.max(np.abs(a)))
