import numpy as np
import pytest
from hypothesis import settings

from hardylog.grid import make_grid, make_ladder

# Property tests draw the same examples on every run, so Tier-1 stays
# reproducible; numpy-heavy examples have no per-example deadline.
settings.register_profile("hardylog", derandomize=True, deadline=None)
settings.load_profile("hardylog")


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
