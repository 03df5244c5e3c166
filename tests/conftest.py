import math

import numpy as np
import pytest

from lcsdyn import (
    finite_permutation_system,
    rotation_system,
    strict_rotation_system,
)
from lcsdyn.core import eval_factor


@pytest.fixture
def cycle3():
    # 0 -> 1 -> 2 -> 0 with h = [1, 2, 3]
    return finite_permutation_system([1, 2, 0], [1, 2, 3])


@pytest.fixture
def swap_pair():
    # (0 <-> 1)(2) with h = [0, 4, 1]: cycle means 2 and 1
    return finite_permutation_system([1, 0, 2], [0, 4, 1])


@pytest.fixture
def const_rotation():
    return rotation_system(0.5, 0.2, grid_resolution=256)


@pytest.fixture
def golden_cos():
    return rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]},
                           grid_resolution=128)


@pytest.fixture
def golden_strict():
    return strict_rotation_system("golden", {"type": "trig", "sin": [[1, 1.0]]},
                                  grid_resolution=512)


def random_permutation_system(rng, max_states=64, h_low=-10, h_high=10):
    m = int(rng.integers(1, max_states + 1))
    table = rng.permutation(m).tolist()
    h = [int(v) for v in rng.integers(h_low, h_high + 1, size=m)]
    return finite_permutation_system(table, h)


def cycle_pairs(dec):
    """A ``CycleDecomposition``'s cycles as (state tuple, mean) pairs, in
    walk order."""
    return [(tuple(cyc.tolist()), mean) for cyc, mean in zip(dec.slices(), dec.means)]


def scalar_map(sys, inverse=False):
    """psi of ``sys`` (psi^{-1} with ``inverse``) on one point, read from
    ``sys.map_kind`` with plain Python arithmetic: the tests' oracle for
    orbit walks, independent of ``core.step_points``."""
    mk = sys.map_kind
    if mk["kind"] == "rotation":
        a = -mk["angle"] if inverse else mk["angle"]

        def rotate(x):
            y = float(x) + a
            return y - math.floor(y)

        return rotate
    if mk["kind"] == "linear2":
        (a, b), (c, d) = mk["inverse" if inverse else "matrix"]

        def linear(p):
            u, v = float(p[0]), float(p[1])
            x, y = a * u + b * v, c * u + d * v
            return np.array([x - math.floor(x), y - math.floor(y)])

        return linear
    assert mk["kind"] == "permutation"
    table = [int(v) for v in mk["inverse" if inverse else "table"]]
    return lambda i: table[int(i)]


def scalar_factor(sys):
    """h of ``sys`` on one point: a finite table's entry (exact where the
    table is), else ``eval_factor`` on a batch of one point."""
    if sys.factor_table is not None:
        return lambda i: sys.factor_table[int(i)]
    return lambda x: float(eval_factor(sys, np.asarray([x]))[0])
