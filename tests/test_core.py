import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsdyn import (
    BudgetError,
    DomainError,
    ValidationError,
    builtin_system,
    cat_map_system,
    finite_permutation_system,
    iterate,
    rotation_system,
)
from lcsdyn.core import (
    ModelSpace,
    eval_factor,
    eval_factor_like,
    orbit_factors,
    step_points,
)


def test_iterate_cycle(cycle3):
    assert iterate(cycle3, 0, 2) == 2
    assert iterate(cycle3, 0, 3) == 0
    assert iterate(cycle3, 0, -1) == 2


def test_iterate_rotation():
    sys = rotation_system(0.5, 0.0)
    assert iterate(sys, 0.25, 1) == pytest.approx(0.75)
    assert iterate(sys, 0.75, 1) == pytest.approx(0.25)


def test_iterate_identity_case(cycle3, const_rotation):
    assert iterate(cycle3, 1, 0) == 1
    assert iterate(const_rotation, 0.3, 0) == pytest.approx(0.3)


def test_iterate_budget():
    sys = rotation_system(0.1, 0.0)
    with pytest.raises(BudgetError):
        iterate(sys, 0.0, 11, max_iterations=10)


def test_domain_errors(cycle3):
    with pytest.raises(DomainError):
        iterate(cycle3, 5, 1)
    with pytest.raises(DomainError):
        iterate(cycle3, 0.5, 1)
    sys = cat_map_system(0.0)
    with pytest.raises(DomainError):
        iterate(sys, (0.1, 0.2, 0.3), 1)


def test_builtin_rotation():
    sys = builtin_system("rotation", {"angle": 0.5, "factor": 0.2})
    assert sys.factor(0.3) == pytest.approx(0.2)
    assert sys.forward(0.25) == pytest.approx(0.75)


def test_builtin_permutation_valid():
    sys = builtin_system("finite_permutation", {"table": [1, 2, 0], "factor": [1, 2, 3]})
    assert sys.exact
    assert sys.factor(2) == Fraction(3)


def test_builtin_permutation_not_bijective():
    with pytest.raises(ValidationError):
        builtin_system("finite_permutation", {"table": [0, 0, 1], "factor": [1, 1, 1]})


def test_builtin_unknown_name():
    with pytest.raises(ValidationError):
        builtin_system("horseshoe", {})


def test_space_validation():
    with pytest.raises(ValidationError):
        ModelSpace("circle", grid_resolution=1)
    with pytest.raises(ValidationError):
        ModelSpace("finite", size=0)
    with pytest.raises(ValidationError):
        ModelSpace("pretzel")


def test_cat_map_exact_inverse():
    sys = cat_map_system(0.0)
    p = np.array([0.3, 0.7])
    q = iterate(sys, p, 5)
    back = iterate(sys, q, -5)
    assert np.allclose(back, p, atol=1e-9)
    img = iterate(sys, (0.5, 0.25), 1)
    assert np.allclose(img, [0.25, 0.75])


def test_cat_map_bad_matrix():
    with pytest.raises(ValidationError):
        cat_map_system(0.0, matrix=((2, 0), (0, 2)))


@given(angle=st.floats(-2, 2, allow_nan=False), x=st.floats(0, 1, exclude_max=True),
       n=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_rotation_inverse_property(angle, x, n):
    sys = rotation_system(angle, 0.0)
    y = iterate(sys, iterate(sys, x, n), -n)
    d = abs(y - x)
    assert min(d, 1 - d) < 1e-9


@given(st.integers(1, 12), st.integers(0, 30), st.integers(-30, 30), st.integers(0, 2**20))
@settings(max_examples=60, deadline=None)
def test_finite_composition_property(m, a, b, seed):
    rng = np.random.default_rng(seed)
    table = rng.permutation(m).tolist()
    sys = finite_permutation_system(table, list(range(m)))
    x = int(rng.integers(0, m))
    assert iterate(sys, x, a + b) == iterate(sys, iterate(sys, x, a), b)


def test_sample_spec_grid_plus_seeds(golden_cos):
    pts = golden_cos.space.sample_points({"grid": 8, "seeds": [0.123, 0.456]})
    assert len(pts) == 10
    assert pts[-1] == pytest.approx(0.456)


def test_step_points_matches_scalar(golden_cos):
    pts = golden_cos.space.sample_points(17)
    stepped = step_points(golden_cos, pts)
    for p, q in zip(pts, stepped):
        assert golden_cos.forward(float(p)) == pytest.approx(float(q))


def test_eval_factor_matches_scalar(golden_cos, cycle3):
    pts = golden_cos.space.sample_points(11)
    vals = eval_factor(golden_cos, pts)
    assert vals == pytest.approx([golden_cos.factor(float(p)) for p in pts])
    fin_vals = eval_factor(cycle3, cycle3.space.sample_points())
    assert list(fin_vals) == [1.0, 2.0, 3.0]


def test_strict_rotation_stores_generating_f(golden_strict):
    assert golden_strict.generating_f is not None
    x = 0.21
    f = golden_strict.generating_f
    expect = f(x) - f(golden_strict.forward(x))
    assert golden_strict.factor(x) == pytest.approx(expect)


def _scalar_orbit_rows(sys, pts, n, sign=1):
    """Independent oracle: h(psi^{sign i} p) by scalar iteration."""
    return [[sys.factor(iterate(sys, p, sign * i)) for p in pts] for i in range(n)]


def test_orbit_factors_rotation_matches_scalar_walk(golden_cos):
    pts = golden_cos.space.sample_points(16)
    H = orbit_factors(golden_cos, pts, 30)
    assert H.shape == (30, 16)
    np.testing.assert_allclose(H, _scalar_orbit_rows(golden_cos, pts, 30),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("inverse", [False, True])
def test_orbit_factors_cat_map_matches_scalar_walk(inverse):
    sys = cat_map_system({"type": "trig2", "terms": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]},
                         grid_resolution=16)
    pts = sys.space.sample_points()
    assert pts.shape == (256, 2)
    H = orbit_factors(sys, pts, 12, inverse=inverse)
    expect = _scalar_orbit_rows(sys, pts, 12, sign=-1 if inverse else 1)
    np.testing.assert_allclose(H, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("inverse", [False, True])
def test_orbit_factors_exact_permutation(inverse):
    rng = np.random.default_rng(5)
    table = rng.permutation(9).tolist()
    vals = [Fraction(int(p), int(q)) for p, q in
            zip(rng.integers(-5, 6, size=9), rng.integers(1, 7, size=9))]
    sys = finite_permutation_system(table, vals)
    assert sys.exact
    pts = sys.space.sample_points()
    rows = orbit_factors(sys, pts, 20, inverse=inverse)
    assert rows == _scalar_orbit_rows(sys, pts, 20, sign=-1 if inverse else 1)
    assert all(isinstance(v, Fraction) for row in rows for v in row)


def test_eval_factor_scalar_only_callable(cycle3):
    # math.cos and list indexing raise TypeError on arrays: the per-point
    # fallback runs
    sys = rotation_system(0.25, math.cos, grid_resolution=32)
    pts = sys.space.sample_points(9)
    assert list(eval_factor(sys, pts)) == [math.cos(float(p)) for p in pts]
    fin = replace(cycle3, factor=lambda i: [Fraction(1, 2), 2, 3][i])
    assert list(eval_factor(fin, fin.space.sample_points())) == [0.5, 2.0, 3.0]


def test_eval_factor_array_error_propagates(golden_cos):
    def factor(x):
        if np.ndim(x):
            raise RuntimeError("broken array path")
        return math.cos(x)

    sys = replace(golden_cos, factor=factor)
    pts = sys.space.sample_points(8)
    with pytest.raises(RuntimeError, match="broken array path"):
        eval_factor(sys, pts)
    with pytest.raises(RuntimeError, match="broken array path"):
        eval_factor_like(factor, pts)
