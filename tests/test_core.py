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
    cat_map_system,
    coboundary_system,
    finite_permutation_system,
    iterate,
    rotation_system,
    strict_rotation_system,
)
from lcsdyn.core import (
    ModelSpace,
    eval_factor,
    eval_factor_like,
    orbit_array,
    orbit_rows,
    step_points,
)
from lcsdyn.cli import system_from_config

from conftest import scalar_factor, scalar_map


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


def _permutation_decl(table, values):
    return {"space": {"kind": "finite"}, "map": {"type": "permutation", "table": table},
            "factor": {"type": "table", "values": values}}


def test_builtin_rotation():
    sys = system_from_config({"space": {"kind": "circle"},
                              "map": {"type": "rotation", "angle": 0.5}, "factor": 0.2})
    assert scalar_factor(sys)(0.3) == pytest.approx(0.2)
    assert scalar_map(sys)(0.25) == pytest.approx(0.75)
    assert step_points(sys, np.array([0.25])).tolist() == [0.75]


def test_builtin_permutation_valid():
    sys = system_from_config(_permutation_decl([1, 2, 0], [1, 2, 3]))
    assert sys.exact
    assert sys.factor_table[2] == Fraction(3)


def test_permutation_is_two_read_only_int64_tables(cycle3):
    # map_kind is the only record of psi; perm_table reads it
    mk = cycle3.map_kind
    assert mk["kind"] == "permutation" and cycle3.perm_table is mk["table"]
    assert mk["table"].tolist() == [1, 2, 0] and mk["inverse"].tolist() == [2, 0, 1]
    for tbl in (mk["table"], mk["inverse"]):
        assert tbl.dtype == np.int64
        with pytest.raises(ValueError):
            tbl[0] = 0
    assert step_points(cycle3, np.array([0, 1, 2]), inverse=True).tolist() == [2, 0, 1]
    assert not hasattr(cycle3, "forward") and not hasattr(cycle3, "backward")


def test_builtin_permutation_not_bijective():
    with pytest.raises(ValidationError, match="not a bijection"):
        system_from_config(_permutation_decl([0, 0, 1], [1, 1, 1]))


def test_builtin_unknown_name():
    with pytest.raises(ValidationError, match="unknown space kind"):
        system_from_config({"space": {"kind": "horseshoe"}, "map": {}, "factor": 0.0})


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
        assert scalar_map(golden_cos)(float(p)) == float(q)


def test_eval_factor_matches_scalar(golden_cos, cycle3):
    pts = golden_cos.space.sample_points(11)
    vals = eval_factor(golden_cos, pts)
    assert vals == pytest.approx([scalar_factor(golden_cos)(float(p)) for p in pts])
    fin_vals = eval_factor(cycle3, cycle3.space.sample_points())
    assert list(fin_vals) == [1.0, 2.0, 3.0]


def test_coboundary_system_on_a_table_is_an_exact_table(cycle3):
    # h = [1, 2, 3] on 0 -> 1 -> 2 -> 0: h + f - f o psi with f = [1/2, -1, 1/3]
    f = [Fraction(1, 2), Fraction(-1), Fraction(1, 3)]
    shifted = coboundary_system(cycle3, lambda i: f[i])
    want = [Fraction(h) + f[i] - f[(i + 1) % 3] for i, h in enumerate([1, 2, 3])]
    assert list(shifted.factor_table) == want == [Fraction(5, 2), Fraction(2, 3), Fraction(17, 6)]
    assert shifted.exact and all(type(v) is Fraction for v in shifted.factor_table)
    assert shifted.map_kind is cycle3.map_kind and shifted.generating_f is None


def test_coboundary_system_has_four_fields_and_record_factors(golden_cos):
    from dataclasses import fields

    assert [f.name for f in fields(golden_cos)] == ["space", "factor", "map_kind", "label"]
    shifted = coboundary_system(golden_cos, {"type": "trig", "sin": [[1, 0.25]]})
    assert shifted.factor == {"type": "coboundary", "base": golden_cos.factor,
                              "f": {"type": "trig", "const": 0.0, "cos": (),
                                    "sin": ((1, 0.25),)}}
    assert shifted.generating_f is None  # h + f - f o psi, not a stored coboundary
    assert rotation_system(0.5, 0.2).factor == {"type": "trig", "const": 0.2, "cos": (),
                                                "sin": ()}
    assert cat_map_system(0.3).factor == {"type": "trig2", "const": 0.3, "terms": ()}


def test_strict_rotation_stores_generating_f(golden_strict):
    assert golden_strict.generating_f is not None
    x = 0.21
    f = scalar_factor(replace(golden_strict, factor=golden_strict.generating_f))
    expect = f(x) - f(scalar_map(golden_strict)(x))
    assert scalar_factor(golden_strict)(x) == pytest.approx(expect)


def _scalar_orbit_rows(sys, pts, n, sign=1):
    """Independent oracle: h(psi^{sign i} p) by scalar iteration."""
    h = scalar_factor(sys)
    return [[h(iterate(sys, p, sign * i)) for p in pts] for i in range(n)]


def test_orbit_array_rotation_matches_scalar_walk(golden_cos):
    pts = golden_cos.space.sample_points(16)
    H = orbit_array(golden_cos, pts, 30)
    assert H.shape == (30, 16) and H.dtype == float
    np.testing.assert_allclose(H, _scalar_orbit_rows(golden_cos, pts, 30),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("inverse", [False, True])
def test_orbit_array_cat_map_matches_scalar_walk(inverse):
    sys = cat_map_system({"type": "trig2", "terms": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]},
                         grid_resolution=16)
    pts = sys.space.sample_points()
    assert pts.shape == (256, 2)
    H = orbit_array(sys, pts, 12, inverse=inverse)
    expect = _scalar_orbit_rows(sys, pts, 12, sign=-1 if inverse else 1)
    np.testing.assert_allclose(H, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("inverse", [False, True])
def test_orbit_array_exact_permutation(inverse):
    # exact rows are the integers h * scale of the scalar walk's Fractions
    rng = np.random.default_rng(5)
    table = rng.permutation(9).tolist()
    vals = [Fraction(int(p), int(q)) for p, q in
            zip(rng.integers(-5, 6, size=9), rng.integers(1, 7, size=9))]
    sys = finite_permutation_system(table, vals)
    assert sys.exact
    pts = sys.space.sample_points()
    H = orbit_array(sys, pts, 20, inverse=inverse)
    assert H.dtype == np.int64
    want = _scalar_orbit_rows(sys, pts, 20, sign=-1 if inverse else 1)
    assert all(isinstance(v, Fraction) for row in want for v in row)
    assert H.tolist() == [[v * sys.scale for v in row] for row in want]


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


def _stepwise_rows(sys, pts, n, inverse=False):
    """Oracle: the walk that evaluates h on every row, as orbit_rows did
    before stored coboundaries telescoped."""
    rows, cur = np.empty((n, len(pts))), pts
    for i in range(n):
        rows[i] = eval_factor(sys, cur)
        if i + 1 < n:
            cur = step_points(sys, cur, inverse=inverse)
    return rows


def _scalar_sin(x):
    # math.sin raises TypeError on an array: eval_factor_like's per-point path
    return math.sin(2 * math.pi * x) + 0.25 * math.cos(6 * math.pi * x)


@pytest.mark.parametrize("n", [1, 2, 200])
@pytest.mark.parametrize("angle,f", [
    ("golden", {"type": "trig", "sin": [[1, 1.0]]}),
    (0.375, {"type": "trig", "const": 0.5, "cos": [[2, 0.7]], "sin": [[1, 1.0], [3, -0.2]]}),
    (0.3, _scalar_sin),
    ("cat", {"type": "trig2", "terms": [[1, 0, 1.0, 0.0]]}),  # a stored coboundary on the torus
])
@pytest.mark.parametrize("inverse", [False, True])
def test_coboundary_rows_equal_stepwise_walk(angle, f, n, inverse):
    cat = angle == "cat"
    sys = (cat_map_system({"type": "coboundary", "f": f}, grid_resolution=8) if cat
           else strict_rotation_system(angle, f, grid_resolution=64))
    rng = np.random.default_rng(3)
    edge = [[0.0, 1 - 2.0**-53]] if cat else [0.0, 1 - 2.0**-53]
    pts = np.concatenate([sys.space.sample_points(), rng.random((9, 2) if cat else 9), edge])
    assert np.array_equal(orbit_array(sys, pts, n, inverse=inverse),
                          _stepwise_rows(sys, pts, n, inverse=inverse))


@pytest.mark.parametrize("n", [0, 1, 2, 50])
def test_coboundary_walk_evaluates_f_once_per_cell(n):
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.sin(2 * np.pi * np.asarray(x, dtype=float))

    sys = strict_rotation_system("golden", f, grid_resolution=32)
    pts = sys.space.sample_points()
    calls.clear()
    rows = list(orbit_rows(sys, pts, n))
    assert len(rows) == n
    assert calls == [pts.shape] * (n + 1 if n else 0)  # was 2n: f(x) and f(psi x) per row
    calls.clear()
    list(orbit_rows(sys, pts, n, inverse=True))
    assert len(calls) == 2 * n


def test_sample_points_float_batch_matches_normalize():
    edge = [-0.0, 0.0, -0.25, -1.0, 1.0, 1.5, 1 - 2.0**-53, -(2.0**-60), 2.0**-1074, 7e16, -3.3]
    circle, torus = ModelSpace("circle"), ModelSpace("torus2")
    batches = [(circle, np.array(edge)),
               (circle, np.array(edge, dtype=np.float32)),
               (torus, np.array([edge, edge[::-1]]).T)]
    for space, x in batches:
        got = space.sample_points(x)
        want = np.asarray([space.normalize(p) for p in x], dtype=float)
        assert got.dtype == float and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    for space, bad in [(circle, np.array([0.1, np.nan])), (circle, np.array([np.inf])),
                       (circle, np.zeros((3, 2))), (torus, np.array([[0.1, -np.inf]])),
                       (torus, np.array([[np.nan, 0.2]])), (torus, np.zeros(3)),
                       (torus, np.zeros((2, 3)))]:
        with pytest.raises(DomainError):
            space.sample_points(bad)
    # lists and finite spaces go point by point, as before
    assert circle.sample_points([-0.25, 1.5]).tolist() == [0.75, 0.5]
    finite = ModelSpace("finite", size=4)
    got = finite.sample_points(np.array([0.0, 3.0]))
    assert got.dtype == np.int64 and got.tolist() == [0, 3]
    with pytest.raises(DomainError):
        finite.sample_points(np.array([1.5]))
