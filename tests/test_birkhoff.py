import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsdyn import (
    action_orbit,
    birkhoff_extrema,
    birkhoff_table,
    coboundary_residual_curve,
    coboundary_system,
    finite_permutation_system,
    limit_estimates,
    rotation_system,
    transfer_potential,
)
from lcsdyn import cli
from lcsdyn.birkhoff import (
    extrema_to_csv,
    table_to_csv,
    transfer_potential_values,
)
from lcsdyn.core import (
    DEFAULT_MAX_ITERATIONS,
    GOLDEN_ANGLE,
    BudgetError,
    DomainError,
    ValidationError,
    cat_map_system,
    eval_factor,
)

from conftest import encoded, random_permutation_system, scalar_factor, scalar_map

# A_10 of cos(2 pi x) at x = 0 under the golden rotation, frozen from a
# 50-digit direct resummation.
A10_GOLDEN_COS = 0.011200192768592274


def test_full_cycle_average(cycle3):
    t = birkhoff_table(cycle3, n_max=3)
    assert t.averages[2][0] == Fraction(2)
    assert t.exact


def test_first_average_is_factor(cycle3, golden_cos):
    t = birkhoff_table(cycle3, n_max=1)
    assert [t.averages[0][p] for p in range(3)] == [1, 2, 3]
    tg = birkhoff_table(golden_cos, 32, n_max=1)
    h = [scalar_factor(golden_cos)(float(p)) for p in tg.points]
    assert tg.averages[0] == pytest.approx(h)


def test_golden_rotation_a10_oracle():
    sys = rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]})
    t = birkhoff_table(sys, [0.0], n_max=10)
    # independent re-summation at higher precision (50 digits)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    a = (mp.sqrt(5) - 1) / 2
    x, s = mp.mpf(0), mp.mpf(0)
    for _ in range(10):
        s += mp.cos(2 * mp.pi * x)
        x = (x + a) % 1
    assert abs(t.averages[9][0] - float(s / 10)) < 1e-12
    assert abs(t.averages[9][0] - A10_GOLDEN_COS) < 1e-12


def test_transfer_potential_trivial(cycle3):
    f1 = transfer_potential(cycle3, 1)
    assert f1(0) == 0 and f1(2) == 0


def test_f_1_checks_its_point_and_is_exact_where_f_n_is(cycle3, golden_cos):
    # f_1 = 0 is a Fraction on exact systems, as every f_n there, and refuses
    # a point off the space as f_2 does
    f1, f2 = transfer_potential(cycle3, 1), transfer_potential(cycle3, 2)
    assert [type(f(x)) for f in (f1, f2) for x in (0, np.int64(2))] == [Fraction] * 4
    for f in (f1, f2):
        for bad in (99, -1, 0.5, "x"):
            with pytest.raises(DomainError):
                f(bad)
    floats = finite_permutation_system([1, 2, 0], [0.5, -0.25, 1.0])
    g1 = transfer_potential(golden_cos, 1)
    for f, x in ((transfer_potential(floats, 1), 1), (g1, 0.3)):
        assert f(x) == 0.0 and type(f(x)) is float
    with pytest.raises(DomainError):
        g1(float("nan"))


def test_transfer_potential_n2_identity(golden_cos):
    # f_2 = h/2, so h + f_2 o psi - f_2 = (h + h o psi)/2 = A_2(h)
    f2 = transfer_potential(golden_cos, 2)
    psi, h = scalar_map(golden_cos), scalar_factor(golden_cos)
    for x in (0.0, 0.31, 0.77):
        assert f2(x) == pytest.approx(h(x) / 2)
        lhs = h(x) + f2(psi(x)) - f2(x)
        a2 = (h(x) + h(psi(x))) / 2
        assert lhs == pytest.approx(a2, abs=1e-14)


def _cat16():
    return cat_map_system({"type": "trig2", "terms": [[1, 0, 0.4, 0.0], [0, 1, 0.0, 0.3]]},
                          grid_resolution=16)


@pytest.mark.parametrize("n", [2, 5, 17])
def test_transfer_potential_is_a_walk_of_one_point(golden_cos, n):
    # the scalar f_n is the batch f_n of a batch of one, bit for bit
    for sys in (golden_cos, _cat16()):
        pts = sys.space.sample_points(16)[::7]
        want = transfer_potential_values(sys, pts, n)[0]
        f_n = transfer_potential(sys, n)
        got = [f_n(p) for p in pts]
        assert all(isinstance(v, float) for v in got)
        assert got == want.tolist()


def _weighted_cumsum_potential(sys, pts, n):
    """Oracle: f_n(p) and f_n(psi p) from the whole (n, P) walk, its two
    weighted copies and their cumulative sums, kept as Fractions on exact
    systems."""
    from lcsdyn.birkhoff import _divide
    from lcsdyn.core import orbit_array, sum_dtype

    if n == 1:
        sums = [np.zeros(len(pts), dtype=sum_dtype(sys, 1))] * 2
    else:
        H = orbit_array(sys, pts, n).astype(sum_dtype(sys, n * n))
        w = np.arange(n - 1, 0, -1)[:, None]
        sums = [np.cumsum(w * H[lo:lo + n - 1], axis=0)[-1] for lo in (0, 1)]
    if sys.scale is None:
        return sums[0] / n, sums[1] / n
    return _divide(sums[0], n, sys.scale), _divide(sums[1], n, sys.scale)


def _potential_systems():
    rng = np.random.default_rng(13)
    m = 24
    small = [f"{int(p)}/{int(q)}" for p, q in zip(rng.integers(-9, 10, m), rng.integers(1, 7, m))]
    huge = [f"{int(p)}/{2**80 + int(q)}" for p, q in zip(rng.integers(-9, 10, m),
                                                        rng.integers(1, 99, m))]
    return {
        "rotation": rotation_system("golden", {"type": "trig", "const": -0.1, "cos": [[1, 1.0]],
                                               "sin": [[3, -0.4]]}, grid_resolution=64),
        # -0.0 on half the circle: a sum started from zeros would read +0.0
        "signed-zero": rotation_system(0.25, lambda x: np.where(np.asarray(x) < 0.5, -0.0, 1.0),
                                       grid_resolution=16),
        "cat": _cat16(),
        "int64": finite_permutation_system(rng.permutation(m).tolist(), small),
        "object": finite_permutation_system(rng.permutation(m).tolist(), huge),
    }


def _running_sum_potential(sys, pts, n):
    """Oracle: f_n(p) and f_n(psi p) by running sums, one row at a time:
    n f_n = S_1 + ... + S_{n-1}, at p from rows 0 .. n-2 and at psi p from
    rows 1 .. n-1, each sum started from its first term; exact systems sum
    the integer rows as Python ints and keep Fractions."""
    from lcsdyn.birkhoff import _divide
    from lcsdyn.core import orbit_array

    H = orbit_array(sys, pts, n)
    if sys.exact:
        H = H.astype(object)
    sums = []
    for rows in (H[:n - 1], H[1:n]):
        S = C = None
        for row in rows:
            S = row.copy() if S is None else S + row
            C = S.copy() if C is None else C + S
        sums.append(np.zeros_like(H[0]) if C is None else C)
    return tuple(_divide(c, n, sys.scale) for c in sums)


def _same_bits(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want) and (
        got.dtype != float or np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("n", [1, 2, 3, 17])
@pytest.mark.parametrize("name", ["rotation", "signed-zero", "cat", "int64", "object"])
def test_streamed_potential_equals_a_running_sum_loop(name, n):
    sys = _potential_systems()[name]
    assert (sys.exact, sys.exact and sys.scaled_table.dtype == object) == (
        name in ("int64", "object"), name == "object")
    pts = sys.space.sample_points()
    got = transfer_potential_values(sys, pts, n, exact=True)
    assert all(_same_bits(g, w) for g, w in zip(got, _running_sum_potential(sys, pts, n)))
    if n <= 2:  # f_1 = 0 and f_2 = h / 2: the weighted sums' bits, signs of zeros included
        assert all(_same_bits(g, w) for g, w in zip(got, _weighted_cumsum_potential(sys, pts, n)))
    if sys.exact:  # f_n = (1/n) sum_{i=1}^{n-1} S_i of the table's Fractions
        psi, h = scalar_map(sys), scalar_factor(sys)
        for start, values in zip((pts, [psi(p) for p in pts]), got):
            want = []
            for p in start:
                orbit = [p]
                for _ in range(n - 2):
                    orbit.append(psi(orbit[-1]))
                want.append(Fraction(sum(sum(h(q) for q in orbit[:i]) for i in range(1, n)), n))
            assert values.tolist() == want


@pytest.mark.parametrize("n", [3, 17, 500, 2000])
@pytest.mark.parametrize("name", ["rotation", "signed-zero", "cat"])
def test_float_potential_within_the_running_sum_error_bound(name, n):
    # n f_n = sum_j (n-1-j) h_j summed as running sums of running sums: each
    # is within 2 n u sum_j (n-1-j) |h_j| of the exact sum of the same float
    # rows (Higham, Accuracy and Stability of Numerical Algorithms, 4.2),
    # u = 2^-53, and the division by n rounds once more
    from lcsdyn.core import orbit_array

    sys = _potential_systems()[name]
    pts = sys.space.sample_points()
    H = orbit_array(sys, pts, n)
    w = np.arange(n - 1, 0, -1)
    for lo, f in zip((0, 1), transfer_potential_values(sys, pts, n)):
        rows = H[lo:lo + n - 1]
        bound = 2 * n * 2.0**-53 * (w @ np.abs(rows)) / n
        for col, value in enumerate(f.tolist()):
            # the float rows as integers over their common power of two
            ratios = [v.as_integer_ratio() for v in rows[:, col].tolist()]
            D = max((d for _, d in ratios), default=1)
            exact = Fraction(sum(int(wj) * p * (D // d) for wj, (p, d) in zip(w, ratios)),
                             D * n)
            assert abs(Fraction(value) - exact) <= bound[col] + math.ulp(float(exact))


def test_birkhoff_fn_memory_is_o_of_p():
    # the whole (2000, 4096) walk is 65.5 MB; the streamed sums keep O(P) rows
    import tracemalloc

    from lcsdyn import coboundary_optima

    f = {"type": "trig", "sin": [[1, 1.0]]}
    sys = rotation_system("golden", {"type": "coboundary", "f": f}, grid_resolution=4096)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        lo, hi = coboundary_optima(sys, "birkhoff_fn", n=2000, points=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lo.potential_table.shape == (4096,) and lo.value <= hi.value
    assert peak < 5 * 2**20


def test_transfer_potential_cycle_exact(cycle3):
    f3 = transfer_potential(cycle3, 3)
    assert [f3(i) for i in range(3)] == [Fraction(4, 3), Fraction(7, 3), Fraction(7, 3)]
    assert coboundary_residual_curve(cycle3, 3)[-1] == 0


def test_coboundary_residual_finite_exact(cycle3, swap_pair):
    for sys in (cycle3, swap_pair):
        for n in (1, 2, 5, 17, 50):
            worst = coboundary_residual_curve(sys, n)[-1]
            assert isinstance(worst, Fraction) and worst == 0


@pytest.mark.parametrize("n_max", [-1, 0])
def test_residual_curve_refuses_orders_below_one(golden_cos, n_max):
    with pytest.raises(ValidationError, match="n must be >= 1"):
        coboundary_residual_curve(golden_cos, n_max, 16)


def test_residual_curve_refuses_orders_past_the_budget(golden_cos):
    with pytest.raises(BudgetError, match="exceeds iteration budget"):
        coboundary_residual_curve(golden_cos, DEFAULT_MAX_ITERATIONS + 1, 16)


def test_residual_curve_refuses_an_empty_sample(golden_cos):
    with pytest.raises(ValidationError, match="empty sample"):
        coboundary_residual_curve(golden_cos, 5, [])


def test_potential_values_refuse_order_zero(golden_cos):
    with pytest.raises(ValidationError, match="n must be >= 1"):
        transfer_potential_values(golden_cos, golden_cos.space.sample_points(4), 0)


def test_coboundary_residual_rotation_grid(golden_cos):
    assert coboundary_residual_curve(golden_cos, 1, 128)[-1] == 0
    assert coboundary_residual_curve(golden_cos, 100, 128)[-1] <= 1e-9
    curve = coboundary_residual_curve(golden_cos, 60, 128)
    assert curve.shape == (60,)
    assert curve.max() <= 1e-9
    for n in (1, 2, 17, 60):  # entry n - 1 does not depend on the curve's length
        assert curve[n - 1] == pytest.approx(coboundary_residual_curve(golden_cos, n, 128)[-1],
                                             abs=1e-12)


def test_envelope_sandwich_and_monotone(golden_cos):
    t = birkhoff_table(golden_cos, 64, n_max=40)
    assert np.all(t.env_minus <= t.averages + 1e-15)
    assert np.all(t.averages <= t.env_plus + 1e-15)
    assert np.all(np.diff(t.env_minus, axis=0) >= -1e-15)
    assert np.all(np.diff(t.env_plus, axis=0) <= 1e-15)


@given(st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_envelope_properties_random_finite(seed):
    rng = np.random.default_rng(seed)
    sys = random_permutation_system(rng, max_states=10)
    t = birkhoff_table(sys, n_max=12)
    m = len(sys.perm_table)
    for p in range(m):
        for n in range(12):
            assert t.env_minus[n][p] <= t.averages[n][p] <= t.env_plus[n][p]
            if n + 1 < 12:
                assert t.env_minus[n][p] <= t.env_minus[n + 1][p]
                assert t.env_plus[n][p] >= t.env_plus[n + 1][p]
    hmin, hmax = min(sys.factor_table), max(sys.factor_table)
    for n in range(12):
        for p in range(m):
            assert hmin <= t.averages[n][p] <= hmax


def test_gauge_covariance_exact(swap_pair):
    # A_n(h + f o psi - f) = A_n(h) + (f(psi^n x) - f(x)) / n, exactly
    f0 = lambda i: [3, -1, 7][int(i)]
    shifted = coboundary_system(swap_pair, lambda i: -f0(i))
    t = birkhoff_table(swap_pair, n_max=15)
    ts = birkhoff_table(shifted, n_max=15)
    tbl = swap_pair.perm_table
    for p in range(3):
        x = p
        for n in range(1, 16):
            y = x
            for _ in range(n):
                y = tbl[y]
            expect = t.averages[n - 1][p] + Fraction(f0(y) - f0(x), n)
            assert ts.averages[n - 1][p] == expect


def test_gauge_shifted_scalar_call_is_a_batch_of_one(golden_cos):
    f0 = lambda x: 0.25 * np.sin(2 * np.pi * np.asarray(x))
    shifted = coboundary_system(golden_cos, lambda x: -f0(x))
    pts = golden_cos.space.sample_points(32)
    h = scalar_factor(shifted)
    assert [h(float(p)) for p in pts] == eval_factor(shifted, pts).tolist()
    cat = _cat16()
    g0 = lambda p: 0.1 * np.cos(2 * np.pi * np.asarray(p)[..., 0])
    shifted = coboundary_system(cat, lambda p: -g0(p))
    pts = cat.space.sample_points(8)
    h = scalar_factor(shifted)
    assert [h(p) for p in pts] == eval_factor(shifted, pts).tolist()


def test_gauge_covariance_grid(golden_cos):
    f0 = lambda x: np.sin(2 * np.pi * np.asarray(x)) * 0.25
    shifted = coboundary_system(golden_cos, lambda x: -f0(x))
    t = birkhoff_table(golden_cos, 64, n_max=30)
    ts = birkhoff_table(shifted, 64, n_max=30)
    pts = t.points
    for n in (1, 7, 30):
        endpoints = pts.copy()
        for _ in range(n):
            endpoints = (endpoints + GOLDEN_ANGLE) % 1.0
        expect = t.averages[n - 1] + (f0(endpoints) - f0(pts)) / n
        assert ts.averages[n - 1] == pytest.approx(expect, abs=1e-9)


def test_limit_estimates_finite_exact(swap_pair):
    t = birkhoff_table(swap_pair, n_max=6)
    est = limit_estimates(t)
    assert est.exact
    assert est.L_minus == 1 and est.L_plus == 2


def _fraction_cycle_means(table, values):
    """Exact means of the float values over every cycle, as Fractions."""
    seen, means = set(), []
    for start in range(len(table)):
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = table[x]
        if cyc:
            means.append(sum(Fraction(values[i]) for i in cyc) / len(cyc))
    return min(means), max(means)


def test_limit_estimates_float_table_is_not_exact():
    # a float table's cycle means are floats: exact is False, and the error
    # bound covers their distance to the exact means of the float values
    rng = np.random.default_rng(5)
    cases = [([1, 2, 0], [0.1, 0.2, 0.4])]
    for m in (7, 300, 2000):
        values = (rng.random(m) * 10.0 ** rng.integers(-3, 4, m)).tolist()
        cases.append((rng.permutation(m).tolist(), values))
    for table, values in cases:
        sys = finite_permutation_system(table, values)
        assert not sys.exact
        est = limit_estimates(birkhoff_extrema(sys, n_max=4))
        assert est.exact is False
        assert isinstance(est.error_bound, float) and est.error_bound > 0.0
        lo, hi = _fraction_cycle_means(table, values)
        assert abs(Fraction(est.L_minus) - lo) <= est.error_bound
        assert abs(Fraction(est.L_plus) - hi) <= est.error_bound
        assert est.error_bound < 1e-9 * max(abs(v) for v in values)


def test_analyze_float_table_exact_flags_agree(tmp_path):
    from lcsdyn import cli

    system = {"space": {"kind": "finite"}, "map": {"type": "permutation", "table": [1, 2, 0]},
              "factor": {"type": "table", "values": [0.1, 0.2, 0.4]}}
    report, code = cli.run(cli.RunConfig(command="analyze", system=system, n_max=5,
                                         out=str(tmp_path / "r"),
                                         cache_dir=str(tmp_path / "c")))
    assert code == 0
    est = report["payload"]["limit_estimate"]
    assert est["exact"] is report["payload"]["table_summary"]["exact"] is False
    assert 0.0 < est["error_bound"] < 1e-15
    exact_mean = (Fraction(0.1) + Fraction(0.2) + Fraction(0.4)) / 3
    assert abs(Fraction(est["L_plus"]) - exact_mean) <= est["error_bound"]


def test_limit_estimates_constant(const_rotation):
    t = birkhoff_table(const_rotation, 64, n_max=25)
    est = limit_estimates(t)
    assert est.L_minus == pytest.approx(0.2, abs=1e-12)
    assert est.L_plus == pytest.approx(0.2, abs=1e-12)
    assert est.stable


def test_limit_estimates_strict_bound(golden_strict):
    n_max = 400
    t = birkhoff_table(golden_strict, 512, n_max=n_max)
    est = limit_estimates(t)
    assert isinstance(est.error_bound, float)
    assert est.error_bound == pytest.approx(4.0 / n_max, rel=1e-3)
    assert abs(est.L_minus) <= est.error_bound
    assert abs(est.L_plus) <= est.error_bound
    assert est.L_minus <= est.L_plus
    # the 1/n envelope decay keeps moving through the last 10% of orders
    assert not est.stable


def test_limit_estimates_heuristic_flag(golden_cos):
    t = birkhoff_table(golden_cos, 64, n_max=50)
    est = limit_estimates(t)
    assert est.error_bound == "heuristic"
    assert not est.exact


def test_admissible_set_classification(swap_pair):
    est = limit_estimates(birkhoff_table(swap_pair, n_max=4))
    assert est.classify(3) == "admissible"
    assert est.classify(1.5) == "not_admissible"
    assert est.classify(0) == "excluded_zero"
    assert not est.contains(0)
    assert est.contains(-5)
    assert est.classify(2) == "not_admissible"  # closed gap endpoint


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_classify_refuses_a_size_that_is_not_finite(swap_pair, k):
    # nan was "not_admissible" and +-inf "admissible"
    est = limit_estimates(birkhoff_table(swap_pair, n_max=4))
    with pytest.raises(ValidationError, match="size k must be finite"):
        est.classify(k)
    with pytest.raises(ValidationError, match="size k must be finite"):
        est.contains(k)


def test_tolerance_is_the_numeric_error_bound(golden_cos, golden_strict):
    heuristic = limit_estimates(birkhoff_extrema(golden_cos, 64, n_max=50))
    strict = limit_estimates(birkhoff_extrema(golden_strict, 64, n_max=50))
    assert heuristic.error_bound == "heuristic" and heuristic.tolerance == 0.0
    assert strict.tolerance == strict.error_bound > 0
    assert "tolerance" not in encoded(strict)  # a property, not a payload field


@pytest.mark.parametrize("mean", ["1/3", "1/4", "-2/7"])
def test_exact_gap_is_compared_exactly(mean, tmp_path):
    # the floats around an exact gap endpoint, against a Fraction oracle: a
    # Fraction minus a float tolerance 0.0 was a float, so float(1/3) < 1/3
    # was classified inside the gap
    sys = finite_permutation_system([0], [mean])
    est = limit_estimates(birkhoff_extrema(sys, n_max=2))
    assert est.exact and est.tolerance == 0.0
    system = {"space": {"kind": "finite", "size": 1},
              "map": {"type": "permutation", "table": [0]}, "factor": [mean]}
    report, code = cli.run(cli.RunConfig(command="admissible", system=system, n_max=2,
                                         out=str(tmp_path / "run")))
    assert code == 0 and report["payload"]["admissible_set"]["tolerance"] == 0.0
    m = Fraction(mean)
    near = float(m)
    for k in (math.nextafter(near, -math.inf), near, math.nextafter(near, math.inf)):
        inside = Fraction(k) == m
        assert est.contains(k) == (not inside)
        assert est.classify(k) == ("not_admissible" if inside else "admissible")


def test_action_power_matches_average_displacement(swap_pair):
    # n (k - A_n(h)(x)) is the t-displacement of the n-th action power
    t = birkhoff_table(swap_pair, n_max=12)
    for p in range(3):
        _, tvals = action_orbit(swap_pair, p, Fraction(0), Fraction(2), 12)
        for n in (1, 4, 9, 12):
            assert tvals[n] == n * (Fraction(2) - t.averages[n - 1][p])


def test_torus2_table_and_residual():
    from lcsdyn import cat_map_system

    sys = cat_map_system({"type": "trig2", "terms": [[1, 0, 0.5, 0.0],
                                                     [0, 1, 0.0, 0.25]]},
                         grid_resolution=16)
    t = birkhoff_table(sys, 16, n_max=25)
    assert np.all(t.env_minus <= t.averages + 1e-15)
    assert np.all(t.averages <= t.env_plus + 1e-15)
    assert coboundary_residual_curve(sys, 20, 8)[-1] <= 1e-9


def test_csv_exports(tmp_path, swap_pair):
    t = birkhoff_table(swap_pair, n_max=4)
    full = tmp_path / "table.csv"
    table_to_csv(t, full)
    with open(full, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["point", "n", "S_n", "A_n", "env_minus", "env_plus"]
    assert len(rows) == 1 + 3 * 4
    assert rows[1][2] == "0"  # S_1(0) = h(0) = 0, exact
    ext = tmp_path / "ext.csv"
    extrema_to_csv(t, ext)
    with open(ext, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "n" and len(rows) == 5


def test_extrema_csv_is_the_csv_writer_file(tmp_path, swap_pair, golden_cos):
    # reference: the csv.writer dump of the same cells, byte for byte
    for sys in (swap_pair, golden_cos):
        ext = birkhoff_extrema(sys, n_max=30)
        path, ref = tmp_path / "ext.csv", tmp_path / "ref.csv"
        extrema_to_csv(ext, path)
        with open(ref, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "min_avg", "max_avg", "inf_env_minus", "sup_env_plus"])
            keys = ("min_avg", "max_avg", "inf_env_minus", "sup_env_plus")
            w.writerows(zip(range(1, 31), *([str(v) if sys.exact else repr(v)
                                             for v in ext.extrema_per_n[key].tolist()]
                                            for key in keys)))
        assert path.read_bytes() == ref.read_bytes()


def _table_oracle(sys, points, n_max):
    """The (n_max, P) float table reduced as a whole: cumulative sums, then
    per-point suffix envelopes, then extrema over the points."""
    from lcsdyn.core import orbit_array

    S = np.cumsum(orbit_array(sys, sys.space.sample_points(points), n_max), axis=0)
    A = S / np.arange(1, n_max + 1, dtype=float)[:, None]
    env_minus = np.minimum.accumulate(A[::-1], axis=0)[::-1]
    env_plus = np.maximum.accumulate(A[::-1], axis=0)[::-1]
    return S, A, env_minus, env_plus, {
        "min_avg": A.min(axis=1),
        "max_avg": A.max(axis=1),
        "inf_env_minus": env_minus.min(axis=1),
        "sup_env_plus": env_plus.max(axis=1),
    }


def _cat16():
    from lcsdyn import cat_map_system

    return cat_map_system({"type": "trig2", "terms": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]},
                          grid_resolution=16)


@pytest.mark.parametrize("name", ["golden_cos", "golden_strict", "cat16"])
def test_streamed_extrema_equal_the_table_bit_for_bit(name, request):
    sys = _cat16() if name == "cat16" else request.getfixturevalue(name)
    points, n_max = (16, 200) if name == "cat16" else (256, 600)
    S, A, env_minus, env_plus, oracle = _table_oracle(sys, points, n_max)
    streamed = birkhoff_extrema(sys, points, n_max)
    table = birkhoff_table(sys, points, n_max)
    for key, curve in oracle.items():
        assert np.array_equal(streamed.extrema_per_n[key], curve), key
        assert np.array_equal(table.extrema_per_n[key], curve), key
    for mine, want in ((table.sums, S), (table.averages, A), (table.env_minus, env_minus),
                       (table.env_plus, env_plus)):
        assert np.array_equal(mine, want)
    est, est_table = limit_estimates(streamed), limit_estimates(table)
    assert encoded(est) == encoded(est_table)


def test_streamed_extrema_exact_permutation():
    # Fraction curves: the per-n extrema and their suffix extrema, exactly
    sys = finite_permutation_system([2, 0, 1, 4, 3, 5], ["1/3", "-2", "5/7", "1/2", "0", "-1/4"])
    n_max = 13
    ext = birkhoff_extrema(sys, n_max=n_max).extrema_per_n
    S = [[Fraction(0)] * 6]
    for row in _scalar_rows(sys, range(6), n_max):
        S.append([a + v for a, v in zip(S[-1], row)])
    A = [[s / n for s in S[n]] for n in range(1, n_max + 1)]
    assert list(ext["min_avg"]) == [min(r) for r in A]
    assert list(ext["max_avg"]) == [max(r) for r in A]
    assert list(ext["inf_env_minus"]) == [min(min(r) for r in A[n:]) for n in range(n_max)]
    assert list(ext["sup_env_plus"]) == [max(max(r) for r in A[n:]) for n in range(n_max)]
    assert all(isinstance(v, Fraction) for v in ext["inf_env_minus"])


def _scalar_rows(sys, pts, n):
    rows, cur, psi, h = [], list(pts), scalar_map(sys), scalar_factor(sys)
    for _ in range(n):
        rows.append([h(x) for x in cur])
        cur = [psi(x) for x in cur]
    return rows


def test_streamed_residual_curve_equals_the_table_loop(golden_strict):
    # the loop over a materialized (n_max, P) orbit table, before streaming
    from lcsdyn.core import orbit_array

    n_max, points = 500, 256
    H = orbit_array(golden_strict, golden_strict.space.sample_points(points), n_max)
    h = H[0]
    s_here, s_next, cs_here, cs_next = (np.zeros(H.shape[1]) for _ in range(4))
    want = np.empty(n_max)
    for n in range(1, n_max + 1):
        if n > 1:
            cs_here += s_here
            s_next += H[n - 1]
            cs_next += s_next
        s_here += H[n - 1]
        want[n - 1] = np.max(np.abs(s_here - (n * h + cs_next - cs_here))) / n
    assert np.array_equal(coboundary_residual_curve(golden_strict, n_max, points), want)


def test_streamed_extrema_memory_is_o_of_p():
    # one (2000, 4096) float64 array is 65.5 MB; the stream keeps O(P) rows
    import tracemalloc

    f = {"type": "trig", "sin": [[1, 1.0]]}
    sys = rotation_system("golden", {"type": "coboundary", "f": f}, grid_resolution=4096)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ext = birkhoff_extrema(sys, 4096, n_max=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ext.extrema_per_n["min_avg"].shape == (2000,)
    assert peak < 4_000_000
