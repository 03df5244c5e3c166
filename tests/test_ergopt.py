import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsdyn import (
    birkhoff_table,
    cat_map_system,
    coboundary_optima,
    coboundary_system,
    cycle_mean_extrema,
    finite_permutation_system,
    is_strict_finite,
    limit_estimates,
    rotation_system,
)
from lcsdyn import birkhoff, core
from lcsdyn.core import GOLDEN_ANGLE, ValidationError, orbit_array
from lcsdyn.ergopt import _cycle_potential, _functional_cycles, mean_level

from conftest import cycle_pairs, random_permutation_system


def test_cycle_decomposition(swap_pair):
    dec = cycle_mean_extrema(swap_pair)
    by_states = dict(cycle_pairs(dec))
    assert by_states[(0, 1)] == 2
    assert by_states[(2,)] == 1
    assert dec.max_mean == 2 and dec.min_mean == 1


def test_cycle_identity_permutation():
    sys = finite_permutation_system([0, 1, 2, 3], [5, -2, 7, 0])
    dec = cycle_mean_extrema(sys)
    assert len(cycle_pairs(dec)) == 4
    assert dec.max_mean == 7 and dec.min_mean == -2


def test_cycle_single_full_cycle(cycle3):
    dec = cycle_mean_extrema(cycle3)
    assert len(cycle_pairs(dec)) == 1
    assert dec.max_mean == dec.min_mean == Fraction(2)


def test_minmax_exact(swap_pair):
    res = coboundary_optima(swap_pair)[1]
    assert res.value == 2
    assert res.certificate == 0
    # the potential witnesses the optimum: max over states equals the value
    tbl = swap_pair.perm_table
    edges = [swap_pair.factor_table[i] + res.potential(tbl[i]) - res.potential(i)
             for i in range(3)]
    assert max(edges) == 2
    assert min(res.potential_table) == 0


def test_minmax_strict_coboundary_case():
    sys = finite_permutation_system([1, 0], [3, -3])
    res = coboundary_optima(sys)[1]
    assert res.value == 0 and res.certificate == 0


def test_minmax_constant():
    sys = finite_permutation_system([1, 2, 0], [Fraction(1, 3)] * 3)
    res = coboundary_optima(sys)[1]
    assert res.value == Fraction(1, 3)


def test_maxmin_examples(swap_pair):
    assert coboundary_optima(swap_pair)[0].value == 1
    sys = finite_permutation_system([1, 0], [3, -3])
    assert coboundary_optima(sys)[0].value == 0
    const = finite_permutation_system([2, 0, 1], [Fraction(5, 2)] * 3)
    assert coboundary_optima(const)[0].value == Fraction(5, 2)


def test_bound_consistency_on_grids(golden_strict):
    # sampled upper bound at order n vs the envelope estimate: both sit within
    # the telescoping tolerance of the true optimum 0
    n_max = 500
    est = limit_estimates(birkhoff_table(golden_strict, 512, n_max=n_max))
    res = coboundary_optima(golden_strict, method="birkhoff_fn", n=n_max, points=512)[1]
    combined = 2.0 * est.error_bound
    assert abs(res.value - est.L_plus) <= combined


def test_method_space_mismatch(swap_pair, golden_cos):
    with pytest.raises(ValidationError):
        coboundary_optima(golden_cos, method="exact_finite")
    with pytest.raises(ValidationError):
        coboundary_optima(swap_pair, method="birkhoff_fn")


def test_birkhoff_fn_refuses_order_zero(golden_cos):
    # n = 0 used to run as the default n = 64
    with pytest.raises(ValidationError, match="n must be >= 1"):
        coboundary_optima(golden_cos, method="birkhoff_fn", n=0)


@given(st.integers(0, 2**20))
@settings(max_examples=30, deadline=None)
def test_duality_and_exact_agreement(seed):
    rng = np.random.default_rng(seed)
    sys = random_permutation_system(rng, max_states=12)
    dec = cycle_mean_extrema(sys)
    lo, hi = coboundary_optima(sys)
    # duality against the negated problem, and agreement with the cycle oracle
    neg = finite_permutation_system(sys.perm_table, [-v for v in sys.factor_table])
    assert lo.value == -coboundary_optima(neg)[1].value
    assert hi.value == dec.max_mean
    assert lo.value == dec.min_mean
    est = limit_estimates(birkhoff_table(sys, n_max=4))
    assert est.L_plus == hi.value and est.L_minus == lo.value


def _declared_pair(case):
    """(h, -h) as two systems declared with negated coefficients: the
    library negates nothing.  Each partial sum of -h's factor is the
    negation of h's, so the two agree bit for bit up to sign."""
    if case == "trig":
        def make(s):
            return rotation_system("golden", {"type": "trig", "const": s * 0.25,
                                              "cos": [[1, s * 1.0]], "sin": [[3, s * 0.4]]},
                                   grid_resolution=128)
    elif case == "trig2":
        def make(s):
            return cat_map_system({"type": "trig2", "const": s * -0.1,
                                   "terms": [[1, 0, s * 1.0, 0.0], [1, 2, s * 0.3, s * 0.7]]},
                                  grid_resolution=16)
    else:
        rng = np.random.default_rng(11)
        table = rng.permutation(30).tolist()
        num, den = rng.integers(-9, 10, size=30), rng.integers(1, 8, size=30)
        floats = rng.normal(size=30)

        def make(s):
            if case == "table":
                return finite_permutation_system(
                    table, [f"{s * int(p)}/{int(q)}" for p, q in zip(num, den)])
            return finite_permutation_system(table, [s * float(v) for v in floats])
    return make(1), make(-1)


def _bits(v):
    """A value's exact identity: a Fraction, or a float's bits (so -0.0 != 0.0)."""
    return v if isinstance(v, Fraction) else float(v).hex()


@pytest.mark.parametrize("case,method", [
    ("table", "exact_finite"), ("float-table", "exact_finite"),
    ("trig", "grid_descent"), ("trig2", "grid_descent"),
    ("trig", "birkhoff_fn"), ("trig2", "birkhoff_fn")])
def test_maxmin_is_minus_minmax_of_the_declared_negation(case, method):
    sys, neg = _declared_pair(case)
    if method == "exact_finite":
        assert sys.exact == (case == "table")
    lo, hi_sys = coboundary_optima(sys, method=method, n=9)
    lo_neg, hi = coboundary_optima(neg, method=method, n=9)
    assert _bits(lo.value) == _bits(-hi.value)
    assert _bits(lo.certificate) == _bits(hi.certificate)
    assert lo.method == hi.method
    # the max-min's potential is that of -h flipped, normalized to min 0
    f, g = list(lo.potential_table), list(hi.potential_table)
    assert list(map(_bits, f)) == [_bits(max(g) - v) for v in g]
    assert min(f) == 0
    if method == "exact_finite":  # the evaluable reads the table
        assert [lo.potential(i) for i in range(len(f))] == f
    elif method == "birkhoff_fn":  # f_n(h) = -f_n(-h)
        pts = sys.space.sample_points(5)
        assert [lo.potential(x) for x in pts] == [-hi.potential(x) for x in pts]
    # and the converse, minmax(h) = -maxmin(-h)
    assert _bits(hi_sys.value) == _bits(-lo_neg.value)


@given(st.integers(0, 2**20))
@settings(max_examples=20, deadline=None)
def test_sandwich_every_order(seed):
    rng = np.random.default_rng(seed)
    sys = random_permutation_system(rng, max_states=10)
    lo, hi = (res.value for res in coboundary_optima(sys))
    t = birkhoff_table(sys, n_max=20)
    for n in range(20):
        assert min(t.averages[n]) <= lo <= hi <= max(t.averages[n])


@given(st.integers(0, 2**20))
@settings(max_examples=20, deadline=None)
def test_gauge_invariance_of_optimum(seed):
    rng = np.random.default_rng(seed)
    sys = random_permutation_system(rng, max_states=10)
    m = len(sys.perm_table)
    f0_vals = [int(v) for v in rng.integers(-5, 6, size=m)]
    shifted = coboundary_system(sys, lambda i: -f0_vals[int(i)])
    for mine, base in zip(coboundary_optima(shifted), coboundary_optima(sys)):
        assert mine.value == base.value


def test_is_strict_examples():
    ok, f = is_strict_finite(finite_permutation_system([1, 0], [3, -3]))
    assert ok
    # the rebuilt f satisfies the defining equation h = f - f o psi
    assert f[0] - f[1] == 3
    ok, f = is_strict_finite(finite_permutation_system([1, 0], [1, 0]))
    assert not ok and f is None
    ok, f = is_strict_finite(finite_permutation_system([1, 2, 0], [0, 0, 0]))
    assert ok and f == [0, 0, 0]


@given(st.integers(0, 2**20))
@settings(max_examples=20, deadline=None)
def test_strictness_consistency(seed):
    # h built as f - f o psi must test strict, with zero optima
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 10))
    table = rng.permutation(m).tolist()
    f_vals = [int(v) for v in rng.integers(-8, 9, size=m)]
    h = [f_vals[i] - f_vals[table[i]] for i in range(m)]
    sys = finite_permutation_system(table, h)
    ok, f = is_strict_finite(sys)
    assert ok
    assert all(f[i] - f[table[i]] == h[i] for i in range(m))
    assert [res.value for res in coboundary_optima(sys)] == [0, 0]


def test_birkhoff_fn_upper_bound(golden_strict):
    res = coboundary_optima(golden_strict, method="birkhoff_fn", n=50, points=256)[1]
    # exact optimum is 0; the sampled bound sits above it and shrinks with n
    assert res.value >= -1e-12
    assert res.value <= 4.0 / 50
    assert res.certificate <= 1e-12
    coarse = coboundary_optima(golden_strict, method="birkhoff_fn", n=5, points=256)[1]
    assert res.value <= coarse.value + 1e-12


def _cat16():
    return cat_map_system({"type": "trig2", "terms": [[1, 0, 0.4, 0.0], [0, 1, 0.0, 0.3]]},
                          grid_resolution=16)


def _per_sign_birkhoff_fn(sys, sign, n, points):
    """(value, certificate, potential table, f_n at the points) of the
    min-max (sign 1) or the max-min (sign -1) bound, taken one sign at a
    time: a walk of n rows, negated for the max-min, with f_n summed from it."""
    H = orbit_array(sys, sys.space.sample_points(points), n)
    f_h = _potentials(H, n)[0]
    if sign < 0:
        np.negative(H, out=H)
    f_here, f_next = _potentials(H, n)
    edge = H[0] + f_next - f_here
    value = float(edge.max())
    F = f_here - f_here.min()
    return sign * value, float(edge.max() - value), F if sign > 0 else F.max() - F, f_h


def _potentials(H, n):
    """(f_n(p), f_n(psi p)) from the walk H of n rows by running sums, each
    started from its first term: n f_n = S_1 + ... + S_{n-1}, at p from
    rows 0 .. n-2 and at psi p from rows 1 .. n-1."""
    sums = []
    for rows in (H[:n - 1], H[1:n]):
        S = C = None
        for row in rows:
            S = row.copy() if S is None else S + row
            C = S.copy() if C is None else C + S
        sums.append(np.zeros(H.shape[1]) if C is None else C / n)
    return tuple(sums)


def _hex(values):
    return [float(v).hex() for v in np.asarray(values).tolist()]


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize("case", ["golden-cos", "golden-strict", "cat"])
def test_birkhoff_fn_takes_both_optima_from_one_walk(case, n, golden_cos, golden_strict):
    # bit for bit the bounds taken one sign at a time, each from its own walk
    sys, points = {"golden-cos": (golden_cos, 128), "golden-strict": (golden_strict, 512),
                   "cat": (_cat16(), 16)}[case]
    pts = sys.space.sample_points(points)
    for sign, res in zip((-1, 1), coboundary_optima(sys, "birkhoff_fn", n=n, points=points)):
        value, certificate, table, f_h = _per_sign_birkhoff_fn(sys, sign, n, points)
        assert _hex([res.value, res.certificate]) == _hex([value, certificate])
        assert certificate == 0.0
        assert _hex(res.potential_table) == _hex(table)
        assert _hex([res.potential(x) for x in pts[::9]]) == _hex(f_h[::9])


@pytest.mark.parametrize("n", [1, 2, 17])
def test_birkhoff_fn_walks_n_rows(monkeypatch, golden_cos, n):
    # one walk of n rows gives h and both potentials, through whichever
    # module's binding of the orbit engine it is made
    walks = []

    def counted(*args, **kwargs):
        walks.append(0)
        for block in walk(*args, **kwargs):
            walks[-1] += len(block)
            yield block

    walk = core.orbit_blocks
    for module in (core, birkhoff):
        monkeypatch.setattr(module, "orbit_blocks", counted)
    for sys, points in ((golden_cos, 64), (_cat16(), 16)):
        walks.clear()
        coboundary_optima(sys, "birkhoff_fn", n=n, points=points)
        assert walks == [n]


def _per_level_potential(dec, level, weight=1):
    """_cycle_potential with its trees filled one level per round."""
    hv, succ = weight * dec.vals, dec.succ
    F = np.empty_like(hv)
    for cyc in dec.slices():
        F[cyc] = np.cumsum(np.concatenate((hv[cyc[:1]] * 0, -(hv[cyc[:-1]] - level))))
    done, pending = np.zeros(len(hv), dtype=bool), dec.tree
    done[dec.order] = True
    while pending.size:
        ready = done[succ[pending]]
        x = pending[ready]
        F[x] = hv[x] + F[succ[x]] - level
        done[x], pending = True, pending[~ready]
    return F - F[np.argmin(F)]


def _graphs(rng):
    path = np.arange(1, 2001)
    path[-1] = 1990  # a path of 1990 nodes into a cycle of 10
    yield path
    for size in (1, 7, 50, 400):
        yield rng.integers(0, size, size=size)


@pytest.mark.parametrize("kind", ["float", "int64", "python-int"])
def test_tree_pass_matches_the_per_level_rounds(kind):
    rng = np.random.default_rng(5)
    for succ in _graphs(rng):
        size = len(succ)
        if kind == "float":
            dec = _functional_cycles(succ, rng.normal(size=size))
        else:
            big = 2**61 if kind == "python-int" else 1
            dec = _functional_cycles(succ, [int(v) * big for v in rng.integers(-9, 10, size)], 3)
            assert (dec.vals.dtype == object) == (kind == "python-int")
        i = dec.means.index(dec.max_mean)
        w, level, _ = mean_level(dec.max_mean, int(dec.bounds[i + 1] - dec.bounds[i]), dec.scale)
        got, want = _cycle_potential(dec, level, w), _per_level_potential(dec, level, w)
        assert got.dtype == want.dtype
        assert (_hex(got) == _hex(want)) if kind == "float" else got.tolist() == want.tolist()


def test_grid_descent_heuristic(golden_strict):
    lo, res = coboundary_optima(golden_strict, method="grid_descent", points=128)
    assert "heuristic" in res.method
    assert abs(res.value) < 0.1  # true optimum is 0; snapped value is close
    assert lo.value <= res.value + 1e-9


def _snapped_cycle_means(succ, h):
    """Oracle: P steps from any node end on its cycle; average h around it."""
    P = len(succ)
    means = {}
    for x in range(P):
        y = x
        for _ in range(P):
            y = succ[y]
        cyc = [y]
        while succ[cyc[-1]] != y:
            cyc.append(succ[cyc[-1]])
        means[min(cyc)] = math.fsum(h[i] for i in cyc) / len(cyc)
    return list(means.values())


def _snapped_rotation(angle, P):
    x = np.arange(P) / P
    succ = (np.round(((x + angle) % 1.0) * P).astype(int) % P).tolist()
    return succ, np.cos(2.0 * np.pi * x)


def _snapped_cat(N):
    i, j = np.divmod(np.arange(N * N), N)
    succ = (((2 * i + j) % N) * N + (i + j) % N).tolist()
    h = np.cos(2.0 * np.pi * i / N) + 0.5 * np.sin(2.0 * np.pi * j / N)
    return succ, h


@pytest.mark.parametrize("case", ["golden-cos-128", "cat-16x16"])
def test_grid_descent_equals_snapped_cycle_means(case):
    if case == "golden-cos-128":
        sys = rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]},
                              grid_resolution=128)
        points = 128
        succ, h = _snapped_rotation(GOLDEN_ANGLE, 128)
    else:
        sys = cat_map_system({"type": "trig2", "terms": [[1, 0, 1.0, 0.0],
                                                          [0, 1, 0.0, 0.5]]},
                             grid_resolution=16)
        points = 16
        succ, h = _snapped_cat(16)
    means = _snapped_cycle_means(succ, h)
    lo, hi = coboundary_optima(sys, method="grid_descent", points=points)
    assert hi.value == pytest.approx(max(means), abs=1e-12)
    assert lo.value == pytest.approx(min(means), abs=1e-12)


def test_grid_descent_half_step_rotation_trees():
    # rotation by half a grid step: nodes snap as 0->0, 1->2, 2->2, 3->4, ...
    # (ties round to even), so odd nodes hang off the even fixed points
    P = 64
    sys = rotation_system(0.5 / P, {"type": "trig", "cos": [[1, 1.0]]}, grid_resolution=P)
    succ, h = _snapped_rotation(0.5 / P, P)
    assert succ[:4] == [0, 2, 2, 4]
    lo, hi = coboundary_optima(sys, method="grid_descent", points=P)
    assert hi.value == 1.0 and lo.value == -1.0
    assert max(_snapped_cycle_means(succ, h)) == 1.0
    for res, sign in ((hi, 1.0), (lo, -1.0)):
        f = res.potential_table
        assert isinstance(f, np.ndarray) and res.potential is None
        edges = sign * (h + f[succ] - f)  # max-min bounds edges below: negate them
        assert np.all(edges <= sign * res.value + 1e-12)
        tree = [x for x in range(P) if succ[x] != x]
        assert np.allclose(edges[tree], sign * res.value, atol=1e-12)
