import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lcsdyn import (
    action_orbit,
    birkhoff_extrema,
    build_cutoff,
    build_g,
    build_mu,
    cat_map_system,
    coboundary_residual_curve,
    cycle_mean_extrema,
    finite_permutation_system,
    limit_estimates,
    mapping_torus_profile,
    probe_sweep,
    rotation_system,
)
from lcsdyn.core import (
    DEFAULT_MAX_ITERATIONS,
    BudgetError,
    DomainError,
    ValidationError,
    reference_points,
    step_points,
)
from lcsdyn import torus
from lcsdyn.torus import (
    MAX_TERMS,
    GTables,
    MuConstruction,
    InfeasibleError,
    NotFoundError,
    VERDICT_ESCAPE,
    VERDICT_INCONCLUSIVE,
    VERDICT_RECURRENT,
    _cumulative_simpson,
)

from conftest import cycle_pairs, encoded, scalar_factor, scalar_map


def test_action_step_rotation(const_rotation):
    xs, ts = action_orbit(const_rotation, 0.25, 0.0, 1.0, 1)
    assert xs[1] == pytest.approx(0.75)
    assert ts[1] == pytest.approx(0.8)


def test_action_step_constant_case(const_rotation):
    _, ts = action_orbit(const_rotation, 0.1, 3.5, 0.2, 1)
    assert ts[1] == pytest.approx(3.5)


def test_action_step_finite(cycle3):
    xs, ts = action_orbit(cycle3, 0, 0, 2, 1)
    assert (xs[1], ts[1]) == (1, 1)


def test_action_step_torus_constant_factor():
    from lcsdyn import cat_map_system

    sys = cat_map_system(0.3, grid_resolution=8)
    xs, ts = action_orbit(sys, (0.1, 0.2), 0.0, 1.0, 1)
    assert xs.shape == (2, 2) and ts.shape == (2,)
    assert ts[1] == pytest.approx(0.7)
    assert np.allclose(xs[1], [0.4, 0.3])


def _step_back(sys, k, x, t):
    """One step of the inverse action (x, t) -> (psi^{-1} x, t - k +
    h(psi^{-1} x)), stepped as a batch of one: the backward walk that no
    library call makes."""
    prev = step_points(sys, sys.space.sample_points([x]), inverse=True)
    return prev[0], t - k + float(scalar_factor(sys)(prev[0]))


def test_action_step_inverse_roundtrip(const_rotation, cycle3):
    for sys, k in ((const_rotation, 0.7), (cycle3, 2)):
        x0 = 0.3 if sys.space.kind == "circle" else 1
        xs, ts = action_orbit(sys, x0, 0.25, k, 1)
        x2, t2 = _step_back(sys, k, xs[1], ts[1])
        assert float(x2) == pytest.approx(float(x0))
        assert float(t2) == pytest.approx(0.25)


def _scalar_action(sys, k, x, t, n, inverse=False):
    """n steps of (x, t) -> (psi x, t + k - h(x)) (of its inverse with
    ``inverse``), one point at a time on the test-local scalar map."""
    psi, h = scalar_map(sys, inverse), scalar_factor(sys)
    for _ in range(n):
        if inverse:
            x = psi(x)
            t = t - k + float(h(x))
        else:
            t = t + k - float(h(x))
            x = psi(x)
    return x, t


def _float_systems():
    from lcsdyn import cat_map_system

    rng = np.random.default_rng(7)
    cat = cat_map_system({"type": "trig2", "terms": [[1, 0, 0.4, 0.0], [0, 1, 0.0, 0.3]]},
                         grid_resolution=16)
    table = finite_permutation_system(rng.permutation(12).tolist(),
                                      rng.normal(size=12).tolist())
    assert not table.exact
    return [(cat, list(cat.space.sample_points(16)[::37]) + [np.array([0.123, 0.877])]),
            (table, list(range(12)))]


def test_action_walks_match_a_scalar_walk():
    # the cat map and a float table, stepped as a batch of one, against the
    # scalar map read off map_kind: points bit for bit, at every power
    for sys, starts in _float_systems():
        for x0 in starts:
            x, t = _step_back(sys, 0.35, x0, 0.5)
            want_x, want_t = _scalar_action(sys, 0.35, x0, 0.5, 1, inverse=True)
            np.testing.assert_array_equal(x, want_x)
            assert t == pytest.approx(want_t, abs=1e-15)
            for n in (0, 1, 7, 20):
                xs, ts = action_orbit(sys, x0, 0.5, 0.35, n)
                assert len(xs) == len(ts) == n + 1 and ts.dtype == float
                for m in range(n + 1):
                    want_x, want_t = _scalar_action(sys, 0.35, x0, 0.5, m)
                    np.testing.assert_array_equal(xs[m], want_x)
                    assert ts[m] == pytest.approx(want_t, abs=1e-12)


def test_action_power_trivial(const_rotation):
    xs, ts = action_orbit(const_rotation, 0.25, 0.0, 1.0, 4)
    assert xs[4] == pytest.approx(0.25)
    assert ts[4] == pytest.approx(3.2)
    xs, ts = action_orbit(const_rotation, 0.33, 1.5, 1.0, 0)
    assert (xs.tolist(), ts.tolist()) == ([pytest.approx(0.33)], [1.5])


def test_action_power_cycle_mean(swap_pair):
    xs, ts = action_orbit(swap_pair, 0, Fraction(0), Fraction(2), 4)
    assert (xs[4], ts[4]) == (0, 0) and type(ts[4]) is Fraction


def test_power_matches_steps_exact(swap_pair):
    # oracle: exact Fractions from a scalar walk of the table
    rng = np.random.default_rng(3)
    table = rng.permutation(16).tolist()
    h = [int(v) for v in rng.integers(-9, 10, size=16)]
    sys = finite_permutation_system(table, h)
    k = Fraction(1, 3)
    for start in range(0, 16, 3):
        xs, ts = action_orbit(sys, start, Fraction(0), k, 100)
        x, t = start, Fraction(0)
        for n in range(1, 101):
            t, x = t + k - h[x], table[x]
            assert (xs[n], ts[n]) == (x, t) and type(ts[n]) is Fraction


def test_power_matches_steps_rotation(golden_cos):
    rng = np.random.default_rng(0)
    for start in rng.uniform(0, 1, 10):
        xs, ts = action_orbit(golden_cos, float(start), 0.0, 0.7, 200)
        for n in (1, 2, 3, 50, 200):
            x, t = _scalar_action(golden_cos, 0.7, float(start), 0.0, n)
            d = abs(xs[n] - x)
            assert min(d, 1 - d) <= 1e-9
            assert abs(ts[n] - t) <= 1e-9


@pytest.mark.parametrize("angle", ["golden", 0.375, -0.3, 1.7, 1e-300])
def test_action_orbit_points_are_the_exact_rotation(angle):
    # oracle: (x + m Fraction(a)) mod 1, rounded once; angle addition rounds
    # the phase and the sum, each below 2, so a point is within 2**-52 of it
    sys = rotation_system(angle, {"type": "trig", "cos": [[1, 1.0]]}, grid_resolution=16)
    a = Fraction(sys.map_kind["angle"])
    for x in (0.0, 0.1, 0.7071067811865476, 1 - 2**-53):
        xs, _ = action_orbit(sys, x, 0.0, 0.5, 500)
        want = [float((Fraction(x) + m * a) % 1) for m in range(501)]
        d = np.abs(xs - want)
        assert np.minimum(d, 1 - d).max() <= 2**-52
        if 0 <= sys.map_kind["angle"] < 1:  # the phase at m = 1 is the angle itself
            assert xs[1] == step_points(sys, np.array([x]))[0]


def test_action_orbit_checks_its_inputs(cycle3, golden_cos):
    for k in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="size k must be finite"):
            action_orbit(golden_cos, 0.1, 0.0, k, 3)
    with pytest.raises(ValidationError, match="n must be >= 0"):
        action_orbit(cycle3, 0, 0, 1, -1)
    with pytest.raises(BudgetError, match="exceeds iteration budget"):
        action_orbit(cycle3, 0, 0, 1, DEFAULT_MAX_ITERATIONS + 1)


def test_probe_checks_n_max_against_the_budget():
    # a cycle-exact sweep never walks, so it reported n_max = 10**12 with exit 0
    sys = finite_permutation_system([1, 2, 0], ["1/2", "-1/4", "1/4"])
    with pytest.raises(BudgetError, match="n_max = 1000000000000 exceeds iteration budget"):
        probe_sweep(sys, [1.0], n_max=10**12)
    with pytest.raises(ValidationError, match="n_max must be >= 1"):
        probe_sweep(sys, [1.0], n_max=0)


def test_build_mu_checks_n_scan_by_its_own_name(golden_cos):
    # the message was birkhoff_extrema's "n_max must be >= 1"
    with pytest.raises(ValidationError, match="n_scan must be >= 1"):
        build_mu(golden_cos, 2.0, (-2, 2), n_scan=0)
    with pytest.raises(BudgetError, match="n_scan = "):
        build_mu(golden_cos, 2.0, (-2, 2), n_scan=DEFAULT_MAX_ITERATIONS + 1)


@pytest.mark.parametrize("call", [
    lambda sys: build_mu(sys, math.nan, (-2, 2)),  # was NotFoundError, an exit-3 kind
    lambda sys: mapping_torus_profile(sys, math.nan, (-2, 2)),  # was NotFoundError
    lambda sys: build_mu(sys, True, (-2, 2)),  # built at k = 1
    lambda sys: probe_sweep(sys, ["0.5"]),  # ran
    lambda sys: limit_estimates(birkhoff_extrema(sys, n_max=8)).classify("0.5"),  # TypeError
    lambda sys: action_orbit(sys, 0.1, 0.0, "0.5", 3),  # TypeError
    lambda sys: build_g(sys, math.nan, (-2, 2)),  # BudgetError: "k = nan is too large"
    lambda sys: build_g(sys, math.inf, (-2, 2)),  # BudgetError
    lambda sys: build_g(sys, "2", (-2, 2)),  # built at k = 2.0
    lambda sys: build_g(sys, True, (-2, 2)),  # read as k = 1.0
], ids=["build_mu-nan", "profile-nan", "build_mu-bool", "probe-str", "classify-str",
        "action_orbit-str", "build_g-nan", "build_g-inf", "build_g-str", "build_g-bool"])
def test_a_size_that_is_not_a_finite_number_is_a_validation_error(golden_cos, call):
    with pytest.raises(ValidationError, match=r"^size k must be (a number|finite), got "):
        call(golden_cos)


def test_an_order_is_an_integer(golden_cos):
    # True ran as n_max = 1; 2.5 was a TypeError deep in the walk
    calls = [lambda: birkhoff_extrema(golden_cos, None, True),
             lambda: birkhoff_extrema(golden_cos, None, 2.5),
             lambda: probe_sweep(golden_cos, [1.0], n_max=2.5),
             lambda: build_mu(golden_cos, 2.0, (-2, 2), n_scan=2.5)]
    for call in calls:
        with pytest.raises(ValidationError, match=r"^(n_max|n_scan) must be an integer, got "):
            call()
    assert birkhoff_extrema(golden_cos, None, np.int64(4)).n_max == 4  # NumPy ints are orders


@pytest.mark.parametrize("name,value", [("order", 2.5), ("order", True),
                                        ("samples", 2.5), ("samples", True)])
def test_an_order_or_a_sample_count_is_an_integer(golden_cos, name, value):
    # order=2.5 and samples=2.5 or True raised a TypeError, and build_g built
    # at order=True
    mu = build_mu(golden_cos, 1.5, (-2, 2))
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value!r}$"):
        if name == "order":
            build_g(golden_cos, 1.5, (-2, 2), order=value)
        else:
            mu.mu_cocycle_residual(samples=value)


def test_an_empty_sample_is_a_validation_error(golden_cos):
    # build_g raised NumPy's "zero-size array to reduction operation minimum"
    calls = [lambda: build_g(golden_cos, 2.0, (-2, 2), points=[]),
             lambda: build_mu(golden_cos, 2.0, (-2, 2), points=[]),
             lambda: birkhoff_extrema(golden_cos, points=[]),
             lambda: probe_sweep(golden_cos, [2.0], starts=[]),
             lambda: golden_cos.space.sample_points(np.zeros(0)),
             # an empty list of torus points was read as one point of no coordinates
             lambda: cat_map_system(1.0, grid_resolution=8).space.sample_points([])]
    for call in calls:
        with pytest.raises(ValidationError, match="empty sample"):
            call()


def test_action_orbit_at_a_huge_size_is_infinite_without_a_warning(golden_cos):
    # m k overflows from m = 2 on; the suite turns a warning into an error
    xs, ts = action_orbit(golden_cos, 0.0, 0.0, 1e308, 4)
    assert ts[1] == 1e308 - 1.0 and ts[2:].tolist() == [math.inf] * 3
    _, ts = action_orbit(golden_cos, 0.0, 0.0, -1e308, 4)
    assert ts[2:].tolist() == [-math.inf] * 3


def test_band_interval(swap_pair):
    lo, hi = probe_sweep(swap_pair, [3.0], n_max=1)[0].band
    assert lo == pytest.approx(-4.0)
    assert hi == pytest.approx(1.0)


def test_band_contains_zero_when_k_between_bounds(golden_cos):
    # factor range is [-1, 1]; any size inside it keeps 0 in the band
    for rep in probe_sweep(golden_cos, [-0.9, -0.2, 0.0, 0.4, 1.0], n_max=1):
        lo, hi = rep.band
        assert lo <= 0.0 <= hi
        assert lo < hi


def test_probe_constant_recurrent(const_rotation):
    rep, = probe_sweep(const_rotation, [0.2], n_max=200)
    assert rep.verdict == VERDICT_RECURRENT
    assert rep.witness.n == 1


def test_probe_strict_cases(golden_strict):
    rep0, rep5 = probe_sweep(golden_strict, [0.0, 0.5], n_max=2000)
    assert rep0.verdict == VERDICT_RECURRENT
    assert rep0.witness.n <= 3 * golden_strict.space.grid_resolution
    assert rep5.verdict == VERDICT_ESCAPE
    assert rep5.certificate == "telescoping-bound"
    lo, hi = rep5.band
    V = 2.0  # range of sin(2 pi x)
    assert rep5.escape_bound <= math.ceil(2 * V / 0.5) + math.ceil((hi - lo) / 0.5)


def test_probe_finite_exact(swap_pair):
    # cycle means are 2 and 1: sizes off the means escape, means recur
    cases = ((3.0, VERDICT_ESCAPE), (1.5, VERDICT_ESCAPE),
             (2.0, VERDICT_RECURRENT), (1.0, VERDICT_RECURRENT))
    for (k, verdict), rep in zip(cases, probe_sweep(swap_pair, [k for k, _ in cases], n_max=50)):
        assert rep.verdict == verdict, k
        assert rep.certificate == "cycle-exact"
        assert not rep.heuristic


def _brute_cycle_residual(sys):
    """Oracle: sup |S_n(x) - n mean| by walking every start and every 0 < n < L."""
    hv, tbl = sys.factor_table, sys.perm_table
    R = 0
    for cyc, mean in cycle_pairs(cycle_mean_extrema(sys)):
        for start in cyc:
            s, x = 0, start
            for n in range(1, len(cyc)):
                s += hv[x]
                x = tbl[x]
                R = max(R, abs(s - n * mean))
    return R


@pytest.mark.parametrize("seed", range(8))
def test_cycle_residual_bound_matches_double_loop(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    table = rng.permutation(m).tolist()
    q = rng.integers(1, 9, size=m)
    fractions = [Fraction(int(p), int(d)) for p, d in zip(rng.integers(-20, 21, size=m), q)]
    exact = finite_permutation_system(table, fractions)
    assert exact.exact
    R = cycle_mean_extrema(exact).drift_span
    assert R == _brute_cycle_residual(exact)
    floats = finite_permutation_system(table, rng.uniform(-2.0, 2.0, size=m).tolist())
    R = cycle_mean_extrema(floats).drift_span
    assert R == pytest.approx(_brute_cycle_residual(floats), rel=1e-12, abs=1e-12)


def test_probe_cat_map_escape():
    from lcsdyn import cat_map_system

    sys = cat_map_system({"type": "trig2", "terms": [[1, 0, 0.3, 0.0]]},
                         grid_resolution=16)
    rep, = probe_sweep(sys, [2.0], n_max=300, starts=16)
    assert rep.verdict == VERDICT_ESCAPE
    assert rep.heuristic


def _probe_oracle(sys, k, n_max, starts=None, late_fraction=0.5):
    """One size probed on its own, as before sweeps shared work: its own factor
    range, cycle decomposition and whole (n_max, P) table of partial sums.
    On an exact table k is a cycle mean only when Fraction(k) is one."""
    from lcsdyn import ergopt
    from lcsdyn.core import eval_factor, orbit_array, reference_points, sampled_bounds
    from lcsdyn.torus import ProbeReport, Witness

    k = float(k)
    if starts is None:
        starts = sys.space.size if sys.space.kind == "finite" else 64
    pts = sys.space.sample_points(starts)
    hmin, hmax = sampled_bounds(sys, sys.factor, reference_points(sys))
    lo, hi = -max(hmax, k - hmin), -min(hmin, k - hmax)
    width = hi - lo
    heuristic = sys.space.kind != "finite"

    def report(verdict, witness, bound, certificate, heur):
        return ProbeReport(k, (lo, hi), verdict, witness, bound, certificate, heur,
                           n_max, len(pts))

    t0 = 0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi)
    if sys.space.kind == "finite" and sys.perm_table is not None:
        dec = ergopt.cycle_mean_extrema(sys)
        R = dec.drift_span
        means = [float(mean) for _cyc, mean in cycle_pairs(dec)]
        if sys.exact:
            gaps = [abs(k - m) for m in means]
            exact_gaps = [abs(Fraction(k) - mean) for _cyc, mean in cycle_pairs(dec)]
            on_mean = 0 in exact_gaps
        else:  # a mean within its rounding bound of k may be k
            eps, h = np.finfo(float).eps, sys.factor_table
            gaps = [abs(k - m) - eps * (len(c) + 1) * sum(abs(h[x]) for x in c) / len(c)
                    for (c, _mean), m in zip(cycle_pairs(dec), means)]
            on_mean = min(gaps) <= 0
        if not on_mean:  # an exact table's gaps and width are exact
            n0 = (max(math.floor((Fraction(hi) - Fraction(lo) + R) / e) + 1 for e in exact_gaps)
                  if sys.exact else max(math.floor((width + R) / g) + 1 for g in gaps))
            return report(VERDICT_ESCAPE, None, n0, "cycle-exact", False)
        idx = gaps.index(min(gaps))
        cyc, _ = cycle_pairs(dec)[idx]
        wit = Witness(int(cyc[0]), len(cyc), t0 + len(cyc) * (k - means[idx]))
        return report(VERDICT_RECURRENT, wit, None, "cycle-exact", not sys.exact)
    if sys.generating_f is not None and k != 0.0:
        fv = eval_factor(replace(sys, factor=sys.generating_f), reference_points(sys))
        n0 = int(math.floor((width + float(fv.max() - fv.min())) / abs(k))) + 1
        return report(VERDICT_ESCAPE, None, n0, "telescoping-bound", heuristic)
    sums = np.cumsum(orbit_array(sys, pts, n_max), axis=0)
    A = sums / np.arange(1, n_max + 1, dtype=float)[:, None]
    sup_env = np.maximum.accumulate(A[::-1], axis=0)[::-1].max(axis=1)
    inf_env = np.minimum.accumulate(A[::-1], axis=0)[::-1].min(axis=1)
    ns = np.arange(1, n_max + 1)
    margin = 1e-12 * max(1.0, abs(k))
    best = []
    up = sup_env < k - margin
    if np.any(up):
        best.append(int(np.maximum(ns[up], np.floor(width / (k - sup_env[up])) + 1).min()))
    down = inf_env > k + margin
    if np.any(down):
        best.append(int(np.maximum(ns[down], np.floor(width / (inf_env[down] - k)) + 1).min()))
    if best:
        return report(VERDICT_ESCAPE, None, min(best), "envelope", True)
    t_vals = t0 + k * ns[:, None] - sums
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    in_band = (t_vals >= lo - tol) & (t_vals <= hi + tol)
    if np.any(in_band) and ns[np.any(in_band, axis=1)].max() >= max(
            1, math.ceil(late_fraction * n_max)):
        n_idx, p_idx = np.argwhere(in_band)[0]
        start = pts[p_idx] if pts.ndim > 1 else pts[p_idx].item()
        wit = Witness(start, int(ns[n_idx]), float(t_vals[n_idx, p_idx]))
        return report(VERDICT_RECURRENT, wit, None, "orbit-returns", heuristic)
    return report(VERDICT_INCONCLUSIVE, None, None, "none", heuristic)


def _sweep_case(name):
    """(system, sizes, n_max, starts, certificates the sweep must show)."""
    from lcsdyn import cat_map_system

    if name == "golden-cos":
        sys = rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]}, grid_resolution=128)
        return sys, np.arange(-1.5, 1.75, 0.5), 300, None, {"envelope", "orbit-returns"}
    if name == "cat16":
        sys = cat_map_system({"type": "trig2", "terms": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]},
                             grid_resolution=16)
        # lattice starts in a shuffled order: the first return is not at p = 0
        pts = sys.space.sample_points(16)
        starts = pts[np.random.default_rng(0).permutation(len(pts))][:24].tolist()
        return sys, np.arange(-2.0, 2.25, 0.25), 200, starts, {"envelope", "orbit-returns", "none"}
    if name == "strict":
        f = {"type": "trig", "sin": [[1, 1.0]]}
        sys = rotation_system("golden", {"type": "coboundary", "f": f}, grid_resolution=512)
        return sys, [-1.0, -0.5, 0.0, 0.5, 1.0], 1000, None, {"telescoping-bound", "orbit-returns"}
    if name == "identity":
        sys = rotation_system(0.0, {"type": "trig", "cos": [[1, 1.0]]})
        return sys, [-0.3, 0.0, 0.3], 50, [0.0, 0.3], {"none", "orbit-returns"}
    # cycles (0 1 2), (3 4), (5) with means 1, 0 and 2
    sys = finite_permutation_system([1, 2, 0, 4, 3, 5], ["1/2", "3/2", "1", "-1/3", "1/3", "2"])
    return sys, [-1.0, 0.0, 0.5, 1.0, 2.0, 2.5], 50, None, {"cycle-exact"}


def test_exact_probe_reports_match_a_per_cycle_probe_on_repeated_means():
    # the sweep compares each size with the distinct cycle means only; every
    # mean here is v / 4 on many cycles of lengths 1 to 4, listed in shuffled
    # states, so a mean's first cycle is not its only one
    rng = np.random.default_rng(41)
    lengths = rng.integers(1, 5, size=48).tolist()
    labels = rng.permutation(sum(lengths)).tolist()
    table, values, at = [0] * len(labels), [0] * len(labels), 0
    for L in lengths:
        mean = Fraction(int(rng.integers(-4, 5)), 4)
        d = [Fraction(int(rng.integers(-3, 4)), 8) for _ in range(L - 1)]
        for i, v in enumerate(d + [-sum(d, Fraction(0))]):
            table[labels[at + i]] = labels[at + (i + 1) % L]
            values[labels[at + i]] = mean + v
        at += L
    sys = finite_permutation_system(table, values)
    assert len(set(cycle_mean_extrema(sys).means)) < len(lengths) // 4
    ks = [v / 8 for v in range(-10, 11)] + [0.3, 1 / 7, -2.75]
    sweep = encoded(probe_sweep(sys, ks, n_max=20))
    assert sweep == encoded([_probe_oracle(sys, k, 20, None) for k in ks])
    assert {r["verdict"] for r in sweep} == {VERDICT_ESCAPE, VERDICT_RECURRENT}


@pytest.mark.parametrize("name", ["golden-cos", "cat16", "strict", "identity", "perm"])
def test_probe_sweep_equals_per_size_probes(name):
    from lcsdyn.torus import probe_sweep

    sys, ks, n_max, starts, certificates = _sweep_case(name)
    sweep = encoded(probe_sweep(sys, ks, n_max=n_max, starts=starts))
    assert sweep == encoded([_probe_oracle(sys, k, n_max, starts) for k in ks])
    assert sweep == encoded([probe_sweep(sys, [k], n_max=n_max, starts=starts)[0]
                             for k in ks])
    assert {r["certificate"] for r in sweep} == certificates
    if name == "cat16":
        assert any(r["witness"] and r["witness"]["start"] != starts[0] for r in sweep)


def test_probe_sweep_shares_the_k_independent_work(monkeypatch):
    from lcsdyn import ergopt, torus

    calls = {"sampled_bounds": 0, "cycles": 0, "residual": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(torus, "sampled_bounds", counted("sampled_bounds", torus.sampled_bounds))
    monkeypatch.setattr(ergopt, "cycle_mean_extrema",
                        counted("cycles", ergopt.cycle_mean_extrema))
    monkeypatch.setattr(ergopt, "_drift_span", counted("residual", ergopt._drift_span))
    sys, ks, n_max, starts, _ = _sweep_case("perm")
    assert len(torus.probe_sweep(sys, ks, n_max=n_max, starts=starts)) == len(ks)
    assert calls == {"sampled_bounds": 1, "cycles": 1, "residual": 1}


def test_a_float_k_within_a_means_rounding_bound_is_heuristic_recurrence():
    # 2^55 + 2 + 2 sums to 2^55 in floats, so the float mean 12009599006321322
    # is 2 below k = (2^55 + 4) / 3, the exact mean of the table's values:
    # S_3 - 3k = 0 and the cycle's band orbits are periodic.  The mean's
    # rounding bound 32/3 covers the gap; admissible calls k boundary
    sys = finite_permutation_system([1, 2, 0], [2.0**55, 2.0, 2.0])
    k = 12009599006321324.0
    assert 3 * Fraction(k) == 2**55 + 4
    rep, = probe_sweep(sys, [k], n_max=10)
    assert (rep.verdict, rep.certificate, rep.heuristic) == (
        VERDICT_RECURRENT, "cycle-exact", True)
    assert (rep.witness.start, rep.witness.n, rep.escape_bound) == (0, 3, None)
    est = limit_estimates(birkhoff_extrema(sys, n_max=2))
    assert est.classify(k) == "boundary" and est.error_bound == pytest.approx(32 / 3)


@pytest.mark.parametrize("values,k", [([2.0**55, 2.0, 2.0], 12009599006321344.0),
                                      ([0.1], 0.1 + 1e-13)])
def test_a_float_k_past_its_means_rounding_bound_escapes_by_the_reduced_gap(values, k):
    table = list(range(1, len(values))) + [0]
    sys = finite_permutation_system(table, values)
    dec = cycle_mean_extrema(sys)
    (m,), (b,) = dec.means, dec.rounding_bounds
    assert abs(k - m) > b
    rep, = probe_sweep(sys, [k], n_max=10)
    assert (rep.verdict, rep.certificate, rep.heuristic) == (VERDICT_ESCAPE, "cycle-exact", False)
    width = rep.band[1] - rep.band[0]
    assert rep.escape_bound == math.floor((width + dec.drift_span) / (abs(k - m) - b)) + 1
    # the Fraction oracle: the exact drift passes the band and the exact span
    exact = finite_permutation_system(table, [Fraction(v) for v in values])
    gap = abs(Fraction(k) - sum(exact.factor_table) / len(values))
    assert rep.escape_bound * gap > Fraction(width) + _brute_cycle_residual(exact)


def test_probe_decides_an_exact_cycle_mean_exactly():
    # no float is 1/3: a float k near it drifts by the exact gap |k - 1/3|
    # per step, so it escapes (the Fraction oracle: Fraction(k) is no cycle
    # mean); a float within 1e-12 of it was taken for the mean
    third = float(Fraction(1, 3))
    ks = [math.nextafter(third, 0.0), third, math.nextafter(third, 1.0), 0.25, 0.375]
    for values in (["1/3"], ["0", "2/3"], ["1/4", "1/2"]):
        sys = finite_permutation_system(list(range(1, len(values))) + [0], values)
        mean = sum(map(Fraction, values)) / len(values)  # the one cycle's mean
        R = _brute_cycle_residual(sys)
        for k, rep in zip(ks, probe_sweep(sys, ks, n_max=50)):
            assert rep.certificate == "cycle-exact" and not rep.heuristic
            if Fraction(k) == mean:
                assert rep.verdict == VERDICT_RECURRENT and rep.witness.t == 0.0
                continue
            assert rep.verdict == VERDICT_ESCAPE, (values, k)
            gap = abs(Fraction(k) - mean)
            width = Fraction(rep.band[1]) - Fraction(rep.band[0]) + R
            if gap <= 1e-12:  # the drift passes the band and the residual after the bound
                assert rep.escape_bound == math.floor(width / gap) + 1
                assert rep.escape_bound * gap > width


@pytest.mark.parametrize("values", [["1/3"], ["0", "2/3"]])
@pytest.mark.parametrize("offset", [2e-12, 1e-11, 1e-9])
def test_escape_bound_of_a_tiny_exact_gap_is_exact(values, offset):
    # the Fraction oracle: the drift of n exact gaps |k - 1/3| first passes
    # the band and the cycle residual at n = escape_bound; a float gap above
    # 1e-12 carried its rounding into the bound (166665727696 instead of
    # 166667269669 for ["1/3"] at +2e-12)
    sys = finite_permutation_system(list(range(1, len(values))) + [0], values)
    k = float(Fraction(1, 3)) + offset
    rep = probe_sweep(sys, [k], n_max=10)[0]
    assert rep.verdict == VERDICT_ESCAPE and rep.certificate == "cycle-exact"
    gap = abs(Fraction(k) - Fraction(1, 3))
    width = Fraction(rep.band[1]) - Fraction(rep.band[0]) + _brute_cycle_residual(sys)
    assert rep.escape_bound * gap > width
    assert (rep.escape_bound - 1) * gap <= width


# the three escape formulas that probe_sweep wrote out before it had one


def _cycle_exact_formula(width, gaps):  # width = hi - lo + R
    return max(math.floor(width / g) + 1 for g in gaps)


def _telescoping_formula(lo, hi, V, k):
    return int(math.floor((hi - lo + V) / abs(k))) + 1


def _envelope_formula(width, k, sup_env, inf_env, margin):
    ns = np.arange(1, len(sup_env) + 1)
    best = None
    up = sup_env < k - margin
    if np.any(up):
        best = int(np.maximum(ns[up], np.floor(width / (k - sup_env[up])) + 1).min())
    down = inf_env > k + margin
    if np.any(down):
        cand = int(np.maximum(ns[down], np.floor(width / (inf_env[down] - k)) + 1).min())
        best = cand if best is None else min(best, cand)
    return best


def _magnitudes(rng, size, lo=-6.0, hi=3.0):
    return 10.0 ** rng.uniform(lo, hi, size) * rng.uniform(0.5, 1.0, size)


def test_escape_bound_is_the_float_formulas():
    rng = np.random.default_rng(20)
    for _ in range(400):
        lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2) * _magnitudes(rng, 2)).tolist()
        V, R = _magnitudes(rng, 2).tolist()
        k = float(rng.choice([-1.0, 1.0]) * _magnitudes(rng, 1)[0])
        n0 = torus._escape_bound(hi - lo, V, abs(k))
        assert type(n0) is int and n0 == _telescoping_formula(lo, hi, V, k)
        gaps = _magnitudes(rng, 3, -12.0, 1.0).tolist()
        # the probe takes the nearest cycle mean: the quotient falls as the gap grows
        assert (max(torus._escape_bound(hi - lo, R, g) for g in gaps)
                == torus._escape_bound(hi - lo, R, min(gaps))
                == _cycle_exact_formula(hi - lo + R, gaps))


def test_escape_bound_is_the_exact_formula_on_fractions():
    rng = np.random.default_rng(21)
    for _ in range(300):
        lo, hi = sorted(Fraction(int(v), 1 + int(d)) for v, d in
                        zip(rng.integers(-10**6, 10**6, 2), rng.integers(0, 10**4, 2)))
        R = Fraction(int(rng.integers(0, 10**6)), int(rng.integers(1, 10**3)))
        gaps = [Fraction(1, int(d)) for d in rng.integers(1, 10**9, 3)]
        n0 = torus._escape_bound(hi - lo, R, min(gaps))
        assert type(n0) is int and n0 == _cycle_exact_formula(hi - lo + R, gaps)
        assert n0 == max(torus._escape_bound(hi - lo, R, g) for g in gaps)
        assert (n0 - 1) * min(gaps) <= hi - lo + R < n0 * min(gaps)


def test_escape_bound_is_the_envelope_formula_on_arrays():
    rng = np.random.default_rng(22)
    for n_max in (1, 7, 300):
        ns = np.arange(1, n_max + 1)
        for _ in range(100):
            sup_env = np.sort(rng.uniform(-1.0, 1.0, n_max))[::-1]
            inf_env = np.minimum(sup_env, np.sort(rng.uniform(-1.0, 1.0, n_max)))
            k, width = rng.uniform(-1.5, 1.5), float(_magnitudes(rng, 1)[0])
            margin = 1e-12 * max(1.0, abs(k))
            up, down = sup_env < k - margin, inf_env > k + margin
            sides = [torus._escape_bound(width, 0, k - sup_env[up], ns[up]),
                     torus._escape_bound(width, 0, inf_env[down] - k, ns[down])]
            assert np.array_equal(sides[0], np.maximum(
                ns[up], np.floor(width / (k - sup_env[up])) + 1))
            both = np.concatenate(sides)
            best = int(both.min()) if both.size else None
            assert best == _envelope_formula(width, k, sup_env, inf_env, margin)


def test_escape_bound_floors_the_quotient():
    # 1.0 / 0.1 rounds to 10.0, but 1.0 // 0.1 is 9.0: floor division would
    # move the bound by one
    assert 1.0 // 0.1 == 9.0 and math.floor(1.0 / 0.1) == 10
    assert torus._escape_bound(1.0, 0.0, 0.1) == 11 == _telescoping_formula(0.0, 1.0, 0.0, 0.1)
    assert torus._escape_bound(1.0, 0, np.array([0.1]), np.array([1])).tolist() == [11.0]
    assert torus._escape_bound(1.0, 0, np.array([0.1]), np.array([20])).tolist() == [20.0]


@pytest.mark.parametrize("gap", [1e-310, 5e-324])
def test_escape_bound_floors_an_overflowing_quotient_exactly(gap):
    width, V = 3.728116512597886, 2.0
    with pytest.raises(OverflowError):  # the float formula
        _telescoping_formula(0.0, width, V, gap)
    n0 = torus._escape_bound(width, V, gap)
    assert n0 == math.floor(Fraction(width + V) / Fraction(gap)) + 1
    assert (n0 - 1) * Fraction(gap) <= Fraction(width + V) < n0 * Fraction(gap)


def test_probe_inconclusive():
    # identity map: averages never move, no drift certificate; the two starts
    # brush the band early and then leave for the whole late window
    sys = rotation_system(0.0, {"type": "trig", "cos": [[1, 1.0]]})
    rep, = probe_sweep(sys, [0.3], n_max=50, starts=[0.0, 0.3])
    assert rep.verdict == VERDICT_INCONCLUSIVE


def test_cutoff_examples():
    c = build_cutoff(2.0)
    assert c.mollifier_width == pytest.approx(0.2)
    s = np.linspace(-0.5, 1.5, 40001)
    sup = c.prime(s).max()
    assert sup == pytest.approx(1 / 0.6, abs=1e-6)
    assert sup < 2.0
    tight = build_cutoff(1.01)
    assert tight.mollifier_width == pytest.approx(0.00495, abs=5e-5)
    assert tight.prime(s).max() < 1.01


def test_cutoff_bound_one_infeasible():
    with pytest.raises(InfeasibleError):
        build_cutoff(1.0)


CUTOFF_BOUNDS = [1.0001, 1.01, 1.5, 2.0, 10.0, 1e6]


def _mollifier(bound, table_size):
    """build_cutoff's grid u and bump phi, restated as the SciPy oracle's input."""
    d = min(0.2, 0.999 * (1.0 - 1.0 / bound) / 2.0)
    u = np.linspace(-d, d, table_size)
    with np.errstate(divide="ignore", over="ignore"):
        arg = 1.0 - (u / d) ** 2
        phi = np.where(arg > 0, np.exp(-1.0 / np.maximum(arg, 1e-300)), 0.0)
    return u, phi


@pytest.mark.parametrize("table_size", [3, 4, 5, 101, 32769])
@pytest.mark.parametrize("bound", CUTOFF_BOUNDS)
def test_cumulative_simpson_matches_scipy_on_cutoff_grids(bound, table_size):
    integrate = pytest.importorskip("scipy.integrate")
    u, phi = _mollifier(bound, table_size)
    for y in (phi, u * phi):
        want = integrate.cumulative_simpson(y, x=u, initial=0.0)
        assert _cumulative_simpson(y, u).tobytes() == want.tobytes()


def test_cumulative_simpson_matches_scipy_on_random_grids():
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(11)
    for size in [3, 4, 5, 6, 7, 64, 1001]:
        for _ in range(10):
            x = np.cumsum(rng.uniform(1e-3, 2.0, size)) - rng.uniform(0.0, 5.0)
            y = rng.normal(size=size)
            want = integrate.cumulative_simpson(y, x=x, initial=0.0)
            assert _cumulative_simpson(y, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("bound", CUTOFF_BOUNDS)
def test_cutoff_tables_match_scipy(bound):
    integrate = pytest.importorskip("scipy.integrate")
    c = build_cutoff(bound)
    u, phi = _mollifier(bound, c._grid.size)
    cdf = integrate.cumulative_simpson(phi, x=u, initial=0.0)
    mass = cdf[-1]
    moment = integrate.cumulative_simpson(u * phi, x=u, initial=0.0) / mass
    assert c._grid.tobytes() == u.tobytes()
    assert c._cdf.tobytes() == (cdf / mass).tobytes()
    assert c._moment.tobytes() == moment.tobytes()


def test_cutoff_shape():
    c = build_cutoff(1.5)
    assert c(-0.2) == 0.0 and c(0.0) == 0.0
    assert c(1.0) == 1.0 and c(3.7) == 1.0
    s = np.linspace(-1, 2, 3001)
    p = c.prime(s)
    assert np.all(p >= 0)
    assert np.all(p[(s <= 0) | (s >= 1)] == 0)
    vals = c(s)
    assert np.all(np.diff(vals) >= -1e-12)


def test_build_g_integer_times(const_rotation):
    g = build_g(const_rotation, 1.0, (-10, 10))
    for m in range(1, 10):
        for x in (0.0, 0.37, 0.9):
            assert g.g(x, -float(m)) == pytest.approx(0.2 * m, abs=1e-12)


def test_build_g_functional_equation(const_rotation, golden_cos):
    g = build_g(const_rotation, 1.0, (-10, 10))
    assert g.functional_residual() <= 1e-9
    g2 = build_g(golden_cos, 1.5, (-6, 6))
    assert g2.functional_residual() <= 1e-9


def test_build_g_positive_slope_margin(const_rotation):
    g = build_g(const_rotation, 1.0, (-10, 10))
    assert g.slope_margin() > 0
    assert g.k > 0  # the slope dt g + k carries the sign of k
    # trailing sum only, for t past the window's positive side
    assert g.g(0.3, 2.5) == pytest.approx(-0.2 * (1 + 1 + 0.5), abs=1e-9)


def test_build_g_mirrored(const_rotation):
    g = build_g(const_rotation, -1.0, (-5, 5))
    assert g.mirrored
    assert g.k < 0
    assert g.functional_residual() <= 1e-9
    ts = np.linspace(-4, 4, 81)
    pts = const_rotation.space.sample_points(32)
    assert np.all(g.dt(pts, ts[:, None]) + (-1.0) < 0)


def test_build_g_precondition_violations(const_rotation, golden_cos):
    with pytest.raises(DomainError):
        build_g(golden_cos, 0.3, (-5, 5))  # k inside the factor range
    with pytest.raises(InfeasibleError):
        build_g(const_rotation, 0.1, (-5, 5))  # 0 < k < h
    with pytest.raises(InfeasibleError):
        neg = rotation_system(0.5, -0.2)
        build_g(neg, -0.1, (-5, 5))  # h < k < 0
    with pytest.raises(BudgetError):
        build_g(const_rotation, 1.0, (-1e9, 1e9))


def test_a_negative_size_inside_the_range_names_the_given_size():
    # a negative k inside the sampled range at the points is named as given
    sys = rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]}, grid_resolution=3)
    with pytest.raises(DomainError, match=r"^k = -0\.4 lies in the sampled factor range "
                                          r"\[-0\.5, 1\]$"):
        build_g(sys, -0.4, (-2, 2))


def _three_mode_system(a, b, grid):
    """The golden rotation with h = cos 2 pi x + a cos 6 pi x + b sin 4 pi x."""
    return rotation_system("golden", {"type": "trig", "cos": [[1, 1.0], [3, a]],
                                      "sin": [[2, b]]}, grid_resolution=grid)


@pytest.mark.parametrize("a,b,grid,k,order", [
    (0.5, -0.5, 64, -0.54, 4),
    (0.5, 0.5, 64, -0.63, 3),
    (-0.5, -0.5, 64, -1.57, 1),
    (-0.25, 0.25, 64, -0.06, 8),
])
def test_a_scanned_negative_order_builds(a, b, grid, k, order):
    # the ramp edge was read at psi^{-1} p, past the scan's min A_n at p:
    # each raised DomainError, "k lies in the sampled factor range"
    mu = build_mu(_three_mode_system(a, b, grid), k, (-2, 2))
    assert mu.gcons.order == order and mu.gcons.mirrored
    assert mu.gcons.functional_residual() <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_the_ramp_edge_is_the_scan_extreme_at_its_order(seed, monkeypatch):
    # both read A_n at the sample points, summed in order from row 0 and
    # divided by n: the edge is the scan's extreme bit for bit
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-0.5, 0.5, size=2).tolist()
    sys = _three_mode_system(a, b, int(rng.choice([64, 256])))
    ext = birkhoff_extrema(sys, reference_points(sys), 64).extrema_per_n
    n = int(rng.integers(1, 20))
    sign = 1 if seed % 2 else -1
    side = "max_avg" if sign > 0 else "min_avg"
    k = float(ext[side][n - 1]) + sign * rng.uniform(1e-6, 1e-3)
    edges, ramp_side = [], torus._ramp_side
    monkeypatch.setattr(torus, "_ramp_side", lambda k, v: edges.append(ramp_side(k, v)) or
                        edges[-1])
    order = build_mu(sys, k, (-2, 2)).gcons.order
    assert order <= n and edges == [float(ext[side][order - 1])]


def test_grid_matches_scalar(const_rotation):
    g = build_g(const_rotation, 1.0, (-10, 10))
    pts = const_rotation.space.sample_points(7)
    ts = np.array([-3.3, -0.5, 0.0, 1.7])
    grid = g.g(pts, ts[:, None])
    for r, t in enumerate(ts):
        for c, x in enumerate(pts):
            assert grid[r, c] == pytest.approx(g.g(float(x), float(t)), abs=1e-12)
    dgrid = g.dt(pts, ts[:, None])
    for r, t in enumerate(ts):
        for c, x in enumerate(pts):
            assert dgrid[r, c] == pytest.approx(g.dt(float(x), float(t)), abs=1e-12)
    # a lone point is a batch of one against every time
    assert np.array_equal(g.g(float(pts[2]), ts[:, None]), grid[:, 2:3])
    assert np.array_equal(g.dt(float(pts[2]), ts), dgrid[:, 2])


@pytest.mark.parametrize("bound", [1.001, 1.01, 1.2, 2.0, 1e6])
def test_cutoff_is_symmetric_about_one_half(bound):
    # g = sum_m ([m >= 0] - chi(t + 1 + m)) A(psi^m x) serves both signs of
    # k because chi(1 - s) = 1 - chi(s), so chi'(1 - s) = chi'(s)
    c = build_cutoff(bound)
    s = np.linspace(-0.1, 1.1, 200001)
    assert np.max(np.abs(c(s) + c(1.0 - s) - 1.0)) <= 1e-14
    assert np.max(np.abs(c.prime(s) - c.prime(1.0 - s))) <= 1e-12


def test_cutoff_prime_is_the_derivative():
    # tabulated chi' must match a central difference of chi through the
    # transition (the slope checks on g rest on this consistency); the
    # deviation is interpolation error near the ramp corners, O(phi_max * h)
    c = build_cutoff(1.7)
    s = np.linspace(0.01, 0.99, 197)
    eps = 1e-6
    fd = (c(s + eps) - c(s - eps)) / (2 * eps)
    assert np.max(np.abs(fd - c.prime(s))) < 1e-4


def _unmasked_cutoff(c, s, derivative):
    """chi (or chi') with the quadrature read at every entry, plateaus included."""
    s = np.asarray(s, dtype=float)
    d = c.mollifier_width
    a = np.clip(s - 1.0 + d, -d, d)
    b = np.clip(s - d, -d, d)
    cdf_a = np.interp(a, c._grid, c._cdf)
    cdf_b = np.interp(b, c._grid, c._cdf)
    if derivative:
        out = np.maximum(cdf_b - cdf_a, 0.0) / (1.0 - 2.0 * d)
        return np.where((s <= 0.0) | (s >= 1.0), 0.0, out)
    m_a = np.interp(a, c._grid, c._moment)
    m_b = np.interp(b, c._grid, c._moment)
    with np.errstate(invalid="ignore"):  # inf * 0 at s = +-inf
        mid = cdf_a + ((s - d) * (cdf_b - cdf_a) - (m_b - m_a)) / (1.0 - 2.0 * d)
    mid = np.clip(mid, 0.0, 1.0)
    return np.where(s <= 0.0, 0.0, np.where(s >= 1.0, 1.0, mid))


@pytest.mark.parametrize("bound", [1.01, 1.7, 3.0])
def test_cutoff_reads_its_tables_only_off_the_plateaus(bound):
    # the masked cutoff is the unmasked formula bit for bit, at the plateau
    # edges and the ramp corners, one ulp either side, at +-inf and NaN
    c = build_cutoff(bound)
    d = c.mollifier_width
    edges = np.array([0.0, 1.0, d, 1.0 - d])
    special = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                              [-0.0, np.inf, -np.inf, np.nan]])
    rng = np.random.default_rng(9)
    # chi and chi' read together (as the g and dt g tables do) are the same
    # bits as each read alone
    for s in special:  # a scalar gives a float
        chi, slope = c._values(s)
        for got, want in ((c(s), _unmasked_cutoff(c, s, False)), (chi, c(s)),
                          (c.prime(s), _unmasked_cutoff(c, s, True)), (slope, c.prime(s))):
            assert type(got) is float
            assert np.array_equal(got, want, equal_nan=True)
    grid = rng.uniform(-1.5, 2.5, size=(7, 30))
    grid.flat[:special.size] = special
    rows = grid[None] + np.arange(-3.0, 3.0).reshape(-1, 1, 1)  # (rows, T, P)
    for s in (grid, rows):
        chi, slope = c._values(s)
        assert np.array_equal(c(s), _unmasked_cutoff(c, s, False), equal_nan=True)
        assert np.array_equal(c.prime(s), _unmasked_cutoff(c, s, True), equal_nan=True)
        assert np.array_equal(chi, c(s), equal_nan=True)
        assert np.array_equal(slope, c.prime(s), equal_nan=True)
        assert c(s).shape == c.prime(s).shape == chi.shape == slope.shape == s.shape


def test_dt_attainable_covers_direct_samples(const_rotation, golden_cos):
    # the product sampling (chi' values x orbit factor values) must cover
    # every directly evaluated slope value
    for sys, k in ((const_rotation, 1.0), (golden_cos, 1.6)):
        g = build_g(sys, k, (-6, 6))
        vals = np.sort(np.multiply.outer(*g.dt_attainable()).ravel())
        pts = sys.space.sample_points(64)
        ts = np.linspace(-5.5, 5.5, 333)
        direct = g.dt(pts, ts[:, None]).ravel()
        idx = np.searchsorted(vals, direct)
        idx = np.clip(idx, 1, len(vals) - 1)
        nearest = np.minimum(np.abs(vals[idx] - direct), np.abs(vals[idx - 1] - direct))
        assert float(nearest.max()) < 2e-3


def test_build_mu_constant(const_rotation):
    mu = build_mu(const_rotation, 1.0, (-10, 10))
    assert mu.gcons.order == 1
    assert mu.mu_cocycle_residual(samples=300, rng=0) <= 1e-9
    assert mu.gcons.slope_margin() > 0.5


def test_build_mu_strict(golden_strict):
    mu = build_mu(golden_strict, 1.0, (-10, 10))
    assert mu.mu_cocycle_residual(samples=300, rng=0) <= 1e-7


@pytest.mark.parametrize("k", [2.0, -2.0])
def test_build_mu_cat_map(k):
    # a single torus point is a 2-vector: A_n must treat it as one point, not
    # as a batch of two circle points (the mirrored branch runs at k < 0)
    from lcsdyn import cat_map_system

    sys = cat_map_system({"type": "trig2", "terms": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]},
                         grid_resolution=16)
    mu = build_mu(sys, k, (-2, 2))
    assert mu.mu_cocycle_residual(samples=32, rng=0) <= 1e-7


def test_build_mu_not_found(const_rotation):
    with pytest.raises(NotFoundError):
        build_mu(const_rotation, 0.2, (-5, 5))  # k equals every average
    with pytest.raises(NotFoundError):
        build_mu(const_rotation, 0.1, (-5, 5))  # wrong side for the ramp
    with pytest.raises(NotFoundError):
        build_mu(const_rotation, 0.0, (-5, 5))


def test_sigma_inversion_roundtrip(const_rotation):
    mu = build_mu(const_rotation, 1.0, (-8, 8))
    for x in (0.1, 0.6):
        for t in (-3.0, 0.0, 2.5):
            s = mu.sigma_t(x, t)
            assert mu.invert_sigma_t(x, s) == pytest.approx(t, abs=1e-9)


def test_conjugation_identity(const_rotation, golden_strict):
    # with sigma_c(x, t) = (x, g + t c k + f_n), the t-components of
    # sigma_c o rho_1 and rho_(ck) o sigma_c differ by g(psi x, t+1) - g(x, t)
    # + h + f_n o psi - f_n for every c: the g functional residual, once the
    # transfer identity A_n = h + f_n o psi - f_n holds
    for sys in (const_rotation, golden_strict):
        g = build_mu(sys, 1.0, (-10, 10)).gcons
        pts = reference_points(sys, cap=256)
        assert g.functional_residual(pts, np.linspace(-5.0, 5.0, 101)) <= 1e-9
        assert np.max(coboundary_residual_curve(sys, g.order, pts)) <= 1e-9


def test_mu_monotone_slope_sign(const_rotation):
    mu = build_mu(const_rotation, 1.0, (-8, 8))
    pts = const_rotation.space.sample_points(32)
    ts = np.linspace(-6, 6, 121)
    slopes = mu.gcons.dt(pts, ts[:, None]) + mu.gcons.k
    assert np.all(np.sign(slopes) == np.sign(mu.gcons.k))


# --------------------------------------------------------------------------
# batched g, dt g and sigma^{-1} against independent references
# --------------------------------------------------------------------------


def _batch_system(name):
    from lcsdyn import cat_map_system

    if name == "rotation":
        return rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]},
                               grid_resolution=128)
    if name == "cat":
        return cat_map_system({"type": "trig2", "terms": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]},
                              grid_resolution=16)
    values = [0, Fraction(1, 2), Fraction(1, 4), Fraction(-1, 2), Fraction(1, 3)]
    return finite_permutation_system([1, 2, 0, 4, 3], values)


# (system, k): k above the factor range takes the direct branch, below it
# the mirrored one
BATCH_CASES = [("rotation", 1.5), ("rotation", -1.5), ("cat", 2.0), ("cat", -2.0),
               ("perm", 1.0), ("perm", -1.0)]


def _random_points(sys, rng, n):
    kind = sys.space.kind
    if kind == "finite":
        return rng.integers(0, sys.space.size, size=n)
    if kind == "circle":
        return rng.uniform(0.0, 1.0, size=n)
    return rng.uniform(0.0, 1.0, size=(n, 2))


def _reference_series(gcons, x, t, derivative):
    """g(x, t) (or dt g) summed term by term along orbits walked one point at
    a time with the scalar maps psi and psi^{-1}, with a = h(psi^i x) for
    i < ceil(-t) and b = h(psi^{-i-1} x) for i < ceil(t).

    Direct branch:    g = sum (1 - chi(t+1+i)) a_i - sum chi(t-i) b_i
    Mirrored branch (the direct one for (psi^{-1}, -h o psi^{-1}, -k) at -t):
                      g = sum chi(-t-i) a_i - sum (1 - chi(1-t+i)) b_i
    and dt g is the t-derivative of each.
    """
    sys, chi, prime = gcons.system, gcons.cutoff, gcons.cutoff.prime

    def walk(y, step, count, h=scalar_factor(sys)):
        for _ in range(count):
            yield float(h(y))
            y = step(y)

    x0 = sys.space.sample_points([x])[0]
    psi, psi_inv = scalar_map(sys), scalar_map(sys, inverse=True)
    a = list(enumerate(walk(x0, psi, math.ceil(-t))))
    b = list(enumerate(walk(psi_inv(x0), psi_inv, math.ceil(t))))
    if not gcons.mirrored and not derivative:
        return sum((1.0 - chi(t + 1 + i)) * h for i, h in a) - sum(chi(t - i) * h for i, h in b)
    if not gcons.mirrored:
        return -sum(prime(t + 1 + i) * h for i, h in a) - sum(prime(t - i) * h for i, h in b)
    if not derivative:
        return sum(chi(-t - i) * h for i, h in a) - sum((1.0 - chi(1 - t + i)) * h for i, h in b)
    return -sum(prime(-t - i) * h for i, h in a) - sum(prime(1 - t + i) * h for i, h in b)


@pytest.mark.parametrize("name,k", BATCH_CASES)
def test_paired_g_and_dt_match_reference_series(name, k):
    sys = _batch_system(name)
    g = build_g(sys, k, (-4, 4))
    assert g.mirrored == (k < 0)
    rng = np.random.default_rng(11)
    xs = _random_points(sys, rng, 40)
    ts = rng.uniform(-4.5, 4.5, size=40)
    ts[:3] = (-3.0, 0.0, 2.0)  # integer times, where a term switches on
    for evaluate, derivative in ((g.g, False), (g.dt, True)):
        batch = evaluate(xs, ts)
        assert batch.shape == (40,)
        ref = np.array([_reference_series(g, x, t, derivative) for x, t in zip(xs, ts)])
        assert np.max(np.abs(batch - ref)) <= 1e-12
        # a scalar pair is a batch of one and gives a float
        one = evaluate(xs[5], ts[5])
        assert isinstance(one, float) and one == batch[5]


def test_paired_g_budget_is_per_sample(const_rotation):
    g = build_g(const_rotation, 1.0, (-3, 3))
    # each time needs 0.6 MAX_TERMS terms although the batch spans 1.2 MAX_TERMS
    far = 0.6 * MAX_TERMS - 0.5
    g.g(np.array([0.1, 0.7]), np.array([-far, far]))
    with pytest.raises(BudgetError):
        g.g(np.array([0.1, 0.7]), np.array([0.5, MAX_TERMS + 0.5]))
    with pytest.raises(BudgetError):
        g.dt(np.array([0.1, 0.7]), np.array([-MAX_TERMS - 0.5, 0.5]))


@pytest.mark.parametrize("name,k", BATCH_CASES)
def test_batched_inversion_matches_root_finder(name, k):
    from scipy.optimize import brentq

    sys = _batch_system(name)
    mu = build_mu(sys, k, (-4, 4))
    rng = np.random.default_rng(5)
    xs = _random_points(sys, rng, 64)
    s = mu.sigma_t(xs, rng.uniform(-3.0, 3.0, size=64))
    got = mu.invert_sigma_t(xs, s)
    for x, s_j, t_j in zip(xs, s, got):
        # sigma_t(x, .) is strictly monotone; the bracket holds the root
        root = brentq(lambda t: mu.sigma_t(x, t) - s_j, -8.0, 8.0, xtol=1e-13)
        assert abs(t_j - root) <= 1e-9


# k just past the factor's range: a small eps, a slope dt g + k close to 0,
# and times spread over the window, so brackets differ widely in rows
NEAR_CASES = [("rotation", 1.05), ("rotation", -1.05), ("cat", 1.55), ("cat", -1.55),
              ("perm", 0.52), ("perm", -0.52)]


@pytest.mark.parametrize("name,k", BATCH_CASES + NEAR_CASES)
def test_batched_inversion_is_the_batch_of_one(name, k):
    sys = _batch_system(name)
    mu = build_mu(sys, k, (-8, 8))
    rng = np.random.default_rng(17)
    xs = _random_points(sys, rng, 24)
    ts = rng.uniform(-6.0, 6.0, size=24)
    s = mu.sigma_t(xs, ts)
    got = mu.invert_sigma_t(xs, s)
    alone = np.array([mu.invert_sigma_t(x, s_j) for x, s_j in zip(xs, s)])
    assert np.array_equal(got, alone)
    assert np.max(np.abs(got - ts)) <= 1e-9


@pytest.mark.parametrize("name,k", BATCH_CASES)
def test_batch_tables_read_columns_as_a_fresh_batch(name, k):
    # any column subset at any times inside the batch's span gives the bits
    # of g and dt on a fresh batch of those columns
    sys = _batch_system(name)
    gcons = build_g(sys, k, (-4, 4))
    rng = np.random.default_rng(23)
    xs = _random_points(sys, rng, 30)
    tab = gcons.batch(xs, np.array([-4.5, 3.5]))
    for size in (1, 7, 30):
        idx = rng.choice(30, size=size, replace=False)
        t = rng.uniform(-4.5, 3.5, size=size)
        # the fused read gives both from one pass, paired or on a (T, P) grid
        for times in (t, rng.uniform(-4.5, 3.5, size=(5, 1))):
            g, dt = tab.g_dt(idx, times)
            assert np.array_equal(g, gcons.g(xs[idx], times))
            assert np.array_equal(dt, gcons.dt(xs[idx], times))
    for late in (4.25, -5.25):  # one row more than the span's 4 back and 5 ahead
        with pytest.raises(ValueError, match="beyond the batch"):
            tab.g_dt(np.arange(2), np.array([0.0, late]))


@pytest.mark.parametrize("name,k", BATCH_CASES)
def test_mu_cocycle_residual_sample_stream(name, k):
    # documented order: per sample x (a circle coordinate, two torus
    # coordinates, or an integer state floor(u size)), then t uniform in half
    # the t window, one draw at a time
    sys = _batch_system(name)
    mu = build_mu(sys, k, (-4, 4))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(64):
        if sys.space.kind == "finite":
            x = math.floor(rng.uniform(0.0, 1.0) * sys.space.size)
        elif sys.space.kind == "circle":
            x = float(rng.uniform(0.0, 1.0))
        else:
            x = np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)])
        t = rng.uniform(-2.0, 2.0)
        (_, y), (_, t2) = action_orbit(sys, x, t, k, 1)
        worst = max(worst, abs(mu.mu(y, t2) - mu.mu(x, t) + k))
    assert mu.mu_cocycle_residual(samples=64, rng=0) == worst
    assert worst <= 1e-7


@pytest.mark.parametrize("name,k", [("rotation", 1.5), ("cat", -2.0), ("perm", 1.0)])
def test_mu_cocycle_residual_draws_one_row_per_pair(name, k, monkeypatch):
    # one array call reads the stream as the per-pair loop did: x coordinates,
    # then t; a finite state is floor(u size) of its coordinate
    sys = _batch_system(name)
    mu = build_mu(sys, k, (-4, 4))
    rng = np.random.default_rng(29)
    xs, ts = [], []
    for _ in range(512):
        if sys.space.kind == "finite":
            xs.append(math.floor(rng.uniform(0.0, 1.0) * sys.space.size))
        elif sys.space.kind == "circle":
            xs.append(float(rng.uniform(0.0, 1.0)))
        else:
            xs.append(np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]))
        ts.append(rng.uniform(-2.0, 2.0))
    calls = []
    real = MuConstruction.mu

    def recorded(self, x, s):
        calls.append((x, s))
        return real(self, x, s)

    monkeypatch.setattr(MuConstruction, "mu", recorded)
    mu.mu_cocycle_residual(samples=512, rng=29)
    got_x, got_t = calls[1]  # mu(rho(x, t)), then mu(x, t)
    assert np.array_equal(got_x, np.array(xs)) and got_x.dtype == np.array(xs).dtype
    assert np.array_equal(got_t, np.array(ts))
    for samples in (0, -5):  # no samples are no evidence of a cocycle: 0.0 was returned
        with pytest.raises(ValidationError, match="samples must be >= 1"):
            mu.mu_cocycle_residual(samples=samples)


def _count_passes(monkeypatch):
    """Counters of table walks and of the samples of every fused g/dt g read:
    with one walk, an inversion's first read checks both bracket ends and
    the others are Newton's."""
    count = {"walks": 0, "reads": []}
    walk, fused = torus._averaged_tables, GTables.g_dt

    def walked(*args):
        count["walks"] += 1
        return walk(*args)

    def read(self, idx, t):
        count["reads"].append(np.size(t))
        return fused(self, idx, t)

    monkeypatch.setattr(torus, "_averaged_tables", walked)
    monkeypatch.setattr(GTables, "g_dt", read)
    return count


def test_inversion_walks_the_tables_once_and_reads_them_few_times(golden_cos, monkeypatch):
    # the first bracket holds every root: one walk, which also checks both
    # ends; Newton then reads g and dt g together a few times per sample
    mu = build_mu(golden_cos, 1.0, (-2, 2))
    rng = np.random.default_rng(31)
    xs, ts = rng.uniform(0.0, 1.0, size=512), rng.uniform(-1.0, 1.0, size=512)
    s = mu.sigma_t(xs, ts)
    count = _count_passes(monkeypatch)
    t = mu.invert_sigma_t(xs, s)
    assert count["walks"] == 1
    assert count["reads"][0] == 2 * 512
    assert sum(count["reads"][1:]) <= 6 * 512
    assert np.max(np.abs(t - ts)) <= 1e-9


def test_inversion_stops_at_the_float_resolution(monkeypatch):
    # at t ~ 2e4 the spacing of s (3.6e-12) exceeds the residual tolerance
    # 1e-12: a sample stops when no float lies strictly inside its bracket or
    # its step leaves t unchanged, within one ulp of s, after a few passes
    from scipy.optimize import brentq

    sys = rotation_system("golden", {"type": "trig", "cos": [[1, 0.3]]}, grid_resolution=64)
    mu = build_mu(sys, 1.0, (-10, 10))
    rng = np.random.default_rng(0)
    xs, ts = rng.uniform(0.0, 1.0, size=64), 2e4 + rng.uniform(-1.0, 1.0, size=64)
    s = mu.sigma_t(xs, ts) * (1.0 + 1e-15)
    count = _count_passes(monkeypatch)
    t = mu.invert_sigma_t(xs, s)
    assert count["walks"] == 1 and len(count["reads"]) - 1 <= 10
    residual = np.abs(mu.sigma_t(xs, t) - s)
    assert np.all(residual <= np.spacing(s))
    coarse = np.flatnonzero(residual > 1e-12)
    assert coarse.size  # the tolerance alone cannot stop these
    for j in coarse[:4]:
        root = brentq(lambda t_: mu.sigma_t(xs[j], t_) - s[j], t[j] - 1e-6, t[j] + 1e-6,
                      xtol=1e-12)
        assert abs(t[j] - root) <= 4 * np.spacing(t[j])


def test_inversion_refuses_a_sample_left_open(golden_cos, monkeypatch):
    # a residual that jumps from -0.5 to 0.5 at t = 1e-300 has no root: its
    # bracket closes in on the jump by bisection, through floats too dense to
    # run out in 60 steps, so the sample is refused, not returned
    mu = build_mu(golden_cos, 1.0, (-2, 2))
    xs = np.array([0.1, 0.2])

    def jump(self, idx, t):
        return np.where(t > 1e-300, 0.5, -0.5) - t, np.zeros(np.shape(t))

    monkeypatch.setattr(GTables, "g_dt", jump)
    with pytest.raises(BudgetError, match="unsolved"):
        mu.invert_sigma_t(xs, mu.f_n(xs))


def test_inversion_bisects_a_step_that_does_not_halve_the_last(golden_cos, monkeypatch):
    # at a cusp root, sign(t - r) |t - r|^0.6, every Newton step lands on the
    # other side at 2/3 of the distance: it stays inside the bracket, and
    # Newton alone would need about 110 steps for a residual of 1e-12
    mu = build_mu(golden_cos, 1.0, (-2, 2))
    xs = np.array([0.1, 0.2])
    root = np.array([0.3, -0.7])

    def cusp(self, idx, t):
        d = t - root[idx]
        with np.errstate(divide="ignore"):
            return np.sign(d) * np.abs(d) ** 0.6 - t, 0.6 * np.abs(d) ** -0.4 - 1.0

    monkeypatch.setattr(GTables, "g_dt", cusp)
    t = mu.invert_sigma_t(xs, mu.f_n(xs))  # the residual is g + t - 0
    assert np.all(np.abs(t - root) ** 0.6 <= 1e-12)
