import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lcsdyn import (
    TorusAction,
    action_power,
    action_step,
    build_cutoff,
    build_g,
    build_mu,
    cycle_mean_extrema,
    finite_permutation_system,
    properness_probe,
    rotation_system,
)
from lcsdyn.core import BudgetError, DomainError, ValidationError
from lcsdyn.torus import (
    InfeasibleError,
    NotFoundError,
    VERDICT_ESCAPE,
    VERDICT_INCONCLUSIVE,
    VERDICT_RECURRENT,
    _cumulative_simpson,
    action_step_inverse,
    band_interval,
    _cycle_residual_bound,
    conjugation_residual,
)

from conftest import cycle_pairs, scalar_factor, scalar_map


def test_action_step_rotation(const_rotation):
    act = TorusAction(const_rotation, 1.0)
    x, t = action_step(act, 0.25, 0.0)
    assert x == pytest.approx(0.75)
    assert t == pytest.approx(0.8)


def test_action_step_constant_case(const_rotation):
    act = TorusAction(const_rotation, 0.2)
    _, t = action_step(act, 0.1, 3.5)
    assert t == pytest.approx(3.5)


def test_action_step_finite(cycle3):
    act = TorusAction(cycle3, 2)
    assert action_step(act, 0, 0) == (1, 1)


def test_action_step_torus_constant_factor():
    from lcsdyn import cat_map_system

    sys = cat_map_system(0.3, grid_resolution=8)
    x, t = action_step(TorusAction(sys, 1.0), (0.1, 0.2), 0.0)
    assert np.shape(t) == ()
    assert t == pytest.approx(0.7)
    assert np.allclose(x, [0.4, 0.3])


def test_action_step_inverse_roundtrip(const_rotation, cycle3):
    for act in (TorusAction(const_rotation, 0.7), TorusAction(cycle3, 2)):
        x0 = 0.3 if act.sys.space.kind == "circle" else 1
        x, t = action_step(act, x0, 0.25)
        x2, t2 = action_step_inverse(act, x, t)
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
    # scalar map read off map_kind
    for sys, starts in _float_systems():
        act = TorusAction(sys, 0.35)
        for x0 in starts:
            for inverse, step in ((False, action_step), (True, action_step_inverse)):
                x, t = step(act, x0, 0.5)
                want_x, want_t = _scalar_action(sys, 0.35, x0, 0.5, 1, inverse)
                np.testing.assert_array_equal(x, want_x)
                assert t == pytest.approx(want_t, abs=1e-15)
            for n in (0, 1, 7, 20):
                x, t = action_power(act, x0, 0.5, n)
                want_x, want_t = _scalar_action(sys, 0.35, x0, 0.5, n)
                np.testing.assert_array_equal(x, want_x)
                assert t == pytest.approx(want_t, abs=1e-12)
                assert type(t) is float and np.shape(x) == np.shape(x0)


def test_action_power_trivial(const_rotation):
    act = TorusAction(const_rotation, 1.0)
    x, t = action_power(act, 0.25, 0.0, 4)
    assert x == pytest.approx(0.25)
    assert t == pytest.approx(3.2)
    assert action_power(act, 0.33, 1.5, 0) == (pytest.approx(0.33), 1.5)


def test_action_power_cycle_mean(swap_pair):
    act = TorusAction(swap_pair, Fraction(2))
    x, t = action_power(act, 0, Fraction(0), 4)
    assert (x, t) == (0, 0)


def test_power_matches_steps_exact(swap_pair):
    rng = np.random.default_rng(3)
    table = rng.permutation(16).tolist()
    h = [int(v) for v in rng.integers(-9, 10, size=16)]
    sys = finite_permutation_system(table, h)
    act = TorusAction(sys, Fraction(1, 3))
    for start in range(0, 16, 3):
        x, t = start, Fraction(0)
        for n in range(1, 101):
            x, t = action_step(act, x, t)
            if n % 10 == 0 or n < 5:
                assert action_power(act, start, Fraction(0), n) == (x, t)


def test_power_matches_steps_rotation(golden_cos):
    act = TorusAction(golden_cos, 0.7)
    rng = np.random.default_rng(0)
    for start in rng.uniform(0, 1, 10):
        x, t = float(start), 0.0
        for n in range(1, 201):
            x, t = action_step(act, x, t)
            if n in (1, 2, 3, 50, 200):
                xp, tp = action_power(act, float(start), 0.0, n)
                d = abs(xp - x)
                assert min(d, 1 - d) <= 1e-9
                assert abs(tp - t) <= 1e-9


def test_band_interval(swap_pair):
    lo, hi = band_interval(swap_pair, 3.0)
    assert lo == pytest.approx(-4.0)
    assert hi == pytest.approx(1.0)


def test_band_contains_zero_when_k_between_bounds(golden_cos):
    # factor range is [-1, 1]; any size inside it keeps 0 in the band
    for k in (-0.9, -0.2, 0.0, 0.4, 1.0):
        lo, hi = band_interval(golden_cos, k)
        assert lo <= 0.0 <= hi
        assert lo < hi


def test_probe_constant_recurrent(const_rotation):
    rep = properness_probe(TorusAction(const_rotation, 0.2), n_max=200)
    assert rep.verdict == VERDICT_RECURRENT
    assert rep.witness.n == 1


def test_probe_strict_cases(golden_strict):
    rep0 = properness_probe(TorusAction(golden_strict, 0.0), n_max=2000)
    assert rep0.verdict == VERDICT_RECURRENT
    assert rep0.witness.n <= 3 * golden_strict.space.grid_resolution
    rep5 = properness_probe(TorusAction(golden_strict, 0.5), n_max=2000)
    assert rep5.verdict == VERDICT_ESCAPE
    assert rep5.certificate == "telescoping-bound"
    lo, hi = rep5.band
    V = 2.0  # range of sin(2 pi x)
    assert rep5.escape_bound <= math.ceil(2 * V / 0.5) + math.ceil((hi - lo) / 0.5)


def test_probe_finite_exact(swap_pair):
    # cycle means are 2 and 1: sizes off the means escape, means recur
    for k, verdict in ((3.0, VERDICT_ESCAPE), (1.5, VERDICT_ESCAPE),
                       (2.0, VERDICT_RECURRENT), (1.0, VERDICT_RECURRENT)):
        rep = properness_probe(TorusAction(swap_pair, k), n_max=50)
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
    R = _cycle_residual_bound(cycle_mean_extrema(exact))
    assert R == _brute_cycle_residual(exact)
    floats = finite_permutation_system(table, rng.uniform(-2.0, 2.0, size=m).tolist())
    R = _cycle_residual_bound(cycle_mean_extrema(floats))
    assert R == pytest.approx(_brute_cycle_residual(floats), rel=1e-12, abs=1e-12)


def test_probe_cat_map_escape():
    from lcsdyn import cat_map_system

    sys = cat_map_system({"type": "trig2", "terms": [[1, 0, 0.3, 0.0]]},
                         grid_resolution=16)
    rep = properness_probe(TorusAction(sys, 2.0), n_max=300, starts=16)
    assert rep.verdict == VERDICT_ESCAPE
    assert rep.heuristic


def _probe_oracle(sys, k, n_max, starts=None, late_fraction=0.5):
    """One size probed on its own, as before sweeps shared work: its own factor
    range, cycle decomposition and whole (n_max, P) table of partial sums."""
    from lcsdyn import ergopt
    from lcsdyn.core import eval_factor, orbit_array, reference_points
    from lcsdyn.torus import ProbeReport, Witness

    k = float(k)
    if starts is None:
        starts = sys.space.size if sys.space.kind == "finite" else 64
    pts = sys.space.sample_points(starts)
    lo, hi = band_interval(sys, k)
    width = hi - lo
    heuristic = sys.space.kind != "finite"

    def report(verdict, witness, bound, certificate, heur):
        return ProbeReport(k, (lo, hi), verdict, witness, bound, certificate, heur,
                           n_max, len(pts))

    t0 = 0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi)
    if sys.space.kind == "finite" and sys.perm_table is not None:
        dec = ergopt.cycle_mean_extrema(sys)
        R = _cycle_residual_bound(dec)
        means = [float(mean) for _cyc, mean in cycle_pairs(dec)]
        gaps = [abs(k - m) for m in means]
        if min(gaps) > 1e-12:
            n0 = max(int(math.floor((width + R) / g)) + 1 for g in gaps)
            return report(VERDICT_ESCAPE, None, n0, "cycle-exact", False)
        idx = gaps.index(min(gaps))
        cyc, _ = cycle_pairs(dec)[idx]
        wit = Witness(int(cyc[0]), len(cyc), t0 + len(cyc) * (k - means[idx]))
        return report(VERDICT_RECURRENT, wit, None, "cycle-exact", False)
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
    from lcsdyn import cat_map_system, strict_rotation_system

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
        sys = strict_rotation_system("golden", {"type": "trig", "sin": [[1, 1.0]]},
                                     grid_resolution=512)
        return sys, [-1.0, -0.5, 0.0, 0.5, 1.0], 1000, None, {"telescoping-bound", "orbit-returns"}
    if name == "identity":
        sys = rotation_system(0.0, {"type": "trig", "cos": [[1, 1.0]]})
        return sys, [-0.3, 0.0, 0.3], 50, [0.0, 0.3], {"none", "orbit-returns"}
    # cycles (0 1 2), (3 4), (5) with means 1, 0 and 2
    sys = finite_permutation_system([1, 2, 0, 4, 3, 5], ["1/2", "3/2", "1", "-1/3", "1/3", "2"])
    return sys, [-1.0, 0.0, 0.5, 1.0, 2.0, 2.5], 50, None, {"cycle-exact"}


@pytest.mark.parametrize("name", ["golden-cos", "cat16", "strict", "identity", "perm"])
def test_probe_sweep_equals_per_size_probes(name):
    from lcsdyn.torus import probe_sweep

    sys, ks, n_max, starts, certificates = _sweep_case(name)
    sweep = [r.to_json() for r in probe_sweep(sys, ks, n_max=n_max, starts=starts)]
    assert sweep == [_probe_oracle(sys, k, n_max, starts).to_json() for k in ks]
    assert sweep == [properness_probe(TorusAction(sys, k), n_max=n_max, starts=starts).to_json()
                     for k in ks]
    assert {r["certificate"] for r in sweep} == certificates
    if name == "cat16":
        assert any(r["witness"] and r["witness"]["start"] != starts[0] for r in sweep)


def test_probe_sweep_shares_the_k_independent_work(monkeypatch):
    from lcsdyn import ergopt, torus

    calls = {"factor_range": 0, "cycles": 0, "residual": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(torus, "factor_range", counted("factor_range", torus.factor_range))
    monkeypatch.setattr(ergopt, "cycle_mean_extrema",
                        counted("cycles", ergopt.cycle_mean_extrema))
    monkeypatch.setattr(torus, "_cycle_residual_bound",
                        counted("residual", torus._cycle_residual_bound))
    sys, ks, n_max, starts, _ = _sweep_case("perm")
    assert len(torus.probe_sweep(sys, ks, n_max=n_max, starts=starts)) == len(ks)
    assert calls == {"factor_range": 1, "cycles": 1, "residual": 1}


def test_probe_inconclusive():
    # identity map: averages never move, no drift certificate; the two starts
    # brush the band early and then leave for the whole late window
    sys = rotation_system(0.0, {"type": "trig", "cos": [[1, 1.0]]})
    rep = properness_probe(TorusAction(sys, 0.3), n_max=50, starts=[0.0, 0.3])
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


def test_cutoff_table_needs_three_points():
    # Simpson panels need three points; fewer would silently be another rule
    for size in (0, 1, 2):
        with pytest.raises(ValidationError):
            build_cutoff(2.0, table_size=size)
    assert build_cutoff(2.0, table_size=3)._cdf.size == 3


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
    assert g.slope_sign() == 1
    # trailing sum only, for t past the window's positive side
    assert g.g(0.3, 2.5) == pytest.approx(-0.2 * (1 + 1 + 0.5), abs=1e-9)


def test_build_g_mirrored(const_rotation):
    g = build_g(const_rotation, -1.0, (-5, 5))
    assert g.mirrored
    assert g.slope_sign() == -1
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
    for s in special:  # a scalar gives a float
        for got, want in ((c(s), _unmasked_cutoff(c, s, False)),
                          (c.prime(s), _unmasked_cutoff(c, s, True))):
            assert type(got) is float
            assert np.array_equal(got, want, equal_nan=True)
    grid = rng.uniform(-1.5, 2.5, size=(7, 30))
    grid.flat[:special.size] = special
    rows = grid[None] + np.arange(-3.0, 3.0).reshape(-1, 1, 1)  # (rows, T, P)
    for s in (grid, rows):
        assert np.array_equal(c(s), _unmasked_cutoff(c, s, False), equal_nan=True)
        assert np.array_equal(c.prime(s), _unmasked_cutoff(c, s, True), equal_nan=True)
        assert c(s).shape == c.prime(s).shape == s.shape


def test_dt_attainable_covers_direct_samples(const_rotation, golden_cos):
    # the product sampling (chi' values x orbit factor values) must cover
    # every directly evaluated slope value
    for sys, k in ((const_rotation, 1.0), (golden_cos, 1.6)):
        g = build_g(sys, k, (-6, 6))
        vals = np.sort(np.multiply.outer(*g.dt_attainable(s_count=8193)).ravel())
        pts = sys.space.sample_points(64)
        ts = np.linspace(-5.5, 5.5, 333)
        direct = g.dt(pts, ts[:, None]).ravel()
        idx = np.searchsorted(vals, direct)
        idx = np.clip(idx, 1, len(vals) - 1)
        nearest = np.minimum(np.abs(vals[idx] - direct), np.abs(vals[idx - 1] - direct))
        assert float(nearest.max()) < 2e-3


def test_build_mu_constant(const_rotation):
    mu = build_mu(const_rotation, 1.0, (-10, 10), samples=300, rng=0)
    assert mu.n_used == 1
    assert mu.report.residual_max <= 1e-9
    assert mu.report.slope_margin > 0.5


def test_build_mu_strict(golden_strict):
    mu = build_mu(golden_strict, 1.0, (-10, 10), samples=300, rng=0)
    assert mu.report.residual_max <= 1e-7


@pytest.mark.parametrize("k", [2.0, -2.0])
def test_build_mu_cat_map(k):
    # a single torus point is a 2-vector: A_n must treat it as one point, not
    # as a batch of two circle points (the mirrored branch runs at k < 0)
    from lcsdyn import cat_map_system

    sys = cat_map_system({"type": "trig2", "terms": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]},
                         grid_resolution=16)
    mu = build_mu(sys, k, (-2, 2), samples=32, rng=0)
    assert mu.report.residual_max <= 1e-7


def test_build_mu_not_found(const_rotation):
    with pytest.raises(NotFoundError):
        build_mu(const_rotation, 0.2, (-5, 5))  # k equals every average
    with pytest.raises(NotFoundError):
        build_mu(const_rotation, 0.1, (-5, 5))  # wrong side for the ramp
    with pytest.raises(NotFoundError):
        build_mu(const_rotation, 0.0, (-5, 5))


def test_sigma_inversion_roundtrip(const_rotation):
    mu = build_mu(const_rotation, 1.0, (-8, 8), samples=16, rng=0)
    for x in (0.1, 0.6):
        for t in (-3.0, 0.0, 2.5):
            s = mu.sigma_t(x, t)
            assert mu.invert_sigma_t(x, s) == pytest.approx(t, abs=1e-9)


def test_conjugation_identity(const_rotation, golden_strict):
    mu = build_mu(const_rotation, 1.0, (-10, 10), samples=16, rng=0)
    for c in (0.9, 1.0, 1.1):
        assert conjugation_residual(mu, c) <= 1e-9
    mus = build_mu(golden_strict, 1.0, (-10, 10), samples=16, rng=0)
    assert conjugation_residual(mus, 1.05) <= 1e-9


def test_mu_monotone_slope_sign(const_rotation):
    mu = build_mu(const_rotation, 1.0, (-8, 8), samples=16, rng=0)
    pts = const_rotation.space.sample_points(32)
    ts = np.linspace(-6, 6, 121)
    slopes = mu.gcons.dt(pts, ts[:, None]) + mu.k
    assert np.all(np.sign(slopes) == mu.gcons.slope_sign())


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

    x0 = sys.space.normalize(x)
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
    g = build_g(const_rotation, 1.0, (-3, 3), max_terms=10)
    # each time needs 8 terms although the batch spans 16
    g.g(np.array([0.1, 0.7]), np.array([-7.5, 7.5]))
    with pytest.raises(BudgetError):
        g.g(np.array([0.1, 0.7]), np.array([0.5, 12.5]))
    with pytest.raises(BudgetError):
        g.dt(np.array([0.1, 0.7]), np.array([-12.5, 0.5]))


@pytest.mark.parametrize("name,k", BATCH_CASES)
def test_batched_inversion_matches_root_finder(name, k):
    from scipy.optimize import brentq

    sys = _batch_system(name)
    mu = build_mu(sys, k, (-4, 4), samples=8, rng=0)
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
    mu = build_mu(sys, k, (-8, 8), samples=4, rng=0)
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
        assert np.array_equal(tab.g(idx, t), gcons.g(xs[idx], t))
        assert np.array_equal(tab.dt(idx, t), gcons.dt(xs[idx], t))
    for late in (4.25, -5.25):  # one row more than the span's 4 back and 5 ahead
        with pytest.raises(ValueError, match="beyond the batch"):
            tab.g(np.arange(2), np.array([0.0, late]))


@pytest.mark.parametrize("name,k", BATCH_CASES)
def test_mu_cocycle_residual_sample_stream(name, k):
    # documented order: per sample x (an integer state, a circle coordinate,
    # or two torus coordinates), then t uniform in half the t window
    sys = _batch_system(name)
    mu = build_mu(sys, k, (-4, 4), samples=8, rng=0)
    rng = np.random.default_rng(0)
    act = TorusAction(sys, k)
    worst = 0.0
    for _ in range(64):
        if sys.space.kind == "finite":
            x = int(rng.integers(0, sys.space.size))
        elif sys.space.kind == "circle":
            x = float(rng.uniform(0.0, 1.0))
        else:
            x = np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)])
        t = rng.uniform(-2.0, 2.0)
        y, t2 = action_step(act, x, t)
        worst = max(worst, abs(mu.mu(y, t2) - mu.mu(x, t) + k))
    assert mu.mu_cocycle_residual(samples=64, rng=0) == worst
    assert worst <= 1e-7
