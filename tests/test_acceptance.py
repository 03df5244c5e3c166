"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lcsdyn import (
    action_orbit,
    birkhoff_extrema,
    birkhoff_table,
    build_g,
    build_mu,
    coboundary_optima,
    coboundary_residual_curve,
    coboundary_system,
    cycle_mean_extrema,
    elasticity_from_profile,
    finite_permutation_system,
    first_kind_test,
    limit_estimates,
    mapping_torus_profile,
    probe_sweep,
    rotation_system,
)
from lcsdyn import cli
from lcsdyn.core import GOLDEN_ANGLE
from lcsdyn.elastic import LiouvilleProfile
from lcsdyn.torus import VERDICT_ESCAPE, VERDICT_RECURRENT

from conftest import random_permutation_system, scalar_factor, scalar_map


def _ok(n, msg):
    print(f"criterion {n}: PASS ({msg})")


@pytest.fixture(scope="module")
def strict4096():
    f = {"type": "trig", "sin": [[1, 1.0]]}
    return rotation_system("golden", {"type": "coboundary", "f": f}, grid_resolution=4096)


@pytest.fixture(scope="module")
def strict_table(strict4096):
    return birkhoff_extrema(strict4096, 4096, n_max=2000)


def test_criterion_1_exact_finite_oracle():
    rng = np.random.default_rng(20260809)
    t0 = time.perf_counter()
    for _ in range(50):
        sys = random_permutation_system(rng, max_states=64, h_low=-10, h_high=10)
        dec = cycle_mean_extrema(sys)
        opt = coboundary_optima(sys, method="exact_finite")[1]
        est = limit_estimates(birkhoff_table(sys, n_max=4))
        assert isinstance(opt.value, Fraction)
        assert opt.value == dec.max_mean == est.L_plus  # tolerance 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(1, f"50 random permutations, exact equality, {elapsed:.2f}s")


def test_criterion_2_transfer_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    finites = [
        finite_permutation_system([1, 2, 0], [1, 2, 3]),
        finite_permutation_system([1, 0, 2], [0, 4, 1]),
        random_permutation_system(rng, max_states=12),
    ]
    for sys in finites:
        for n in range(1, 51):
            assert coboundary_residual_curve(sys, n)[-1] == 0
    rot = rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]},
                          grid_resolution=1024)
    curve = coboundary_residual_curve(rot, 500, 1024)
    assert float(curve.max()) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(2, f"zero on finite for n<=50, max {curve.max():.2e} on the grid, {elapsed:.2f}s")


def test_criterion_3_iteration_formula():
    rng = np.random.default_rng(11)
    # exact on finite: 100 random starts, each checked along its orbit
    # against a test-local iterated walk of the table
    table = rng.permutation(24).tolist()
    h = [int(v) for v in rng.integers(-9, 10, size=24)]
    fin = finite_permutation_system(table, h)
    k = Fraction(2, 7)
    probes = (1, 2, 3, 5, 8, 13, 21, 55, 89, 144, 200)
    for _ in range(100):
        start = int(rng.integers(0, 24))
        xs, ts = action_orbit(fin, start, Fraction(0), k, 200)
        x, t = start, Fraction(0)
        for n in range(1, 201):
            t, x = t + k - h[x], table[x]
            if n in probes:
                assert (xs[n], ts[n]) == (x, t)
    # rotations: <= 1e-9 for all n <= 200, 100 random starts
    rot = rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]})
    psi, hr = scalar_map(rot), scalar_factor(rot)
    for start in rng.uniform(0, 1, 100):
        xs, ts = action_orbit(rot, float(start), 0.0, 0.7, 200)
        x, t = float(start), 0.0
        for n in range(1, 201):
            t, x = t + 0.7 - hr(x), psi(x)
            assert abs(ts[n] - t) <= 1e-9
            d = abs(xs[n] - x)
            assert min(d, 1 - d) <= 1e-9
    _ok(3, "closed formula = iterated steps (exact finite, 1e-9 rotations)")


def test_criterion_4_strict_case(strict4096, strict_table, tmp_path):
    t0 = time.perf_counter()
    V = 2.0  # max f - min f for f = sin(2 pi x)
    bound = 2.0 * V
    maxes = np.asarray(strict_table.extrema_per_n["max_avg"])
    mins = np.asarray(strict_table.extrema_per_n["min_avg"])
    ns = np.arange(1, 2001)
    assert np.all(np.abs(maxes) <= bound / ns)
    assert np.all(np.abs(mins) <= bound / ns)
    est = limit_estimates(strict_table)
    tol = 2.0 * V / 2000
    assert abs(est.L_minus) <= tol and abs(est.L_plus) <= tol
    assert isinstance(est.error_bound, float) and est.error_bound <= tol * 1.001
    # the admissible command reports the gap {0} and excludes 0
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({
        "command": "admissible",
        "system": {
            "space": {"kind": "circle", "grid_resolution": 4096},
            "map": {"type": "rotation", "angle": "golden"},
            "factor": {"type": "coboundary", "f": {"type": "trig", "sin": [[1, 1.0]]}},
        },
        "n_max": 2000,
        "grid": 4096,
        "k_range": [0.0, 1.0, 1.0],
    }))
    out = str(tmp_path / "run")
    assert cli.main(["--config", str(cfg), "--out", out]) == 0
    with open(f"{out}/report.json") as fh:
        rep = json.load(fh)
    gap = rep["payload"]["admissible_set"]["gap"]
    assert abs(gap[0]) <= tol and abs(gap[1]) <= tol
    verdicts = {c["k"]: c["verdict"] for c in rep["payload"]["classifications"]}
    assert verdicts[0.0] == "excluded_zero"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(4, f"|max A_n| <= 4/n up to n=2000, gap within {tol:.1e}, {elapsed:.1f}s")


def test_criterion_5_properness_probe(strict4096):
    rep0, rep5 = probe_sweep(strict4096, [0.0, 0.5], n_max=10_000, starts=64)
    assert rep0.verdict == VERDICT_RECURRENT
    assert rep0.witness is not None and 1 <= rep0.witness.n <= 10_000
    lo, hi = rep0.band
    assert lo - 1e-9 <= rep0.witness.t <= hi + 1e-9

    assert rep5.verdict == VERDICT_ESCAPE
    V = 2.0
    w = rep5.band[1] - rep5.band[0]
    assert rep5.escape_bound <= math.ceil(2 * V / 0.5) + math.ceil(w / 0.5)

    const = rotation_system(0.5, 0.2, grid_resolution=256)
    repc, = probe_sweep(const, [0.2], n_max=1000)
    assert repc.verdict == VERDICT_RECURRENT and repc.witness.n == 1
    _ok(5, f"k=0 recurrent (witness n={rep0.witness.n}), k=0.5 escape "
           f"(N0={rep5.escape_bound}), constant recurrent at n=1")


def test_criterion_6_transition_function():
    sys = rotation_system(0.5, 0.2, grid_resolution=256)
    g = build_g(sys, 1.0, (-10.0, 10.0))
    pts = sys.space.sample_points(256)
    ts = np.linspace(-10.0, 10.0, 401)
    assert g.functional_residual(pts, ts) <= 1e-9
    assert g.slope_margin(pts, ts) > 0
    for m in range(1, 10):
        for x in pts[::32]:
            assert abs(g.g(float(x), -float(m)) - 0.2 * m) <= 1e-12
    _ok(6, f"g residual <= 1e-9, slope margin {g.slope_margin(pts, ts):.3f}, "
           f"integer-time values exact to 1e-12")


def test_criterion_7_mu_cocycle(strict4096):
    residual = build_mu(strict4096, 1.0, (-10.0, 10.0)).mu_cocycle_residual(samples=1000, rng=13)
    assert residual <= 1e-7
    _ok(7, f"mu cocycle residual {residual:.2e} over 1000 samples")


def test_criterion_8_elasticity_oracle():
    first = LiouvilleProfile(np.full(32, -1.0), lambda_nonvanishing=True)
    es1 = elasticity_from_profile(first)
    assert es1.forbidden == [(0.0, 0.0)]  # exactly R \ {0}
    rng = np.random.default_rng(99)
    step = 1e-3
    c_grid = np.arange(-10.0, 10.0 + step, step)
    profiles = [first]
    for _ in range(100):
        lo = rng.uniform(-3, 3)
        width = rng.uniform(0, 2)
        u = rng.uniform(lo, lo + width, size=rng.integers(1, 400))
        u = u[np.abs(u) > 1e-6]
        if u.size == 0:
            u = np.array([1.0])
        profiles.append(LiouvilleProfile(u, lambda_nonvanishing=True))
    for prof in profiles:
        es = elasticity_from_profile(prof, gap_resolution=step)
        u = prof.samples[np.abs(prof.samples) > 1e-12]
        # scan oracle: c flagged iff |1 + (1-c)u| / |u| <= step for some sample
        flagged = np.concatenate([
            np.min(np.abs(1.0 + (1.0 - c[:, None]) * u) / np.abs(u), axis=1) <= step
            for c in np.split(c_grid, range(2048, len(c_grid), 2048))
        ])
        bounds = np.asarray([v for ab in es.forbidden for v in ab])
        inside = np.zeros_like(c_grid, dtype=bool)
        for a, b in es.forbidden:
            inside |= (c_grid >= a - 1e-12) & (c_grid <= b + 1e-12)
        mism = np.nonzero(inside != flagged)[0]
        for idx in mism:
            assert np.min(np.abs(bounds - c_grid[idx])) <= step + 1e-9
        # first-kind equivalence, both directions
        fk = first_kind_test(prof)
        is_punctured_line = es.forbidden == [(0.0, 0.0)]
        assert fk == is_punctured_line
    _ok(8, "c-scan oracle agrees within one step on 101 profiles; "
           "first-kind <=> complement {0}")


def test_criterion_9_cross_module_link(strict4096):
    presets = {
        "constant": rotation_system(0.5, 0.2, grid_resolution=256),
        "strict": strict4096,
    }
    tol = 1e-3
    checked = 0
    for name, sys in presets.items():
        table = birkhoff_table(sys, 512, n_max=1000)
        est = limit_estimates(table)
        gap_lo, gap_hi = float(est.L_minus), float(est.L_plus)
        for k in (0.5, 1.0, 2.0):
            if not est.contains(k):
                continue
            prof = mapping_torus_profile(sys, k, (-10.0, 10.0))
            es = elasticity_from_profile(prof, gap_resolution=5e-3)
            for c in np.arange(-10.0, 10.0, 0.01):
                if any(a - tol <= c <= b + tol for a, b in es.forbidden):
                    continue  # not safely inside the elasticity set
                ck = c * k
                assert not (gap_lo - tol <= ck <= gap_hi + tol), (name, k, c)
            checked += 1
    assert checked == 6
    _ok(9, "every sampled c in the elasticity keeps ck outside the gap "
           f"for {checked} (preset, k) pairs")


def test_criterion_10_rank_utility():
    from lcsdyn import PeriodGroup, lcs_rank

    assert lcs_rank(PeriodGroup.parse(["1", "s"])) == 2
    assert lcs_rank(PeriodGroup.parse(["1", "3/2"])) == 1
    assert lcs_rank(PeriodGroup.parse(["3/7", "5/7"])) == 1
    assert lcs_rank(PeriodGroup.parse([])) == 0
    _ok(10, "ranks 2, 1, 1, 0 exactly")


def test_criterion_11_gauge_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sys = random_permutation_system(rng, max_states=16)
        m = len(sys.perm_table)
        f0_vals = [int(v) for v in rng.integers(-6, 7, size=m)]
        shifted = coboundary_system(sys, lambda i: -f0_vals[int(i)])
        est = limit_estimates(birkhoff_table(sys, n_max=4))
        est2 = limit_estimates(birkhoff_table(shifted, n_max=4))
        assert est.L_minus == est2.L_minus and est.L_plus == est2.L_plus
    # rotation grid: the two gaps differ by at most 2 (max f0 - min f0) / n_max
    n_max = 500
    rot = rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]},
                          grid_resolution=512)
    f0 = lambda x: 0.3 * np.sin(2 * np.pi * np.asarray(x)) + 0.1 * np.cos(
        2 * np.pi * np.asarray(x))
    shifted = coboundary_system(rot, lambda x: -f0(x))
    est = limit_estimates(birkhoff_table(rot, 512, n_max=n_max))
    est2 = limit_estimates(birkhoff_table(shifted, 512, n_max=n_max))
    pts = rot.space.sample_points(512)
    f_vals = f0(pts)
    allowed = 2.0 * float(f_vals.max() - f_vals.min()) / n_max
    assert abs(est.L_minus - est2.L_minus) <= allowed
    assert abs(est.L_plus - est2.L_plus) <= allowed
    _ok(11, f"gaps identical on 20 finite systems; grid gaps differ "
            f"<= {allowed:.1e}")
