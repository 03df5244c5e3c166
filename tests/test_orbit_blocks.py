"""The orbit engine's blocks of rows.

Phase rows (a trig record on a rotation) are checked against an exact orbit
at 50 digits; every consumer of blocks is checked, at blocks of 1, 3 and 7
rows, against a per-row copy of the loop it replaced, bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lcsdyn import core, torus
from lcsdyn.birkhoff import birkhoff_extrema, birkhoff_table, coboundary_residual_curve
from lcsdyn.core import (
    cat_map_system,
    coboundary_system,
    eval_factor,
    finite_permutation_system,
    orbit_array,
    orbit_blocks,
    reference_points,
    rotation_system,
    sampled_bounds,
    step_points,
    sum_dtype,
)

from conftest import exact_orbit_rows

TRIG = {"type": "trig", "const": 0.5, "cos": [[2, 0.7]], "sin": [[1, 1.0], [3, -0.2]]}
SIN = {"type": "trig", "sin": [[1, 1.0]]}


def _phase_system(angle, kind):
    if kind == "trig":
        return rotation_system(angle, TRIG, grid_resolution=16)
    if kind == "coboundary":
        return rotation_system(angle, {"type": "coboundary", "f": TRIG}, grid_resolution=16)
    base = rotation_system(angle, {"type": "trig", "cos": [[1, 1.0]]}, grid_resolution=16)
    return coboundary_system(base, SIN)  # a coboundary of SIN with base cos


@pytest.mark.parametrize("n", [1, 2, 2000])
@pytest.mark.parametrize("kind", ["trig", "coboundary", "coboundary-with-base"])
@pytest.mark.parametrize("angle", ["golden", 0.375])
@pytest.mark.parametrize("inverse", [False, True])
def test_rows_match_the_exact_orbit(angle, kind, n, inverse):
    sys = _phase_system(angle, kind)
    rng = np.random.default_rng(5)
    pts = np.concatenate([sys.space.sample_points(2), rng.random(2), [0.0, 1 - 2.0**-53]])
    rows = orbit_array(sys, pts, n, inverse=inverse)
    assert np.max(np.abs(rows - exact_orbit_rows(sys, pts, n, inverse))) <= 1e-14


@pytest.mark.parametrize("h", [
    {"type": "trig", "const": 0.5, "cos": [[-1, 0.5], [3, -1.0]], "sin": [[-2, 1.0], [1, 0.0]]},
    # at x = 0, -0.0 + sin(-2 pi 0) is -0.0, and so must row 0 be
    {"type": "trig", "const": -0.0, "sin": [[-1, 1.0]]},
])
@pytest.mark.parametrize("inverse", [False, True])
def test_phase_row_0_is_eval_factor(h, inverse):
    sys = rotation_system("golden", h, grid_resolution=64)
    pts = np.concatenate([sys.space.sample_points(), [0.0, 0.5, 1 - 2.0**-53]])
    (row, *_), want = orbit_array(sys, pts, 3, inverse=inverse), eval_factor(sys, pts)
    assert np.array_equal(row, want) and np.array_equal(np.signbit(row), np.signbit(want))


# --------------------------------------------------------------------------
# block boundaries: per-row copies of the loops that blocks replaced
# --------------------------------------------------------------------------


def _callable_h(x):
    # -0.0 on half the circle, so that sums and extrema meet signed zeros
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.5, -0.0, np.cos(2 * np.pi * x))


def _systems():
    rng = np.random.default_rng(11)
    m = 40
    values = [f"{int(p)}/{int(q)}" for p, q in zip(rng.integers(-9, 10, m),
                                                    rng.integers(1, 7, m))]
    return {
        "cat": cat_map_system({"type": "trig2", "terms": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]},
                              grid_resolution=8),
        "exact": finite_permutation_system(rng.permutation(m).tolist(), values),
        "callable": rotation_system(0.3, _callable_h, grid_resolution=32),
    }


def _rows(sys, pts, n, inverse=False):
    """The orbit rows one at a time, stepped and then evaluated for each of
    the n rows: h at stepped points, the scaled integers on exact systems."""
    cur = np.asarray(pts, dtype=np.int64) if sys.exact else pts
    for _ in range(n):
        yield sys.scaled_table[cur] if sys.exact else eval_factor(sys, cur)
        cur = step_points(sys, cur, inverse=inverse)


def _extrema_by_rows(sys, pts, n_max):
    """(extrema curves, running sums): ``birkhoff_extrema``'s loop, one row
    at a time."""
    dtype = sum_dtype(sys, n_max)
    lows, highs, sums, S = [], [], [], None
    for row in _rows(sys, pts, n_max):
        if S is None:
            S = np.array(row, dtype=dtype)
        else:
            S += row
        lows.append(S.min())
        highs.append(S.max())
        sums.append(S.copy())
    ns = np.arange(1, n_max + 1)
    if sys.exact:
        lows, highs = ([Fraction(int(v), int(n) * sys.scale) for v, n in zip(c, ns)]
                       for c in (lows, highs))
        lows, highs = np.array(lows, dtype=object), np.array(highs, dtype=object)
    else:
        lows, highs = np.array(lows) / ns, np.array(highs) / ns
    return {"min_avg": lows, "max_avg": highs,
            "inf_env_minus": np.minimum.accumulate(lows[::-1])[::-1],
            "sup_env_plus": np.maximum.accumulate(highs[::-1])[::-1]}, sums


def _residuals_by_rows(sys, pts, n_max):
    """``coboundary_residual_curve``'s loop, one row at a time."""
    scale = sys.scale
    s_here = np.zeros(len(pts), dtype=sum_dtype(sys, (n_max + 1) ** 2))
    s_next, cs_here, cs_next = (np.zeros_like(s_here) for _ in range(3))
    out = []
    for n, row in enumerate(_rows(sys, pts, n_max), start=1):
        if n == 1:
            h = row.astype(s_here.dtype)
        else:
            cs_here += s_here
            s_next += row
            cs_next += s_next
        s_here += row
        gap = np.max(np.abs(s_here - (n * h + cs_next - cs_here)))
        out.append(gap / n if scale is None else Fraction(int(gap), n * scale))
    return np.array(out, dtype=float if scale is None else object)


def _first_returns_by_rows(sys, pts, ks, n_max):
    """j -> (n, p, t) of the first in-band return of size ks[j], in
    row-major order: ``probe_sweep``'s scan, one row at a time."""
    hmin, hmax = sampled_bounds(sys, sys.factor, reference_points(sys))
    kv = np.array(ks)[:, None]
    lo, hi = np.array([torus._band(hmin, hmax, k) for k in ks]).T[:, :, None]
    t0 = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, 0.5 * (lo + hi))
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    lo, hi = lo - tol, hi + tol
    first, S = {}, np.zeros(len(pts))
    for n, row in enumerate(_rows(sys, pts, n_max), start=1):
        S = S + row
        t_vals = t0 + kv * n - S
        in_band = (t_vals >= lo) & (t_vals <= hi)
        for j in np.flatnonzero(in_band.any(axis=1)):
            if j not in first:
                p = int(np.argmax(in_band[j]))
                first[j] = (n, p, float(t_vals[j, p]))
    return first


def _same(a, b):
    """Equal entries, and equal signs of float zeros."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or not np.array_equal(a, b):
        return False
    return a.dtype != float or np.array_equal(np.signbit(a), np.signbit(b))


def _blocks_of(monkeypatch, rows, P):
    monkeypatch.setattr(core, "BLOCK_CELLS", rows * P)


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("name", ["cat", "exact", "callable"])
def test_block_boundaries_match_per_row_loops(monkeypatch, name, rows):
    sys, n_max = _systems()[name], 23
    pts = sys.space.sample_points()
    _blocks_of(monkeypatch, rows, len(pts))
    sizes = [len(b) for b in orbit_blocks(sys, pts, n_max)]
    assert sum(sizes) == n_max and sizes[0] == (1 if name == "callable" else rows)
    assert _same(orbit_array(sys, pts, n_max),
                 np.array(list(_rows(sys, pts, n_max)), dtype=sum_dtype(sys, 1)))
    want, sums = _extrema_by_rows(sys, pts, n_max)
    ext = birkhoff_extrema(sys, None, n_max).extrema_per_n
    assert all(_same(ext[key], want[key]) for key in want)
    table = birkhoff_table(sys, None, n_max)
    assert all(_same(table.extrema_per_n[key], want[key]) for key in want)
    assert _same(table.running_sums, np.array(sums, dtype=sum_dtype(sys, n_max * n_max)))
    assert _same(coboundary_residual_curve(sys, n_max), _residuals_by_rows(sys, pts, n_max))


@pytest.mark.parametrize("name", ["cat", "callable"])
def test_probe_witnesses_match_the_per_row_scan(monkeypatch, name):
    sys, n_max = _systems()[name], 40
    pts = sys.space.sample_points(8)
    hmin, hmax = sampled_bounds(sys, sys.factor, reference_points(sys))
    ks = [k for k in np.linspace(hmin, hmax, 15)[1:-1] if k != 0.0]
    first = _first_returns_by_rows(sys, pts, ks, n_max)
    on_boundary = False
    for rows in (1, 3, 7):
        _blocks_of(monkeypatch, rows, len(pts))
        reports = torus.probe_sweep(sys, ks, n_max=n_max, starts=8)
        for j, r in enumerate(reports):
            if r.certificate == "orbit-returns":
                n, p, t = first[j]
                start = pts[p] if np.ndim(pts[p]) else float(pts[p])
                assert (r.witness.n, repr(r.witness.t)) == (n, repr(t))
                assert np.array_equal(r.witness.start, start)
                on_boundary |= rows > 1 and (n - 1) % rows in (0, rows - 1)
    assert on_boundary  # some first return is the first or last row of a block


def test_probe_on_an_exact_table_does_not_depend_on_blocks(monkeypatch):
    sys = _systems()["exact"]
    ks = [-1.5, -0.5, 0.0, 0.25, 1.0]
    got = []
    for rows in (1, 3, 7):
        _blocks_of(monkeypatch, rows, sys.space.size)
        got.append(repr(torus.probe_sweep(sys, ks, n_max=30)))
    assert got[0] == got[1] == got[2]


def test_opaque_callable_in_a_coboundary_keeps_one_row_per_block():
    shapes = []

    def f(x):
        shapes.append(np.shape(x))
        return np.sin(2 * math.pi * np.asarray(x, dtype=float))

    sys = rotation_system("golden", {"type": "coboundary", "f": f}, grid_resolution=16)
    pts = sys.space.sample_points()
    shapes.clear()
    assert [len(b) for b in orbit_blocks(sys, pts, 5)] == [1] * 5
    assert shapes == [pts.shape] * 6


# --------------------------------------------------------------------------
# replay: a stepped walk whose points come back to their start
# --------------------------------------------------------------------------

CAT_TERMS = {"type": "trig2", "terms": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]}


def _plain_rows(sys, pts, n, inverse=False):
    """Oracle: the rows of ``_rows`` as one array, with no replay."""
    return np.array(list(_rows(sys, pts, n, inverse)))


def _counted_steps(monkeypatch):
    calls = []
    real = core.step_points

    def counted(sys, pts, inverse=False):
        calls.append(np.shape(pts))
        return real(sys, pts, inverse=inverse)

    monkeypatch.setattr(core, "step_points", counted)
    return calls


def _copysign_h(x):
    # -1 at -0.0 and +1 at +0.0: a walk that took -0.0 for +0.0 would show it
    return np.copysign(1.0, np.asarray(x, dtype=float))


def _counted_sorts(monkeypatch):
    """The permutations that ``_return_permutation`` returns, one per call
    (None where the batches differ)."""
    found = []
    real = core._return_permutation

    def counted(start, cur):
        found.append(real(start, cur))
        return found[-1]

    monkeypatch.setattr(core, "_return_permutation", counted)
    return found


def _is_identity(sigma):
    return np.array_equal(sigma, np.arange(len(sigma)))


@pytest.mark.parametrize("inverse", [False, True])
def test_cat_walk_replays_its_period(monkeypatch, inverse):
    # on the dyadic 64 x 64 grid the float cat-map orbit is the lattice orbit:
    # one step permutes the grid (and the grid is back in place after 48)
    sys = cat_map_system(CAT_TERMS, grid_resolution=64)
    pts, n = sys.space.sample_points(), 200
    want = _plain_rows(sys, pts, n, inverse)
    steps, sorts = _counted_steps(monkeypatch), _counted_sorts(monkeypatch)
    got = orbit_array(sys, pts, n, inverse=inverse)
    assert _same(got, want)
    assert len(steps) == 1 and len(sorts) == 1 and not _is_identity(sorts[0])
    blocks = []
    for block in orbit_blocks(sys, pts, n, inverse=inverse):
        blocks.append(block.copy())
        block += 1.0  # callers change blocks in place; the replayed rows stay
    assert _same(np.concatenate(blocks), want)


# cycles of lengths 2, 3 and 5: every state is back after lcm = 30 steps
PERM_TABLE = [1, 0, 3, 4, 2, 6, 7, 8, 9, 5]


def _perm_system():
    rng = np.random.default_rng(3)
    values = [f"{int(p)}/{int(q)}" for p, q in zip(rng.integers(-9, 10, 10),
                                                    rng.integers(1, 7, 10))]
    return finite_permutation_system(PERM_TABLE, values)


def test_exact_permutation_replays_its_common_period(monkeypatch):
    # the full state set is a permutation of itself after one step
    sys = _perm_system()
    pts = sys.space.sample_points()
    for inverse in (False, True):
        want = _plain_rows(sys, pts, 100, inverse)
        steps, sorts = _counted_steps(monkeypatch), _counted_sorts(monkeypatch)
        assert _same(orbit_array(sys, pts, 100, inverse=inverse), want)
        assert len(steps) == 1 and len(sorts) == 1 and not _is_identity(sorts[0])
        monkeypatch.undo()


# (states, step of the return, whether the return is in place): one state
# of each cycle is back as a set only when each state is back, at lcm = 30;
# two states of the 5-cycle only when both are; the 2-cycle with one state
# of the 3-cycle comes back at 3 with the 2-cycle's states swapped
PARTIAL_SAMPLES = [([0, 2, 5], 30, True), ([5, 7], 5, True), ([0, 1, 2], 3, False)]


@pytest.mark.parametrize("states, period, in_place", PARTIAL_SAMPLES)
@pytest.mark.parametrize("rows", [1, 3, 7, None])
@pytest.mark.parametrize("inverse", [False, True])
def test_a_partial_sample_replays_at_its_return(monkeypatch, states, period, in_place, rows,
                                                inverse):
    sys, n = _perm_system(), 100
    pts = np.array(states, dtype=np.int64)
    if rows is not None:  # blocks shorter and longer than the period
        _blocks_of(monkeypatch, rows, len(pts))
    want = _plain_rows(sys, pts, n, inverse)
    steps, sorts = _counted_steps(monkeypatch), _counted_sorts(monkeypatch)
    blocks = []
    for block in orbit_blocks(sys, pts, n, inverse=inverse):
        blocks.append(block.copy())
        block[:] = 7  # callers change blocks in place; the kept rows stay
    assert _same(np.concatenate(blocks), want)
    assert len(steps) == period and len(sorts) == 1
    assert _is_identity(sorts[0]) == in_place


def test_a_start_at_minus_zero_is_not_its_return(monkeypatch):
    # x + 1/2 + 1/2 wraps to +0.0, which equals -0.0 but is not its bits: as
    # values the stepped batch below is the start reordered, as bits never
    sys = rotation_system(0.5, _copysign_h, grid_resolution=4)
    pts = np.array([-0.0, 0.5, 0.25, 0.75])
    want = _plain_rows(sys, pts, 7)
    assert want[0, 0] == -1.0 and want[2, 0] == 1.0
    steps, sorts = _counted_steps(monkeypatch), _counted_sorts(monkeypatch)
    assert _same(orbit_array(sys, pts, 7), want)
    assert len(steps) == 6 and sorts == []
    cat = cat_map_system(lambda p: _copysign_h(np.asarray(p)[:, 0]), grid_resolution=4)
    pts = np.array([[-0.0, 0.0], [0.5, 0.25]])
    assert _same(orbit_array(cat, pts, 13), _plain_rows(cat, pts, 13))


@pytest.mark.parametrize("name", ["cat100", "callable"])
def test_a_walk_that_never_returns_steps_every_row(monkeypatch, name):
    if name == "cat100":  # off the dyadic grid the float orbit drifts off the lattice
        sys, n = cat_map_system(CAT_TERMS, grid_resolution=100), 60
    else:
        sys, n = rotation_system("golden", _callable_h, grid_resolution=64), 60
    pts = sys.space.sample_points()
    want = _plain_rows(sys, pts, n)
    steps, sorts = _counted_steps(monkeypatch), _counted_sorts(monkeypatch)
    assert _same(orbit_array(sys, pts, n), want)
    assert len(steps) == n - 1 and sorts == []


def test_a_walk_that_never_returns_keeps_at_most_the_cell_budget():
    import tracemalloc

    sys = rotation_system("golden", _callable_h, grid_resolution=4096)
    pts = sys.space.sample_points()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for _block in orbit_blocks(sys, pts, 1000):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the kept rows, at most REPLAY_CELLS float64 cells, plus a few rows;
    # 1000 kept rows would be 32 MiB
    assert peak < 8 * core.REPLAY_CELLS + 40 * 8 * len(pts)


# --------------------------------------------------------------------------
# the probe's pre-screen: every (size, n, p) scanned, as a reference
# --------------------------------------------------------------------------


def _unfiltered_probe(sys, ks, n_max, starts):
    """(verdict, escape bound, witness (n, p, t)) of every size, as
    ``probe_sweep`` decides them on continuous systems without a stored f,
    with every (size, n, p) of the orbit scanned for returns."""
    pts = sys.space.sample_points(starts)
    hmin, hmax = sampled_bounds(sys, sys.factor, reference_points(sys))
    kv = np.array(ks)[:, None]
    bands = [torus._band(hmin, hmax, k) for k in ks]
    lo, hi = np.array(bands).T[:, :, None]
    t0 = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, 0.5 * (lo + hi))
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    lo, hi = lo - tol, hi + tol
    first, last, S = {}, np.zeros(len(ks), dtype=int), np.zeros(len(pts))
    for n, row in enumerate(_rows(sys, pts, n_max), start=1):
        S = S + row
        t_vals = t0 + kv * n - S
        in_band = (t_vals >= lo) & (t_vals <= hi)
        for j in np.flatnonzero(in_band.any(axis=1)):
            last[j] = n
            if j not in first:
                p = int(np.argmax(in_band[j]))
                first[j] = (n, p, float(t_vals[j, p]))
    ext = birkhoff_extrema(sys, pts, n_max).extrema_per_n
    sup_env, inf_env = ext["sup_env_plus"], ext["inf_env_minus"]
    ns, out = np.arange(1, n_max + 1), []
    for j, (k, (a, b)) in enumerate(zip(ks, bands)):
        width, margin = b - a, 1e-12 * max(1.0, abs(k))
        bounds = [np.maximum(ns[m], np.floor(width / gap[m]) + 1).min()
                  for m, gap in ((sup_env < k - margin, k - sup_env),
                                 (inf_env > k + margin, inf_env - k)) if m.any()]
        if bounds:
            out.append((torus.VERDICT_ESCAPE, int(min(bounds)), None))
        elif j in first and last[j] >= max(1, math.ceil(0.5 * n_max)):
            out.append((torus.VERDICT_RECURRENT, None, first[j]))
        else:
            out.append((torus.VERDICT_INCONCLUSIVE, None, None))
    return pts, out


@pytest.mark.parametrize("name, n_max", [("cat64", 200), ("golden_cos", 2000),
                                         ("cat8", 1), ("cat8", 2), ("cat8", 5), ("cat8", 11)])
def test_probe_prescreen_equals_the_unfiltered_scan(name, n_max):
    # cat64 is the benchmark's cat probe, 64 x 64 starts at n = 200; at short
    # horizons on the 8 x 8 grid, late returns begin at n = ceil(n_max / 2)
    if name.startswith("cat"):
        starts = int(name[3:])
        sys = cat_map_system(CAT_TERMS, grid_resolution=starts)
    else:
        sys = rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]},
                              grid_resolution=1024)
        starts = 64
    hmin, hmax = sampled_bounds(sys, sys.factor, reference_points(sys))
    ks = np.linspace(hmin - 0.3, hmax + 0.3, 41).tolist() + [0.0, hmin, hmax]
    pts, want = _unfiltered_probe(sys, ks, n_max, starts)
    got = torus.probe_sweep(sys, ks, n_max=n_max, starts=starts)
    assert {w[0] for w in want} >= {torus.VERDICT_ESCAPE, torus.VERDICT_RECURRENT} or n_max < 5
    for r, (verdict, bound, witness) in zip(got, want):
        assert (r.verdict, r.escape_bound) == (verdict, bound)
        if witness is None:
            assert r.witness is None
        else:
            n, p, t = witness
            assert (r.witness.n, repr(r.witness.t)) == (n, repr(t))
            assert np.array_equal(r.witness.start, pts[p] if np.ndim(pts[p]) else float(pts[p]))
