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
    factor_range,
    finite_permutation_system,
    orbit_array,
    orbit_blocks,
    rotation_system,
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


def _rows(sys, pts, n):
    """The orbit rows one at a time: h at stepped points, the scaled
    integers on exact systems."""
    cur = np.asarray(pts, dtype=np.int64) if sys.exact else pts
    for _ in range(n):
        yield sys.scaled_table[cur] if sys.exact else eval_factor(sys, cur)
        cur = step_points(sys, cur)


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
        if scale is None:
            out.append(np.max(np.abs(s_here / n - (h + cs_next / n - cs_here / n))))
        else:
            out.append(Fraction(int(np.max(np.abs(s_here - (n * h + cs_next - cs_here)))),
                                n * scale))
    return np.array(out, dtype=float if scale is None else object)


def _first_returns_by_rows(sys, pts, ks, n_max):
    """j -> (n, p, t) of the first in-band return of size ks[j], in
    row-major order: ``probe_sweep``'s scan, one row at a time."""
    hmin, hmax = factor_range(sys)
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
    assert _same(orbit_array(sys, pts, n_max, terms=n_max),
                 np.array(list(_rows(sys, pts, n_max)), dtype=sum_dtype(sys, n_max)))
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
    hmin, hmax = factor_range(sys)
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
