"""The averaged and mirrored g against a reference that builds them as systems.

The reference below is the construction before it was table-driven: A_n(h)
as a factor closure that walks n steps per point, the mirrored branch as the
direct construction on the system (psi^{-1}, -h o psi^{-1}) at -k and -t,
and g evaluated from orbit tables of that system.  The library reads both
tables off one strip of base rows; the two must agree to float rounding.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from lcsdyn import build_cutoff, build_g, build_mu, cat_map_system, core
from lcsdyn import finite_permutation_system, rotation_system
from lcsdyn.core import FINITE, eval_factor, factor_range, point_batch, step_points
from lcsdyn.torus import MuConstruction, _averaged_tables, _float_orbit

from conftest import scalar_factor, scalar_map

# --------------------------------------------------------------------------
# reference construction
# --------------------------------------------------------------------------


def ref_averaged_factor(sys, n):
    """A_n(h) as a factor: every point walks its own n forward steps."""
    def a_n(x):
        pts, single = point_batch(sys.space, x)
        v = np.cumsum(_float_orbit(sys, pts, n), axis=0)[-1] / n
        return float(v[0]) if single else v

    return a_n


def ref_mirrored_system(sys):
    """(psi^{-1}, -h o psi^{-1}) as a system of its own."""
    mk = dict(sys.map_kind)
    kind = mk["kind"]
    if kind == "rotation":
        mk["angle"] = -mk["angle"]
    elif kind in ("linear2", "permutation"):
        key = "matrix" if kind == "linear2" else "table"
        mk[key], mk["inverse"] = mk["inverse"], mk[key]
    if sys.space.kind == FINITE and sys.factor_table is not None:
        inv = mk["table"]
        neg = [-sys.factor_table[inv[i]] for i in range(len(inv))]
        # an exact table is a RationalTable: a tuple of Fractions is a float table
        values = (core.RationalTable([v.numerator for v in neg], [v.denominator for v in neg])
                  if sys.exact else tuple(neg))
        factor = {"type": "table", "values": values}
    else:
        def factor(x):
            return -eval_factor(sys, step_points(sys, np.asarray(x, dtype=float), inverse=True))

    mirrored = replace(sys, factor=factor, map_kind=mk)
    assert mirrored.exact == sys.exact
    return mirrored


@dataclass
class RefG:
    system: object
    k: float
    cutoff: object
    mirrored: bool
    inner: object
    max_terms: int = 100_000

    def slope_sign(self):
        return 1 if self.k > 0 else -1

    def g(self, x, t):
        if self.mirrored:
            return self.inner.g(x, -np.asarray(t, dtype=float))
        return self._paired(x, t, False)

    def dt(self, x, t):
        if self.mirrored:
            return -self.inner.dt(x, -np.asarray(t, dtype=float))
        return self._paired(x, t, True)

    def batch(self, x, ts):
        """The batch evaluator's interface on this reference's own g and dt:
        g(idx, t) and dt(idx, t) at the columns idx of the batch x."""
        pts = point_batch(self.system.space, x)[0]
        return SimpleNamespace(g=lambda idx, t: self.g(pts[idx], t),
                               dt=lambda idx, t: self.dt(pts[idx], t))

    def tables(self, pts, ts):
        ts = np.asarray(ts, dtype=float)
        lead = int(np.maximum(np.ceil(-ts), 0.0).max(initial=0.0))
        trail = int(np.maximum(np.ceil(ts), 0.0).max(initial=0.0))
        sys = self.system
        return (_float_orbit(sys, pts, lead),
                _float_orbit(sys, step_points(sys, pts, inverse=True), trail, inverse=True))

    def _paired(self, x, t, derivative):
        pts, single = point_batch(self.system.space, x)
        ts = np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))
        fwd, bwd = self.tables(pts, ts)
        chi = self.cutoff.prime if derivative else self.cutoff
        lead = chi(ts + 1.0 + np.arange(len(fwd))[:, None])
        trail = chi(ts - np.arange(len(bwd))[:, None])
        total = np.zeros(len(pts))
        for c, row in zip(lead, fwd):
            total += -c * row if derivative else (1.0 - c) * row
        for c, row in zip(trail, bwd):
            total -= c * row
        return float(total[0]) if single else total


def ref_build_g(sys, k):
    _hmin, hmax = factor_range(sys)
    if hmax < k:
        eps = 0.5 * (k - hmax)
        return RefG(sys, k, build_cutoff(1.0 / (1.0 - eps / k)), False, None)
    inner = ref_build_g(ref_mirrored_system(sys), -k)
    return RefG(sys, k, inner.cutoff, True, inner)


def ref_build_averaged_g(sys, k, n):
    return ref_build_g(replace(sys, factor=ref_averaged_factor(sys, n)), k)


# --------------------------------------------------------------------------
# comparisons
# --------------------------------------------------------------------------


def _system(name):
    if name == "cos":
        return rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]},
                               grid_resolution=128)
    if name == "cat":
        return cat_map_system({"type": "trig2", "terms": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]},
                              grid_resolution=16)
    values = [0, Fraction(1, 2), Fraction(1, 4), Fraction(-1, 2), Fraction(1, 3)]
    return finite_permutation_system([1, 2, 0, 4, 3], values)


def _samples(sys, rng, count):
    kind = sys.space.kind
    if kind == FINITE:
        return rng.integers(0, sys.space.size, size=count)
    if kind == "circle":
        return rng.uniform(0.0, 1.0, size=count)
    return rng.uniform(0.0, 1.0, size=(count, 2))


SIZES = {"cos": 1.5, "cat": 2.0, "perm": 1.0}
CASES = [(name, sign * k, n) for name, k in SIZES.items() for sign in (1, -1)
         for n in (1, 3, 8)]
TOL = 1e-12


@pytest.mark.parametrize("name,k,n", CASES)
def test_tables_g_dt_and_inverse_match_the_system_construction(name, k, n):
    sys = _system(name)
    ref = ref_build_averaged_g(sys, k, n)
    gcons = build_g(sys, k, (-4, 4), order=n)
    assert gcons.mirrored == ref.mirrored == (k < 0)
    assert gcons.cutoff.mollifier_width == ref.cutoff.mollifier_width

    rng = np.random.default_rng(3)
    xs = _samples(sys, rng, 48)
    ts = rng.uniform(-4.5, 4.5, size=48)
    ts[:3] = (-3.0, 0.0, 2.0)
    pts = point_batch(sys.space, xs)[0]
    fwd, bwd = gcons._tables(pts, ts)
    if ref.mirrored:  # the reference's own tables are those of the mirrored system
        lead, trail = ref.inner.tables(pts, -ts)
        want_fwd, want_bwd = -trail, -lead
    else:
        want_fwd, want_bwd = ref.tables(pts, ts)
    assert fwd.shape == want_fwd.shape and bwd.shape == want_bwd.shape
    assert np.max(np.abs(fwd - want_fwd), initial=0.0) <= TOL
    assert np.max(np.abs(bwd - want_bwd), initial=0.0) <= TOL

    for got, want in ((gcons.g, ref.g), (gcons.dt, ref.dt)):
        assert np.max(np.abs(got(xs, ts) - want(xs, ts))) <= TOL

    s = MuConstruction(sys, k, n, gcons).sigma_t(xs, ts)
    inv = MuConstruction(sys, k, n, gcons).invert_sigma_t(xs, s)
    ref_inv = MuConstruction(sys, k, n, ref).invert_sigma_t(xs, s)
    assert np.max(np.abs(inv - ref_inv)) <= TOL


@pytest.mark.parametrize("name", ["cos", "perm"])
def test_mirrored_tables_pull_back_through_the_inverse(name):
    # the mirrored branch's factor is -h o psi^{-1} on the map psi^{-1}: its
    # i-th forward row is -h(psi^{-(i+1)} x), walked with the scalar psi^{-1}
    sys = _system(name)
    gcons = build_g(sys, -SIZES[name], (-4, 4))
    assert gcons.mirrored
    pts = sys.space.sample_points(8)
    psi_inv, h = scalar_map(sys, inverse=True), scalar_factor(sys)
    _fwd, bwd = gcons._tables(pts, np.array([3.0]))
    for p, col in zip(pts.tolist(), (-bwd).T):
        y, want = p, []
        for _ in range(3):
            y = psi_inv(y)
            want.append(-float(h(y)))
        np.testing.assert_allclose(col, want, rtol=0, atol=1e-15 if name == "cos" else 0)


def test_the_mirror_of_an_exact_table_is_exact():
    # the reference mirrors a table as a table; at order 1 (A_1(h) = h) its g
    # is the direct construction on that exact system, walked on its integers
    sys = _system("perm")
    mirror = ref_mirrored_system(sys)
    assert sys.exact and mirror.exact
    assert list(mirror.factor_table) == [-sys.factor_table[i] for i in mirror.perm_table.tolist()]
    k = -SIZES["perm"]
    ref, gcons = ref_build_g(sys, k), build_g(sys, k, (-4, 4), order=1)
    assert ref.mirrored and gcons.mirrored
    assert gcons.cutoff.mollifier_width == ref.cutoff.mollifier_width
    rng = np.random.default_rng(5)
    xs, ts = _samples(sys, rng, 32), rng.uniform(-4.5, 4.5, size=32)
    for got, want in ((gcons.g, ref.g), (gcons.dt, ref.dt)):
        assert np.max(np.abs(got(xs, ts) - want(xs, ts))) <= TOL


def test_one_strip_per_side_of_rows(monkeypatch):
    # a table of R rows at order n walks R + n - 1 base rows per side; the
    # factor closure of the averaged system walked n rows for each of the R
    sys = rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]}, grid_resolution=64)
    mu = build_mu(sys, 0.3, (-8, 8), samples=4, rng=0)
    n = mu.n_used
    assert n >= 2
    rows = []
    real = core.eval_factor

    def counted(s, pts):
        if s is sys:
            rows.append(len(pts))
        return real(s, pts)

    monkeypatch.setattr(core, "eval_factor", counted)
    pts = sys.space.sample_points(16)
    R = 6
    for t in (-R + 0.5, R - 0.5):  # R forward rows, then R backward rows
        rows.clear()
        mu.gcons.g(pts, np.full(16, t))
        assert rows == [16] * (R + n - 1)


def test_table_rows_are_exact_windows_on_a_permutation():
    # on a finite map psi^{-1} psi^{i+1} p is psi^i p exactly, so every
    # window equals the cumulative sum of the scalar orbit values
    sys = _system("perm")
    pts = sys.space.sample_points()
    psi, h = scalar_map(sys), scalar_factor(sys)
    for n in (1, 3, 8):
        fwd, bwd = _averaged_tables(sys, n, pts, 4, 3)
        for m, row in [(i, fwd[i]) for i in range(4)] + [(-j, bwd[j - 1]) for j in (1, 2, 3)]:
            for p, v in zip(pts.tolist(), row):
                y = core.iterate(sys, p, m)
                vals = []
                for _ in range(n):
                    vals.append(float(h(y)))
                    y = psi(y)
                assert v == np.cumsum(vals)[-1] / n
    assert eval_factor(sys, pts).tolist() == _averaged_tables(sys, 1, pts, 1, 0)[0][0].tolist()
