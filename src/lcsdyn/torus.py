"""Mapping-torus Z-action on N x R and its explicit trivializing data.

The action of size k moves (x, t) to (psi(x), t + k - h(x)); its n-th power
has the closed form (psi^n(x), t + n(k - A_n(h)(x))).  When k avoids the
range of some averaged factor A_n(h), a smooth cutoff chi assembles a
function g on N x R with

    g(psi(x), t + 1) = g(x, t) - A_n(h)(x)   and   dt g + k one-signed,

which conjugates the size-1 action to the size-k action through
sigma(x, t) = (x, g(x, t) + t k + f_n(x)) and yields mu = -k (t o sigma^{-1})
with mu o rho = mu - k.

g and dt g are read off two float tables per point batch, A_n(h)(psi^i p)
for i < F and A_n(h)(psi^{-j} p) for j = 1..B.  Each row is a window of n
rows of one strip of base rows, h(psi^{-j} p) for j = 1..B and h(psi^i p)
for i < F + n - 1.  When A_n(h) > k with k < 0 (the mirrored branch), g is
the construction for (psi^{-1}, -A_n(h) o psi^{-1}, -k) at -t, which reads
the same two tables swapped and negated.  ``GConstruction.batch`` walks them
once per point batch; a sigma inversion builds them once, for all samples,
at the rows its final brackets need, and bisects and runs Newton on them.
The cutoff reads its quadrature tables only off its plateaus s <= 0 and
s >= 1, so at any t only the one translate per sample inside (0, 1) costs
a lookup.

The properness probe watches orbits of the compact band K whose t-extent
is [-max(max h, k - min h), -min(min h, k - max h)]: the band is wide
enough that a drifting orbit cannot step across it without landing inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    FINITE,
    BudgetError,
    ConformalSystem,
    DomainError,
    ValidationError,
    eval_factor,
    factor_range,
    generating_span,
    iterate,
    orbit_array,
    orbit_rows,
    point_batch,
    reference_points,
    scaled_floats,
    step_points,
)

VERDICT_RECURRENT = "RecurrentEvidence"
VERDICT_ESCAPE = "EscapeCertified"
VERDICT_INCONCLUSIVE = "Inconclusive"


class NotFoundError(RuntimeError):
    """No usable averaging order was found within the scan budget."""


class InfeasibleError(ValueError):
    """The requested construction cannot exist with the given data."""


@dataclass(frozen=True)
class TorusAction:
    """The Z-action generator (x, t) -> (psi(x), t + k - h(x))."""

    sys: ConformalSystem
    k: object

    def __post_init__(self):
        if not math.isfinite(float(self.k)):
            raise ValidationError("size k must be finite")


def action_step(act: TorusAction, x, t):
    """One forward application of the action generator."""
    return action_power(act, x, t, 1)


def action_step_inverse(act: TorusAction, x, t):
    """One application of the inverse generator (via psi^{-1})."""
    prev = iterate(act.sys, x, -1)
    return prev, t - act.k + _orbit_sum(act.sys, prev, 1)


def action_power(act: TorusAction, x, t, n: int, max_iterations: int = 1_000_000):
    """n-th power by the closed formula (psi^n x, t + n k - S_n(h)(x)), n >= 0."""
    if n < 0:
        raise ValidationError("action_power expects n >= 0")
    if n > max_iterations:
        raise BudgetError(f"n = {n} exceeds budget {max_iterations}")
    return iterate(act.sys, x, n, max_iterations), t + n * act.k - _orbit_sum(act.sys, x, n)


def _orbit_sum(sys: ConformalSystem, x, n: int):
    """S_n(h)(x): the orbit rows of x, stepped as a batch of one, added in
    order; a Fraction on exact systems, else a float."""
    total = 0
    for row in orbit_rows(sys, np.asarray(sys.space.normalize(x))[None], n):
        total += int(row[0]) if sys.exact else float(row[0])
    return Fraction(total, sys.scale) if sys.exact else total


@dataclass
class Witness:
    start: object
    n: int
    t: float

    def to_json(self):
        start = self.start
        start = (start.astype(float).tolist() if isinstance(start, np.ndarray)
                 else int(start) if isinstance(start, (np.integer, int)) else float(start))
        return {"start": start, "n": int(self.n), "t": float(self.t)}


@dataclass
class ProbeReport:
    """Evidence about proper discontinuity of the size-k action.

    RecurrentEvidence: an orbit launched in the band K keeps re-entering it
    through the late part of the horizon (evidence against admissibility).
    EscapeCertified: a drift bound shows every sampled orbit leaves K for
    good after ``escape_bound`` steps (evidence for admissibility).
    Verdicts on continuous systems are evidence, not proof.
    """

    k: float
    band: tuple
    verdict: str
    witness: Witness | None
    escape_bound: int | None
    certificate: str
    heuristic: bool
    n_max: int
    n_starts: int

    def to_json(self):
        return {
            "k": float(self.k),
            "band": [float(self.band[0]), float(self.band[1])],
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness else None,
            "escape_bound": self.escape_bound,
            "certificate": self.certificate,
            "heuristic": self.heuristic,
            "n_max": self.n_max,
            "n_starts": self.n_starts,
        }


def band_interval(sys: ConformalSystem, k: float, points=None):
    """t-extent of the compact band K for size k (from sampled factor bounds)."""
    return _band(*factor_range(sys, points), float(k))


def _band(hmin, hmax, k):
    return -max(hmax, k - hmin), -min(hmin, k - hmax)


def _cycle_residual_bound(dec):
    """sup of |S_n(x) - n mean| over the states x of each cycle of the record
    dec and 0 < n < L.

    Along a cycle c_0 .. c_{L-1} with prefix sums D_j = sum_{i<j} (h(c_i) -
    mean), S_n(c_a) - n mean = D_{a+n} - D_a (indices mod L, D_L = D_0 = 0),
    so the sup is the largest range of the cumsum D and 0.  On an exact
    record (the integers h * scale) D is kept at ``ergopt.mean_level``, as
    integers, so the bound is an exact Fraction.
    """
    from .ergopt import mean_level

    R = 0
    for cyc, mean in zip(dec.slices(), dec.means):
        w, level, den = mean_level(mean, len(cyc), dec.scale)
        d = np.cumsum(w * dec.vals[cyc[:-1]] - level).tolist()
        if d:
            span = max(0, max(d)) - min(0, min(d))
            R = max(R, span if den is None else Fraction(span, den))
    return R


def properness_probe(act: TorusAction, n_max: int = 1000, starts=None,
                     late_fraction: float = 0.5) -> ProbeReport:
    """Probe whether the size-k orbit of the band K escapes or keeps returning.

    Certificates are tried first: exact cycle drift on finite systems, the
    telescoping bound when the factor is a stored coboundary, then the
    truncated-envelope drift bound.  Without a certificate, orbits launched
    in K are scanned; returns that persist into the last ``late_fraction`` of
    the horizon count as recurrence evidence (early incidental returns alone
    are inconclusive, since even escaping orbits may brush the band first).
    """
    return probe_sweep(act.sys, [act.k], n_max, starts, late_fraction)[0]


def probe_sweep(sys: ConformalSystem, ks, n_max: int = 1000, starts=None,
                late_fraction: float = 0.5) -> list:
    """``properness_probe`` for every size in ks, sharing what does not depend on k.

    The sizes left without an exact certificate share one streamed orbit
    pass: it yields the envelope curves and scans each row of running sums
    for every such size, keeping the first in-band (n, p) in row-major order.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    ks = [float(TorusAction(sys, k).k) for k in ks]
    if starts is None:
        starts = sys.space.size if sys.space.kind == FINITE else 64
    pts = sys.space.sample_points(starts)
    hmin, hmax = factor_range(sys)
    bands = [_band(hmin, hmax, k) for k in ks]

    def report(i, verdict, witness, escape_bound, certificate, heur=sys.space.kind != FINITE):
        return ProbeReport(ks[i], bands[i], verdict, witness, escape_bound, certificate,
                           heur, n_max, len(pts))

    # --- certificates -----------------------------------------------------
    reports = [None] * len(ks)
    if sys.space.kind == FINITE:
        from . import ergopt

        dec = ergopt.cycle_mean_extrema(sys)
        R = _cycle_residual_bound(dec)
        means = [float(mean) for mean in dec.means]
        for i, (k, (lo, hi)) in enumerate(zip(ks, bands)):
            gaps = [abs(k - m) for m in means]
            if min(gaps) > 1e-12:
                n0 = max(int(math.floor((hi - lo + R) / g)) + 1 for g in gaps)
                reports[i] = report(i, VERDICT_ESCAPE, None, n0, "cycle-exact", False)
            else:  # k is (numerically) a cycle mean: that cycle's band orbit is periodic
                idx = gaps.index(min(gaps))
                a, b = dec.bounds[idx:idx + 2].tolist()
                t0 = 0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi)
                wit = Witness(int(dec.order[a]), b - a, t0 + (b - a) * (k - means[idx]))
                reports[i] = report(i, VERDICT_RECURRENT, wit, None, "cycle-exact", False)
    elif sys.generating_f is not None and any(ks):
        V = generating_span(sys, reference_points(sys))
        for i, (k, (lo, hi)) in enumerate(zip(ks, bands)):
            if k != 0.0:
                n0 = int(math.floor((hi - lo + V) / abs(k))) + 1
                reports[i] = report(i, VERDICT_ESCAPE, None, n0, "telescoping-bound")
    rest = [i for i, r in enumerate(reports) if r is None]
    if not rest:
        return reports

    # --- one pass: envelope curves and the recurrence scan of every size left
    from .birkhoff import birkhoff_extrema

    kv = np.array([ks[i] for i in rest])[:, None]
    lo, hi = np.array([bands[i] for i in rest]).T[:, :, None]
    t0 = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, 0.5 * (lo + hi))
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    lo, hi = lo - tol, hi + tol
    last = np.zeros(len(rest), dtype=int)  # latest n with an orbit in the band
    first = {}  # j -> (n, p, t) of the first return in row-major order

    def scan(n, S):
        t_vals = t0 + kv * n - S
        in_band = (t_vals >= lo) & (t_vals <= hi)
        hit = in_band.any(axis=1)
        last[hit] = n
        for j in np.flatnonzero(hit):
            if j not in first:
                p = int(np.argmax(in_band[j]))
                first[j] = (n, p, float(t_vals[j, p]))

    ext = birkhoff_extrema(sys, pts, n_max, visit=scan).extrema_per_n
    sup_env = np.asarray(ext["sup_env_plus"], dtype=float)
    inf_env = np.asarray(ext["inf_env_minus"], dtype=float)
    ns = np.arange(1, n_max + 1)
    for j, i in enumerate(rest):
        k, width = ks[i], bands[i][1] - bands[i][0]
        best = None
        margin = 1e-12 * max(1.0, abs(k))  # float noise must not fake a drift
        up = sup_env < k - margin
        if np.any(up):
            cand = np.maximum(ns[up], np.floor(width / (k - sup_env[up])) + 1)
            best = int(cand.min())
        down = inf_env > k + margin
        if np.any(down):
            cand = np.maximum(ns[down], np.floor(width / (inf_env[down] - k)) + 1)
            best = int(cand.min()) if best is None else min(best, int(cand.min()))
        if best is not None:
            reports[i] = report(i, VERDICT_ESCAPE, None, best, "envelope", True)
        elif j in first and last[j] >= max(1, math.ceil(late_fraction * n_max)):
            n, p, t = first[j]
            start = pts[p]
            wit = Witness(start if np.ndim(start) else _scalar(start, sys), n, t)
            reports[i] = report(i, VERDICT_RECURRENT, wit, None, "orbit-returns")
        else:
            reports[i] = report(i, VERDICT_INCONCLUSIVE, None, None, "none")
    return reports


def _scalar(p, sys):
    return int(p) if sys.space.kind == FINITE else float(p)


# --------------------------------------------------------------------------
# cutoff
# --------------------------------------------------------------------------


@dataclass
class CutoffFunction:
    """Mollified linear ramp: 0 on (-inf, 0], 1 on [1, inf), slope < 1/(1-2d).

    Built by convolving the ramp rising on [d, 1-d] with a bump of width d,
    so the transition is smooth, the derivative is supported in [0, 1] and
    its sup can be pushed arbitrarily close to 1 by shrinking d.  The
    quadrature tables are read only off the plateaus (NaN included); s <= 0
    and s >= 1 give 0 and 1, and a slope of 0, directly.
    """

    mollifier_width: float
    derivative_sup: float
    kind: str = "mollified-ramp"
    _grid: np.ndarray = None
    _cdf: np.ndarray = None
    _moment: np.ndarray = None

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.array(s >= 1.0, dtype=float)
        ramp = _off_plateau(s)
        s = s[ramp]
        d = self.mollifier_width
        a, b, cdf_a, cdf_b = self._cdfs(s)
        m_a = np.interp(a, self._grid, self._moment)
        m_b = np.interp(b, self._grid, self._moment)
        mid = cdf_a + ((s - d) * (cdf_b - cdf_a) - (m_b - m_a)) / (1.0 - 2.0 * d)
        out[ramp] = np.clip(mid, 0.0, 1.0)  # quadrature noise at the plateau edges
        return float(out) if out.ndim == 0 else out

    def prime(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        ramp = _off_plateau(s)
        _a, _b, cdf_a, cdf_b = self._cdfs(s[ramp])
        out[ramp] = np.maximum(cdf_b - cdf_a, 0.0) / (1.0 - 2.0 * self.mollifier_width)
        return float(out) if out.ndim == 0 else out

    def _cdfs(self, s):
        """The clipped ramp ends a, b at s and the mollifier cdf at both."""
        d = self.mollifier_width
        a = np.clip(s - 1.0 + d, -d, d)
        b = np.clip(s - d, -d, d)
        return a, b, np.interp(a, self._grid, self._cdf), np.interp(b, self._grid, self._cdf)


def _off_plateau(s):
    """Where the cutoff is neither 0 (s <= 0) nor 1 (s >= 1); NaN stays in."""
    return ~((s <= 0.0) | (s >= 1.0))


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of y over the strictly increasing grid x (at least
    3 points), starting at 0, by the composite Simpson rule for unequal
    intervals (Cartwright, J. Math. Sci. Math. Educ. 12(2), eqn (8)).

    Each interval is integrated by the parabola through it and a neighbour:
    even intervals from the forward panels, odd intervals and the last one
    from the panels of the reversed arrays.  The operations and their order
    are those of scipy.integrate.cumulative_simpson(y, x=x, initial=0.0), so
    the result is bit-identical to it.
    """
    def panels(f, dx):
        x21, x32 = dx[:-1], dx[1:]
        a = x21 / (x21 + x32)
        ab = a * (x21 / x32)
        return x21 / 6 * ((3 - a) * f[:-2] + (3 + ab + a) * f[1:-1] + (-ab) * f[2:])

    dx = np.diff(x)
    forward = panels(y, dx)
    backward = panels(y[::-1], dx[::-1])[::-1]
    parts = np.empty(dx.size)
    parts[:-1:2] = forward[::2]
    parts[1::2] = backward[::2]
    parts[-1] = backward[-1]
    # + 0.0 turns -0.0 into 0.0, as SciPy's initial=0.0 does
    return np.concatenate(([0.0], np.cumsum(parts) + 0.0))


def build_cutoff(bound: float, table_size: int = 32769) -> CutoffFunction:
    """Cutoff with derivative sup strictly below ``bound``; needs bound > 1.

    Any smooth 0 -> 1 transition supported on [0, 1] has sup slope >= 1, so
    bound <= 1 is infeasible.  The mollifier width is d = min(0.2,
    0.999 (1 - 1/bound) / 2), giving sup slope 1/(1-2d) < bound.  The
    mollifier's cdf and first moment are tabulated on ``table_size`` (>= 3)
    equally spaced points of [-d, d] by the composite Simpson rule.
    """
    bound = float(bound)
    if bound <= 1.0:
        raise InfeasibleError(
            "a 0->1 transition on [0,1] forces sup slope >= 1; bound must exceed 1")
    if table_size < 3:
        raise ValidationError(f"the cutoff table needs at least 3 points, got {table_size}")
    d = min(0.2, 0.999 * (1.0 - 1.0 / bound) / 2.0)
    u = np.linspace(-d, d, table_size)
    with np.errstate(divide="ignore", over="ignore"):
        arg = 1.0 - (u / d) ** 2
        phi = np.where(arg > 0, np.exp(-1.0 / np.maximum(arg, 1e-300)), 0.0)
    cdf = _cumulative_simpson(phi, u)
    mass = cdf[-1]
    cdf = cdf / mass
    moment = _cumulative_simpson(u * phi, u) / mass
    return CutoffFunction(
        mollifier_width=d,
        derivative_sup=1.0 / (1.0 - 2.0 * d),
        _grid=u,
        _cdf=cdf,
        _moment=moment,
    )


# --------------------------------------------------------------------------
# the transition function g and the cocycle mu
# --------------------------------------------------------------------------


def _float_orbit(sys: ConformalSystem, pts, n: int, inverse: bool = False):
    """The orbit rows as float64; exact rows h * scale are divided by scale,
    which rounds as float(Fraction) and so eval_factor do."""
    H = orbit_array(sys, pts, n, inverse)
    return scaled_floats(H, sys.scale) if sys.exact else H


def _averaged_tables(sys: ConformalSystem, n: int, pts, lead: int, trail: int):
    """The rows A_n(h)(psi^i p), i < lead, and A_n(h)(psi^{-j} p), j = 1..trail,
    as float64 arrays of shapes (lead, P) and (trail, P).

    One strip of base rows is walked per point batch: h(psi^{-j} p) for
    j = 1..trail and h(psi^i p) for i < lead + n - 1, so the two tables cost
    lead + trail + n - 1 factor rows.  The row at psi^m p is the window of
    the n strip rows from m, added in order (as a cumulative sum adds them)
    and divided by n.
    """
    back = _float_orbit(sys, step_points(sys, pts, inverse=True), trail, inverse=True)
    strip = np.concatenate([back[::-1], _float_orbit(sys, pts, lead + n - 1)])
    win = strip[:lead + trail].copy()
    for j in range(1, n):
        win += strip[j:j + lead + trail]
    win /= n
    return win[trail:], win[:trail][::-1]


@dataclass
class GConstruction:
    """g with g(psi x, t+1) = g(x, t) - A(x) and dt g + k one-signed, for the
    averaged factor A = A_n(h) of ``system`` at n = ``order`` (A = h at n = 1).

    Direct branch (A < k, k > 0):

        g(x,t) = sum_i (1 - chi(t+1+i)) A(psi^i x) - sum_i chi(t-i) A(psi^{-i-1} x)

    truncated to the finitely many indices whose cutoff coefficient is
    nonzero.  The two tables of A come from one strip of base rows per
    point batch (``_averaged_tables``), walked by ``batch``; ``g`` and
    ``dt`` are that evaluator on a fresh batch.  For A > k with k < 0 the
    mirrored branch is the direct construction for (psi^{-1}, -A o psi^{-1},
    -k) at -t: it takes the same two tables swapped and negated, evaluates
    them at -t and flips the sign of dt g.  The slope dt g + k carries the
    sign of k.
    """

    system: ConformalSystem
    k: float
    eps: float
    cutoff: CutoffFunction
    t_window: tuple
    mirrored: bool
    max_terms: int
    order: int

    def slope_sign(self) -> int:
        return 1 if self.k > 0 else -1

    def g(self, x, t):
        """g at a batch of points x, shape (P,) or (P, 2), and times t, shape
        (P,) for paired samples or (T, 1) for a (T, P) grid; a lone point is
        a batch of one, and a scalar pair gives a float."""
        return self._fresh(x, t, derivative=False)

    def dt(self, x, t):
        """dt g, broadcast as g is."""
        return self._fresh(x, t, derivative=True)

    def _fresh(self, x, t, derivative):
        ts = np.asarray(t, dtype=float)
        tab = self.batch(x, ts)
        out = (tab.dt if derivative else tab.g)(slice(None), ts)
        return float(out[0]) if tab.single and ts.ndim == 0 else out

    def batch(self, x, ts) -> "GTables":
        """The tables of A at the batch x, normalised once, with the rows
        that every time in ts needs (see ``GTables``)."""
        pts, single = point_batch(self.system.space, x)
        fwd, bwd = self._tables(pts, np.asarray(ts, dtype=float))
        if self.mirrored:
            fwd, bwd = -bwd, -fwd
        return GTables(self, single, fwd, bwd)

    def _tables(self, pts, ts, spare: int = 0):
        """The forward and backward tables of A at pts for every term a time
        in ts needs, plus ``spare`` rows each way.

        g(p, t) has ceil(-t) forward and ceil(t) backward terms (none when
        negative), on either branch; a time needing more than max_terms
        terms in all is refused.  Spare rows have cutoff coefficient 0.
        """
        lead = np.maximum(np.ceil(-ts), 0.0)
        trail = np.maximum(np.ceil(ts), 0.0)
        if np.any(lead + trail > self.max_terms):
            raise BudgetError(f"a time in the sample needs more than {self.max_terms} terms")
        return _averaged_tables(self.system, self.order, pts,
                                int(lead.max(initial=0.0)) + spare,
                                int(trail.max(initial=0.0)) + spare)

    # -- checks ---------------------------------------------------------------

    def functional_residual(self, pts=None, ts=None) -> float:
        """max |g(psi x, t+1) - g(x, t) + A(x)| over the sample."""
        pts, ts = self._default_sample(pts, ts)
        here = self.g(pts, ts)
        there = self.g(step_points(self.system, pts), ts + 1.0)
        a = _averaged_tables(self.system, self.order, pts, 1, 0)[0][0]
        return float(np.max(np.abs(there - here + a)))

    def slope_margin(self, pts=None, ts=None) -> float:
        """min |dt g + k| over the sample."""
        pts, ts = self._default_sample(pts, ts)
        return float(np.min(np.abs(self.dt(pts, ts) + self.k)))

    def dt_attainable(self, pts=None, s_count: int = 4097, max_factor_values: int = 512):
        """Attainable values of dt g as two factors (slopes, values): every
        product of a signed cutoff slope with an orbit factor value.

        At every t exactly one cutoff translate is active, so the value set
        of dt g over grid x window factors as (chi' values) x (factor orbit
        values); sampling the two factors densely is equivalent to a very
        fine direct sweep.  The tables read one spare row each way: it adds
        0 to g, but its values are attained.  The slopes are -chi'; the
        mirrored branch's factor values are the negated ones, and its dt g
        the negated product, so its slopes are chi'.  The products,
        ``np.multiply.outer(slopes, values)``, are left to the caller.
        """
        pts = reference_points(self.system) if pts is None else pts
        fwd, bwd = self._tables(pts, np.asarray(self.t_window, dtype=float), spare=1)
        hv = np.concatenate([fwd.ravel(), bwd.ravel()])
        hv = np.unique(-hv if self.mirrored else hv)
        if len(hv) > max_factor_values:
            idx = np.linspace(0, len(hv) - 1, max_factor_values).round().astype(int)
            hv = hv[idx]
        chi_p = self.cutoff.prime(np.linspace(0.0, 1.0, s_count))
        return (chi_p if self.mirrored else -chi_p), hv

    def _default_sample(self, pts, ts):
        """The points and a (T, 1) column of times: a (T, P) grid."""
        if pts is None:
            pts = reference_points(self.system, cap=256)
        if ts is None:
            lo, hi = self.t_window
            ts = np.linspace(lo, hi, 201)
        return np.asarray(pts), np.asarray(ts, dtype=float)[:, None]


@dataclass
class GTables:
    """g and dt g at one point batch, read off its two tables of A.

    ``GConstruction.batch`` walks the tables once, for the times it is
    given.  ``g(idx, t)`` and ``dt(idx, t)`` weigh the columns idx (an index
    array or a slice) by the cutoff coefficients of times t inside the
    span of those times, shaped as for ``GConstruction.g``.  A call reads
    only the rows its own times need, adding them in order, so it computes
    exactly what a fresh batch of those columns would.  On the mirrored
    branch the tables are stored swapped and negated, and read at -t.
    ``single`` is True when the batch was given as a lone point.
    """

    gcons: GConstruction
    single: bool
    fwd: np.ndarray
    bwd: np.ndarray

    def g(self, idx, t):
        return self._weigh(idx, t, derivative=False)

    def dt(self, idx, t):
        return self._weigh(idx, t, derivative=True)

    def _weigh(self, idx, t, derivative):
        # g(p, t) has ceil(-t) forward and ceil(t) backward terms; rows past
        # a value's last term have coefficient exactly 0, and total starts at
        # +0.0, so a value does not depend on the rest of the call
        gcons = self.gcons
        ts = np.asarray(t, dtype=float)
        if gcons.mirrored:
            ts = -ts
        lead = math.ceil(-ts.min(initial=0.0))
        trail = math.ceil(ts.max(initial=0.0))
        if lead > len(self.fwd) or trail > len(self.bwd):
            raise ValueError("a time needs rows beyond the batch's tables")
        fwd, bwd = self.fwd[:lead, idx], self.bwd[:trail, idx]
        total = np.zeros(np.broadcast_shapes(ts.shape, fwd.shape[1:]))
        chi = gcons.cutoff.prime if derivative else gcons.cutoff
        rows = (-1,) + (1,) * ts.ndim
        c_lead = chi(ts + 1.0 + np.arange(lead).reshape(rows))
        c_trail = chi(ts - np.arange(trail).reshape(rows))
        for c, row in zip(c_lead, fwd):
            if derivative:
                total -= c * row
            else:
                total += (1.0 - c) * row
        for c, row in zip(c_trail, bwd):
            total -= c * row
        if derivative and gcons.mirrored:
            np.negative(total, out=total)
        return total


def _ramp_side(k: float, values):
    """max of the sampled factor values when they lie below k, None when
    they lie above it.  k inside their range is a DomainError; a side that
    the sign of k cannot serve with a one-signed slope is infeasible."""
    if not np.all(np.isfinite(values)):
        raise ValidationError("factor is not finite at sampled points")
    hmin, hmax = float(values.min()), float(values.max())
    if hmin <= k <= hmax:
        raise DomainError(
            f"k = {k} lies in the sampled factor range [{hmin:.6g}, {hmax:.6g}]")
    below = hmax < k  # else hmin > k
    if k == 0 or (k < 0) == below:
        side, need = ("<", ">") if below else (">", "<")
        raise InfeasibleError(f"factor {side} k needs k {need} 0 for a one-signed slope; "
                              f"got k = {k} with factor range [{hmin:.6g}, {hmax:.6g}]")
    return hmax if below else None


def build_g(sys: ConformalSystem, k: float, t_window, cutoff: CutoffFunction = None,
            points=None, max_terms: int = 100_000, order: int = 1) -> GConstruction:
    """Assemble g for the averaged factor A = A_order(h), which must avoid k
    (A < k or A > k uniformly on the sampled points).

    The ramp construction needs the sign of k to agree with the side of the
    gap: A < k requires k > 0 and A > k requires k < 0 (otherwise a
    one-signed slope would force a cutoff with sup slope below 1, which no
    0 -> 1 transition can deliver).  A > k is the mirrored branch: the
    direct construction for (psi^{-1}, -A o psi^{-1}, -k), whose factor is
    sampled on psi^{-1} of the points.
    """
    k = float(k)
    lo, hi = float(t_window[0]), float(t_window[1])
    if not lo < hi:
        raise ValidationError("t_window must be a nonempty interval")
    if max(abs(lo), abs(hi)) + 2 > max_terms:
        raise BudgetError("t_window exceeds the truncation budget")
    if order < 1:
        raise ValidationError(f"the averaging order must be >= 1, got {order}")
    pts = reference_points(sys) if points is None else sys.space.sample_points(points)
    top = _ramp_side(k, _averaged_tables(sys, order, pts, 1, 0)[0][0])
    mirrored = top is None
    if mirrored:
        top = _ramp_side(-k, -_averaged_tables(sys, order, pts, 0, 1)[1][0])
    k_direct = -k if mirrored else k
    eps = 0.5 * (k_direct - top)
    bound = 1.0 / (1.0 - eps / k_direct)
    if cutoff is None:
        cutoff = build_cutoff(bound)
    elif cutoff.derivative_sup >= bound:
        raise InfeasibleError(
            f"supplied cutoff slope {cutoff.derivative_sup:.6g} >= required bound {bound:.6g}")
    return GConstruction(sys, k, eps, cutoff, (lo, hi), mirrored, max_terms, order)


@dataclass
class MuReport:
    n_used: int
    residual_max: float
    n_samples: int
    slope_margin: float

    def to_json(self):
        return {
            "n_used": self.n_used,
            "residual_max": self.residual_max,
            "n_samples": self.n_samples,
            "slope_margin": self.slope_margin,
        }


@dataclass
class MuConstruction:
    """sigma(x,t) = (x, g(x,t) + t k + f_n(x)) and mu = -k (t o sigma^{-1}).

    g is built for the averaged factor A_n(h); t |-> g + t k is strictly
    monotone (slope sign = sign k), so sigma inverts sample by sample.
    f_n, sigma_t, invert_sigma_t and mu take paired arrays, points of shape
    (S,) or (S, 2) with times or targets of shape (S,), and evaluate the
    whole sample at once; a scalar call is a batch of one and returns a float.
    """

    sys: ConformalSystem
    k: float
    n_used: int
    gcons: GConstruction
    report: MuReport = None
    _invert_tol: float = 1e-12

    def f_n(self, x):
        """The transfer potential f_n at a batch of points, from one orbit walk
        (exact rows stay exact until the result is rounded)."""
        from .birkhoff import transfer_potential_values

        sys, n = self.sys, self.n_used
        pts, single = point_batch(sys.space, x)
        H = orbit_array(sys, pts, n, terms=n * n)
        fn = transfer_potential_values(H, n, sys.scale)[0]
        return float(fn[0]) if single else fn

    def sigma_t(self, x, t):
        return self.gcons.g(x, t) + np.asarray(t, dtype=float) * self.k + self.f_n(x)

    def invert_sigma_t(self, x, s):
        """Solve g(x, t) + t k + f_n(x) = s for t at every sample.

        Per sample: expand a bracket around s / k (doubling steps, refused
        past half the term budget), bisect it to width 1e-3, then run at most
        60 safeguarded Newton steps.  The steps are masked array updates, so
        a sample takes exactly the steps it would take alone.  Bisection and
        Newton only ask for times inside the final brackets, so the tables of
        A are walked once, for the whole sample, at the rows those need.
        """
        pts, single = point_batch(self.sys.space, x)
        target = np.broadcast_to(np.asarray(s, dtype=float), (len(pts),)) - self.f_n(pts)
        gcons, k, sign = self.gcons, self.k, self.gcons.slope_sign()

        def F(g, idx, t):
            return sign * (g(idx, t) + t * k - target[idx])

        def fresh(idx, t):
            return gcons.g(pts[idx], t)

        t0 = target / k
        t_cap = 0.5 * gcons.max_terms
        lo, hi = t0 - (1.0 + 0.5 * np.abs(t0)), t0 + (1.0 + 0.5 * np.abs(t0))
        for end, side in ((lo, -1.0), (hi, 1.0)):  # move each end out past the root
            step = 1.0 + 0.5 * np.abs(t0)
            act = np.arange(len(pts))
            while act.size:
                act = act[side * F(fresh, act, end[act]) < 0.0]
                if np.any(np.abs(end[act]) > t_cap):
                    raise BudgetError("sigma inversion bracket exceeds the term budget")
                end[act] += side * step[act]
                step[act] *= 2.0
        tab = gcons.batch(pts, np.concatenate([lo, hi]))
        act = np.flatnonzero(hi - lo > 1e-3)
        while act.size:
            mid = 0.5 * (lo[act] + hi[act])
            below = F(tab.g, act, mid) <= 0.0
            lo[act[below]] = mid[below]
            hi[act[~below]] = mid[~below]
            act = act[hi[act] - lo[act] > 1e-3]
        t = 0.5 * (lo + hi)
        tol = self._invert_tol * max(1.0, abs(k))
        act = np.arange(len(pts))
        for _ in range(60):
            if not act.size:
                break
            val = F(tab.g, act, t[act])
            live = ~(np.abs(val) <= tol)
            act, val = act[live], val[live]
            if not act.size:
                break
            slope = sign * (tab.dt(act, t[act]) + k)
            live = ~(slope <= 0)
            act, val, slope = act[live], val[live], slope[live]
            t_new = t[act] - val / slope
            out = ~((lo[act] <= t_new) & (t_new <= hi[act]))
            o, above = act[out], val[out] > 0.0  # outside: shrink, then bisect
            hi[o[above]] = t[o[above]]
            lo[o[~above]] = t[o[~above]]
            t_new[out] = 0.5 * (lo[o] + hi[o])
            t[act] = t_new
        return float(t[0]) if single else t

    def mu(self, x, s):
        return -self.k * self.invert_sigma_t(x, s)

    def mu_cocycle_residual(self, samples: int = 1000, rng=None, t_scale: float = None) -> float:
        """max |mu(rho(x,t)) - mu(x,t) + k| over random samples.

        The samples are drawn one (x, t) pair at a time, x first, so the draws
        do not depend on the batching; mu then runs once on rho(x, t) and once
        on (x, t) for the whole sample.
        """
        rng = np.random.default_rng(rng)
        sys = self.sys
        lo, hi = self.gcons.t_window
        lo, hi = (0.5 * lo, 0.5 * hi) if t_scale is None else (-t_scale, t_scale)
        draws = [(_random_point(sys, rng), rng.uniform(lo, hi)) for _ in range(samples)]
        if not draws:
            return 0.0
        xs = np.array([x for x, _ in draws])
        ts = np.array([t for _, t in draws])
        # rho(x, t) = (psi x, t + k - h(x))
        ys, t2 = step_points(sys, xs), ts + self.k - eval_factor(sys, xs)
        return float(np.max(np.abs(self.mu(ys, t2) - self.mu(xs, ts) + self.k)))


def _random_point(sys: ConformalSystem, rng):
    kind = sys.space.kind
    if kind == FINITE:
        return int(rng.integers(0, sys.space.size))
    if kind == "circle":
        return float(rng.uniform(0.0, 1.0))
    return np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)])


def nonzero_size(k) -> float:
    """k as a float, refused at k = 0, where the cocycle degenerates."""
    if float(k) == 0.0:
        raise NotFoundError("the cocycle -k t o sigma^{-1} degenerates at k = 0")
    return float(k)


def usable_order(sys: ConformalSystem, k: float, n_scan: int = 64, points=None) -> int:
    """The first n <= n_scan with A_n(h) on the usable side of k.

    Scans n = 1..n_scan for max A_n < k (k > 0) or min A_n > k (k < 0); if no
    order qualifies the size is reported NotFound (k may be non-admissible,
    or admissible on the side the ramp construction cannot reach).
    """
    from .birkhoff import birkhoff_extrema

    k = nonzero_size(k)
    pts = reference_points(sys) if points is None else sys.space.sample_points(points)
    ext = birkhoff_extrema(sys, pts, n_scan).extrema_per_n
    margin = 1e-12 * max(1.0, abs(k))  # float noise must not fake a gap
    usable = (np.asarray(ext["max_avg"], dtype=float) < k - margin if k > 0
              else np.asarray(ext["min_avg"], dtype=float) > k + margin)
    if not usable.any():
        raise NotFoundError(
            f"no n <= {n_scan} with the averaged factor on the usable side of k = {k}")
    return int(np.argmax(usable)) + 1


def build_mu(sys: ConformalSystem, k: float, t_window, n_scan: int = 64,
             points=None, samples: int = 512, rng=None) -> MuConstruction:
    """Build g and mu at the first usable order (``usable_order``), and
    report the slope margin and a sampled cocycle residual."""
    k = float(k)
    n_used = usable_order(sys, k, n_scan, points)
    gcons = build_g(sys, k, t_window, points=points, order=n_used)
    mu = MuConstruction(sys, k, n_used, gcons)
    margin = gcons.slope_margin()
    residual = mu.mu_cocycle_residual(samples=samples, rng=rng)
    mu.report = MuReport(n_used, residual, samples, margin)
    return mu


def conjugation_residual(mu: MuConstruction, c: float, pts=None, ts=None) -> float:
    """Residual of the scaled conjugation identity.

    With sigma_c(x,t) = (x, g(x,t) + t c k + f_n(x)), the size-1 action is
    carried to the size-(ck) action of the original factor:
    sigma_c o rho_1 = rho_{(psi, ck - h)} o sigma_c.  Returns the max
    t-component mismatch over the sample (sigma_c is a diffeomorphism only
    where dt g + ck is one-signed, but the identity itself is algebraic).
    """
    sys = mu.sys
    g = mu.gcons
    if pts is None:
        pts = reference_points(sys, cap=256)
    if ts is None:
        lo, hi = g.t_window
        ts = np.linspace(0.5 * lo, 0.5 * hi, 101)
    pts = np.asarray(pts)
    ts = np.asarray(ts, dtype=float)
    ck = c * mu.k
    from .birkhoff import transfer_potential_values

    H = _float_orbit(sys, pts, mu.n_used)
    fn_here, fn_next = transfer_potential_values(H, mu.n_used)
    nxt = step_points(sys, pts)
    h = H[0]
    lhs = g.g(nxt, (ts + 1.0)[:, None]) + (ts[:, None] + 1.0) * ck + fn_next[None, :]
    rhs = g.g(pts, ts[:, None]) + ts[:, None] * ck + fn_here[None, :] + ck - h[None, :]
    return float(np.max(np.abs(lhs - rhs)))
