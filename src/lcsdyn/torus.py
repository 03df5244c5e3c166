"""Mapping-torus Z-action on N x R and its explicit trivializing data.

The action of size k moves (x, t) to (psi(x), t + k - h(x)); its n-th power
has the closed form (psi^n(x), t + n(k - A_n(h)(x))), which ``action_orbit``
gives along one orbit.  When k avoids the range of some averaged factor
A_n(h), a smooth cutoff chi assembles a function g on N x R with

    g(psi(x), t + 1) = g(x, t) - A_n(h)(x)   and   dt g + k one-signed,

which conjugates the size-1 action to the size-k action through
sigma(x, t) = (x, g(x, t) + t k + f_n(x)) and yields mu = -k (t o sigma^{-1})
with mu o rho = mu - k.  ``build_mu`` only builds this data, at the first
usable n; its caller runs the sampled checks of both identities.

One formula, g = sum_m ([m >= 0] - chi(t + 1 + m)) A_n(h) o psi^m, serves
both signs of k, as the cutoff is symmetric.  g and dt g are read off one
float strip of rows A_n(h)(psi^m p), -B <= m < F, each a window of n of the
base rows h(psi^m p), -B <= m < F + n - 1, which ``GConstruction.batch``
walks once per point batch.  A sigma inversion builds it once for all
samples, at the rows of a first bracket around each root (again only if an
end of it must move), and runs safeguarded Newton on it, reading g and dt g
in one pass per step.  The cutoff reads its quadrature tables only off its
plateaus s <= 0 and s >= 1, so at any t only the one translate per sample
inside (0, 1) costs a lookup.

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
    TORUS2,
    BudgetError,
    ConformalSystem,
    DomainError,
    ValidationError,
    check_order,
    eval_factor,
    exact_phases,
    finite_size,
    orbit_array,
    point_batch,
    reference_points,
    sampled_bounds,
    scaled_floats,
    step_points,
    sum_dtype,
    wrap,
)

VERDICT_RECURRENT = "RecurrentEvidence"
VERDICT_ESCAPE = "EscapeCertified"
VERDICT_INCONCLUSIVE = "Inconclusive"

MAX_TERMS = 100_000  # the truncation budget: the most terms one time of g may need
CUTOFF_TABLE_SIZE = 32769  # points of the cutoff's quadrature tables
SLOPE_COUNT = 4097  # cutoff slopes on [0, 1] for the attainable values of dt g


class NotFoundError(RuntimeError):
    """No usable averaging order was found within the scan budget."""


class InfeasibleError(ValueError):
    """The requested construction cannot exist with the given data."""


def action_orbit(sys: ConformalSystem, x, t, k, n: int):
    """The points psi^m x (a batch) and times t + m k - S_m(h)(x), m = 0..n,
    of the size-k action (x, t) -> (psi x, t + k - h(x)) from one start.

    S_m is one running sum of the orbit rows of x (``orbit_array``), exact on
    exact systems, so the times are Fractions when t and k are; they are
    formed in Python arithmetic, where an m k past the float range is +-inf
    without a warning.  On a rotation by a the points are x + (m a mod 1),
    the phase exact and rounded once (``exact_phases``); elsewhere they are
    stepped as a batch of one.  0 <= n <= the iteration budget.
    """
    finite_size(k)
    check_order(n, least=0)
    pts = sys.space.sample_points([x])
    if sys.map_kind["kind"] == "rotation":
        frac = Fraction(sys.map_kind["angle"])
        xs = wrap(pts + exact_phases(frac.numerator, frac.denominator, range(n + 1)))
    else:
        xs = [pts]
        for _ in range(n):
            xs.append(step_points(sys, xs[-1]))
        xs = np.concatenate(xs)
    S = [0] + np.cumsum(orbit_array(sys, pts, n)[:, 0], dtype=sum_dtype(sys, n)).tolist()
    S = [Fraction(s, sys.scale) for s in S] if sys.exact else S
    return xs, np.array([t + m * k - s for m, s in enumerate(S)])


@dataclass
class Witness:
    start: object
    n: int
    t: float


@dataclass
class ProbeReport:
    """Evidence about proper discontinuity of the size-k action.

    RecurrentEvidence: an orbit launched in the band K keeps re-entering it
    through the late part of the horizon (evidence against admissibility).
    EscapeCertified: S_n <= n U + span F along every sampled orbit, with (U,
    span F) = (a cycle mean, its span), (0, span f) or (the envelope at n, 0),
    sends each out of K for good by ``escape_bound`` (evidence for
    admissibility).  Verdicts on continuous systems are evidence, not proof.
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


def _band(hmin, hmax, k):
    """t-extent of the compact band K for size k, from factor bounds."""
    return -max(hmax, k - hmin), -min(hmin, k - hmax)


def _escape_bound(width, span, gap, n_from=1):
    """max(n_from, floor((width + span) / gap) + 1) on Fractions, floats or
    per-order arrays; a float quotient is floored, not floor-divided (1.0 //
    0.1 is 9.0), and one too large for a float is floored exactly."""
    q = (width + span) / gap
    if isinstance(q, np.ndarray):
        return np.maximum(n_from, np.floor(q) + 1)
    if q == math.inf:
        q = Fraction(width + span) / Fraction(gap)
    return max(n_from, math.floor(q) + 1)


def probe_sweep(sys: ConformalSystem, ks, n_max: int = 1000, starts=None) -> list:
    """Probe, for every size k in ks, whether the size-k orbit of the band K
    escapes or keeps returning; one ``ProbeReport`` per size.

    Certificates are tried first.  Each is one drift fact: if S_n <= n U +
    span F along every orbit, a size k > U leaves K by ``_escape_bound``
    (and k < U likewise when S_n >= n U - span F).  U is each cycle mean and
    F its cycle potential on finite systems (``cycle-exact``); U = 0 and F
    the stored generating f of a coboundary (``telescoping-bound``); then U
    the truncated envelope at order n, with span 0 from n on (``envelope``).
    On an exact finite system k is a cycle mean only when it equals one, and
    the cycle gaps, the band width and so the escape bound are exact; a float
    table takes k within a mean's rounding bound b of it for that mean (a
    heuristic recurrence) and escapes by the gap |k - mean| - b.  Without a
    certificate, orbits launched in K are scanned; returns that persist into
    the last half of the horizon count as recurrence evidence (early
    incidental returns alone are inconclusive, since even escaping orbits
    may brush the band first).

    What does not depend on k is computed once.  The sizes left without an
    exact certificate share one streamed orbit pass: it yields the envelope
    curves and scans each block of running sums for every such size at
    once, keeping the first in-band (n, p) in row-major order.  The scan
    pre-screens each (size, n) pair: t = c - S_n(p) rounds monotonically in
    S_n, so c - max_p S_n and c - min_p S_n bound every t of the pair
    exactly, and t is formed only for the pairs whose bounds meet the band.
    A pair is scanned only while it can still change the verdict: before
    the size's first return, and from the last half on until its first
    return there.  The witnesses and verdicts are those of a full scan.
    """
    check_order(n_max, "n_max")
    ks = list(map(finite_size, ks))
    if starts is None:
        starts = sys.space.size if sys.space.kind == FINITE else 64
    pts = sys.space.sample_points(starts)
    hmin, hmax = sampled_bounds(sys, sys.factor, reference_points(sys))
    bands = [_band(hmin, hmax, k) for k in ks]

    def report(i, verdict, witness, escape_bound, certificate, heur=sys.space.kind != FINITE):
        return ProbeReport(ks[i], bands[i], verdict, witness, escape_bound, certificate,
                           heur, n_max, len(pts))

    # --- certificates -----------------------------------------------------
    reports = [None] * len(ks)
    if sys.space.kind == FINITE:
        from . import ergopt

        dec = ergopt.cycle_mean_extrema(sys)
        num = Fraction if sys.exact else float  # exact tables: exact gaps and n0
        means = dec.means if sys.exact else np.array(dec.means)
        for i, (k, (lo, hi)) in enumerate(zip(ks, bands)):
            q = num(k)  # float gaps: |k - mean| less the mean's rounding bound
            gaps = ([abs(q - m) for m in means] if sys.exact else
                    (np.abs(q - means) - dec.rounding_bounds).tolist())
            idx = gaps.index(min(gaps))  # the least gap gives the largest bound
            if gaps[idx] > 0:  # U is each cycle mean, F its cycle potential
                n0 = _escape_bound(num(hi) - num(lo), dec.drift_span, gaps[idx])
                reports[i] = report(i, VERDICT_ESCAPE, None, n0, "cycle-exact", False)
            else:  # k is a cycle mean (a float one up to rounding): its band orbit is periodic
                a, b = dec.bounds[idx:idx + 2].tolist()
                t0 = 0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi)
                wit = Witness(int(dec.order[a]), b - a, t0 + (b - a) * (k - float(dec.means[idx])))
                reports[i] = report(i, VERDICT_RECURRENT, wit, None, "cycle-exact", not sys.exact)
    elif sys.generating_f is not None and any(ks):
        f_lo, f_hi = sampled_bounds(sys, sys.generating_f, reference_points(sys))
        V = f_hi - f_lo  # U = 0 and F = f
        for i, (k, (lo, hi)) in enumerate(zip(ks, bands)):
            if k != 0.0:
                n0 = _escape_bound(hi - lo, V, abs(k))
                reports[i] = report(i, VERDICT_ESCAPE, None, n0, "telescoping-bound")
    rest = [i for i, r in enumerate(reports) if r is None]
    if not rest:
        return reports

    # --- one pass: envelope curves and the recurrence scan of every size left
    from .birkhoff import birkhoff_extrema

    kv = np.array([ks[i] for i in rest])[:, None, None]
    lo, hi = np.array([bands[i] for i in rest]).T[:, :, None, None]
    t0 = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, 0.5 * (lo + hi))
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    with np.errstate(over="ignore"):  # an end near the float limit widens to +-inf
        lo, hi = lo - tol, hi + tol
    half = max(1, math.ceil(0.5 * n_max))
    late = np.zeros(len(rest), dtype=bool)  # a return at some n >= half
    first = {}  # j -> (n, p, t) of the first return in row-major order

    def scan(n0, S):  # t of the (size, n, p) of one block of running sums
        ns = np.arange(n0, n0 + len(S))
        # a (size, n) pair can change a verdict only before the size's first
        # return, or from n = half on until its first late return
        found = np.array([j in first for j in range(len(rest))])
        open_ = np.where(ns >= half, ~late[:, None], ~found[:, None])
        if not open_.any():
            return
        with np.errstate(over="ignore"):  # an overflowing c is +-inf, whose
            c = (t0 + kv * ns[:, None])[:, :, 0]  # bounds below miss every band
        # t = c - S rounds monotonically in S, so c - max S <= t <= c - min S
        # bounds every t of a (size, n) pair: scan only the pairs it lets meet
        # the band (a NaN bound lets every pair through)
        out = (c - S.min(axis=1) < lo[:, :, 0]) | (c - S.max(axis=1) > hi[:, :, 0])
        js, rs = np.nonzero(open_ & ~out)
        t_vals = c[js, rs][:, None] - S[rs]
        in_band = (t_vals >= lo[js, 0]) & (t_vals <= hi[js, 0])
        hits = np.flatnonzero(in_band.any(axis=1))  # pairs in row-major order
        late[js[hits[ns[rs[hits]] >= half]]] = True
        for q in hits[np.unique(js[hits], return_index=True)[1]]:  # each size's first
            j = int(js[q])
            if j not in first:
                p = int(np.argmax(in_band[q]))
                first[j] = (int(ns[rs[q]]), p, float(t_vals[q, p]))

    ext = birkhoff_extrema(sys, pts, n_max, visit=scan).extrema_per_n
    sup_env = np.asarray(ext["sup_env_plus"], dtype=float)
    inf_env = np.asarray(ext["inf_env_minus"], dtype=float)
    ns = np.arange(1, n_max + 1)
    for j, i in enumerate(rest):
        k, width = ks[i], bands[i][1] - bands[i][0]
        margin = 1e-12 * max(1.0, abs(k))  # float noise must not fake a drift
        # U is the envelope at order n on either side, with span 0 from n on
        up, down = sup_env < k - margin, inf_env > k + margin
        n0 = _escape_bound(width, 0, np.concatenate([k - sup_env[up], inf_env[down] - k]),
                           np.concatenate([ns[up], ns[down]]))
        if n0.size:
            reports[i] = report(i, VERDICT_ESCAPE, None, int(n0.min()), "envelope", True)
        elif late[j]:
            n, p, t = first[j]
            wit = Witness(pts[p].tolist(), n, t)
            reports[i] = report(i, VERDICT_RECURRENT, wit, None, "orbit-returns")
        else:
            reports[i] = report(i, VERDICT_INCONCLUSIVE, None, None, "none")
    return reports


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
    _grid: np.ndarray = None
    _cdf: np.ndarray = None
    _moment: np.ndarray = None

    def __call__(self, s):
        return self._values(s)[0]

    def prime(self, s):
        return self._values(s)[1]

    def _values(self, s):
        """chi and chi' at s from one lookup of the mollifier cdf at the
        clipped ramp ends a, b; floats for a scalar s."""
        s = np.asarray(s, dtype=float)
        chi = np.array(s >= 1.0, dtype=float)
        slope = np.zeros(s.shape)
        ramp = ~((s <= 0.0) | (s >= 1.0))  # off the plateaus; NaN stays in
        s = s[ramp]
        d = self.mollifier_width
        a = np.clip(s - 1.0 + d, -d, d)
        b = np.clip(s - d, -d, d)
        cdf_a, cdf_b = np.interp(a, self._grid, self._cdf), np.interp(b, self._grid, self._cdf)
        m_a = np.interp(a, self._grid, self._moment)
        m_b = np.interp(b, self._grid, self._moment)
        mid = cdf_a + ((s - d) * (cdf_b - cdf_a) - (m_b - m_a)) / (1.0 - 2.0 * d)
        chi[ramp] = np.clip(mid, 0.0, 1.0)  # quadrature noise at the plateau edges
        slope[ramp] = np.maximum(cdf_b - cdf_a, 0.0) / (1.0 - 2.0 * d)
        return (float(chi), float(slope)) if chi.ndim == 0 else (chi, slope)


def _cumulative_simpson(y, x: np.ndarray):
    """Cumulative integral of y (an array, or a tuple of arrays, which share
    the weights) over the strictly increasing grid x (at least 3 points),
    starting at 0, by the composite Simpson rule for unequal intervals
    (Cartwright, J. Math. Sci. Math. Educ. 12(2), eqn (8)).

    Each interval is integrated by the parabola through it and a neighbour,
    by the operations of scipy.integrate.cumulative_simpson(y, x=x,
    initial=0.0) in their order, so the result is bit-identical to it.
    """
    dx = np.diff(x)
    # the neighbour's width: interval 2t + 1 for 2t (SciPy's forward panel), 2t
    # for 2t + 1 and the last but one for the last (its panels of the reversed arrays)
    x32 = np.empty_like(dx)
    x32[:-1:2], x32[1::2], x32[-1] = dx[1::2], dx[:-1:2], dx[-2]
    a = dx / (dx + x32)
    ab = a * (dx / x32)
    scale, w0, w1, w2 = dx / 6, 3 - a, 3 + ab + a, -ab

    def integral(f):
        left, mid, right = f[:-2:2], f[1:-1:2], f[2::2]
        parts = np.empty_like(dx)
        for at, f0, f1, f2 in ((slice(0, -1, 2), left, mid, right),
                               (slice(1, None, 2), right, mid, left),
                               (-1, f[-1], f[-2], f[-3])):
            parts[at] = scale[at] * (w0[at] * f0 + w1[at] * f1 + w2[at] * f2)
        # + 0.0 turns -0.0 into 0.0, as SciPy's initial=0.0 does
        return np.concatenate(([0.0], np.cumsum(parts) + 0.0))

    return [integral(f) for f in y] if isinstance(y, tuple) else integral(y)


def build_cutoff(bound: float) -> CutoffFunction:
    """Cutoff with derivative sup strictly below ``bound``; needs bound > 1.

    Any smooth 0 -> 1 transition supported on [0, 1] has sup slope >= 1, so
    bound <= 1 is infeasible.  The mollifier width is d = min(0.2,
    0.999 (1 - 1/bound) / 2), giving sup slope 1/(1-2d) < bound.  The
    mollifier's cdf and first moment are tabulated on ``CUTOFF_TABLE_SIZE``
    equally spaced points of [-d, d] by the composite Simpson rule.
    """
    bound = float(bound)
    if bound <= 1.0:
        raise InfeasibleError(
            "a 0->1 transition on [0,1] forces sup slope >= 1; bound must exceed 1")
    d = min(0.2, 0.999 * (1.0 - 1.0 / bound) / 2.0)
    u = np.linspace(-d, d, CUTOFF_TABLE_SIZE)
    with np.errstate(divide="ignore", over="ignore"):
        arg = 1.0 - (u / d) ** 2
        phi = np.where(arg > 0, np.exp(-1.0 / np.maximum(arg, 1e-300)), 0.0)
    cdf, moment = _cumulative_simpson((phi, u * phi), u)
    mass = cdf[-1]
    cdf, moment = cdf / mass, moment / mass
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
    """The rows A_n(h)(psi^m p), -trail <= m < lead, as one float64 array of
    shape (trail + lead, P) whose row trail + m is the one at psi^m p.

    The base rows h(psi^m p), -trail <= m < lead + n - 1, are walked once per
    point batch, so the strip costs lead + trail + n - 1 factor rows.  The
    row at psi^m p is the window of the n base rows from m, added in order
    (as a cumulative sum adds them) and divided by n.
    """
    back = _float_orbit(sys, step_points(sys, pts, inverse=True), trail, inverse=True)
    base = np.concatenate([back[::-1], _float_orbit(sys, pts, lead + n - 1)])
    win = base[:lead + trail].copy()
    for j in range(1, n):
        win += base[j:j + lead + trail]
    win /= n
    return win


@dataclass
class GConstruction:
    """g with g(psi x, t+1) = g(x, t) - A(x) and dt g + k one-signed, for the
    averaged factor A = A_n(h) of ``system`` at n = ``order`` (A = h at n = 1),

        g(x, t) = sum_m ([m >= 0] - chi(t + 1 + m)) A(psi^m x),

    truncated to the m with a nonzero coefficient, -ceil(t) <= m < ceil(-t).
    A < k needs k > 0; A > k needs k < 0, where, as chi(1 - s) = 1 - chi(s),
    the sum is the one for (psi^{-1}, -A o psi^{-1}, -k) at -t.  The slope
    dt g + k carries the sign of k.  ``batch`` walks the strip of A once per
    point batch (``_averaged_tables``); ``g`` and ``dt`` are that evaluator
    on a fresh batch.  A time needing more than ``MAX_TERMS`` terms is refused.
    """

    system: ConformalSystem
    k: float
    cutoff: CutoffFunction
    t_window: tuple
    order: int

    @property
    def mirrored(self) -> bool:  # A lies above k, the side that k < 0 serves
        return self.k < 0

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
        """The strip of A at the batch x, normalised once, with the rows that
        every time in ts needs (see ``GTables``)."""
        pts, single = point_batch(self.system.space, x)
        return GTables(self, single, *self._tables(pts, np.asarray(ts, dtype=float)))

    def _tables(self, pts, ts, spare: int = 0):
        """(strip, trail): the strip of A at pts with every row a time in ts
        needs, plus ``spare`` rows each way, and its number of rows behind p.

        g(p, t) has ceil(-t) terms ahead of p and ceil(t) behind it (none
        when negative); a time needing more than MAX_TERMS terms in all is
        refused.  Spare rows have cutoff coefficient 0.
        """
        if np.any(np.ceil(np.abs(ts)) > MAX_TERMS):
            raise BudgetError(f"a time in the sample needs more than {MAX_TERMS} terms")
        lead = math.ceil(-ts.min(initial=0.0)) + spare
        trail = math.ceil(ts.max(initial=0.0)) + spare
        return _averaged_tables(self.system, self.order, pts, lead, trail), trail

    # -- checks ---------------------------------------------------------------

    def functional_residual(self, pts=None, ts=None) -> float:
        """max |g(psi x, t+1) - g(x, t) + A(x)| over the sample."""
        pts, ts = self._default_sample(pts, ts)
        here = self.g(pts, ts)
        there = self.g(step_points(self.system, pts), ts + 1.0)
        a = _averaged_tables(self.system, self.order, pts, 1, 0)[0]
        return float(np.max(np.abs(there - here + a)))

    def slope_margin(self, pts=None, ts=None) -> float:
        """min sign(k) (dt g + k) over the sample: positive exactly when the
        slope carries the sign of k at every sample, as sigma needs to be
        invertible."""
        pts, ts = self._default_sample(pts, ts)
        return float(np.min(math.copysign(1.0, self.k) * (self.dt(pts, ts) + self.k)))

    def dt_attainable(self):
        """Attainable values of dt g as two factors (slopes, values): every
        product of ``SLOPE_COUNT`` signed cutoff slopes with one of at most
        512 orbit factor values (on the reference points), evenly spread over
        the sorted distinct ones.

        At every t exactly one cutoff translate is active, so the value set
        of dt g over grid x window factors as (chi' values) x (factor orbit
        values); sampling the two factors densely is equivalent to a very
        fine direct sweep.  The strip reads one spare row each way: it adds
        0 to g, but its values are attained.  The slopes are -chi', as dt g
        = sum_m -chi'(t + 1 + m) A(psi^m x) for both signs of k.  The
        products, ``np.multiply.outer(slopes, values)``, are left to the
        caller.
        """
        strip, _ = self._tables(reference_points(self.system),
                                np.asarray(self.t_window, dtype=float), spare=1)
        hv = np.unique(strip)
        if len(hv) > 512:
            idx = np.linspace(0, len(hv) - 1, 512).round().astype(int)
            hv = hv[idx]
        return -self.cutoff.prime(np.linspace(0.0, 1.0, SLOPE_COUNT)), hv

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
    """g and dt g at one point batch, read off its strip of A, whose row
    trail + m is A(psi^m p).

    ``GConstruction.batch`` walks the strip once, for the times it is
    given.  ``g_dt(idx, t)`` weighs the columns idx (an index array or a
    slice) by the cutoff coefficients and slopes of times t inside the span
    of those times, giving g and dt g from one pass over the rows, shaped
    as for ``GConstruction.g``; ``g`` and ``dt`` are its two halves.  A
    call reads only the rows its own times need, adding them in order, so
    it computes exactly what a fresh batch of those columns would.
    ``single`` is True when the batch was given as a lone point.
    """

    gcons: GConstruction
    single: bool
    strip: np.ndarray
    trail: int

    def g(self, idx, t):
        return self.g_dt(idx, t)[0]

    def dt(self, idx, t):
        return self.g_dt(idx, t)[1]

    def g_dt(self, idx, t):
        """g and dt g at the same columns and times, from one pass over the
        rows and one cutoff lookup per row."""
        # g(p, t) has ceil(-t) terms ahead and ceil(t) behind; rows past a
        # value's last term have coefficient exactly 0, and the sums start at
        # +0.0, so a value does not depend on the rest of the call
        ts = np.asarray(t, dtype=float)
        lead = math.ceil(-ts.min(initial=0.0))
        trail = math.ceil(ts.max(initial=0.0))
        if lead > len(self.strip) - self.trail or trail > self.trail:
            raise ValueError("a time needs rows beyond the batch's strip")
        shape = np.broadcast_shapes(ts.shape, self.strip[:0, idx].shape[1:])
        g, dt = np.zeros(shape), np.zeros(shape)
        # rows m = 0..lead-1, then m = -1, -2, ..; chi(t + 1 + m) is read at
        # t + 1.0 + m ahead and at t - j for m = -1 - j behind
        j = np.arange(max(lead, trail)).reshape((-1,) + (1,) * ts.ndim)
        chi, slope = self.gcons.cutoff._values(np.concatenate([ts + 1.0 + j[:lead],
                                                               ts - j[:trail]]))
        for m, c, p in zip([*range(lead), *range(-1, -trail - 1, -1)], chi, slope):
            row = self.strip[self.trail + m, idx]
            g += (float(m >= 0) - c) * row  # g is never -0.0: 0.0 - c subtracts c * row
            dt -= p * row
        return g, dt


def _ramp_side(k: float, values):
    """The sampled factor value nearest k (the max below k, the min above).
    k inside their range is a DomainError; a side that the sign of k cannot
    serve with a one-signed slope is infeasible."""
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
    return hmax if below else hmin


def build_g(sys: ConformalSystem, k: float, t_window, points=None,
            order: int = 1) -> GConstruction:
    """Assemble g for the averaged factor A = A_order(h), which must avoid k
    (A < k or A > k uniformly on the sampled points).

    The ramp construction needs the sign of k to agree with the side of the
    gap: A < k requires k > 0 and A > k requires k < 0 (otherwise a
    one-signed slope would force a cutoff with sup slope below 1, which no
    0 -> 1 transition can deliver).  On the side A > k the gap is read on
    psi^{-1} of the points, where the construction for (psi^{-1}, -A o
    psi^{-1}, -k) samples its factor.  The cutoff's sup slope stays below
    1 / (1 - eps / k), eps half the gap between k and the sampled A.
    """
    k = float(k)
    lo, hi = float(t_window[0]), float(t_window[1])
    if not lo < hi:
        raise ValidationError("t_window must be a nonempty interval")
    if max(abs(lo), abs(hi)) + 2 > MAX_TERMS:
        raise BudgetError("t_window exceeds the truncation budget")
    # sigma and its inversion form t k only at times the tables take, |t| <=
    # MAX_TERMS, and add it to terms of at most its size: a k at which 4 such
    # products overflow is refused here, before any of them is formed
    if not math.isfinite(4.0 * MAX_TERMS * k):
        raise BudgetError(
            f"k = {k} is too large for t_window [{lo}, {hi}]: t k overflows at the times "
            f"|t| <= {MAX_TERMS} that sigma inversion may read (|k| must stay below "
            f"{np.finfo(float).max / (4.0 * MAX_TERMS):.3g})")
    check_order(order, "order")
    pts = reference_points(sys) if points is None else sys.space.sample_points(points)
    behind, ahead = _averaged_tables(sys, order, pts, 1, 1)  # A at psi^{-1} p and at p
    edge = _ramp_side(k, ahead)
    if k < 0:
        edge = _ramp_side(k, behind)
    cutoff = build_cutoff(1.0 / (1.0 - 0.5 * (k - edge) / k))
    return GConstruction(sys, k, cutoff, (lo, hi), order)


@dataclass
class MuConstruction:
    """sigma(x,t) = (x, g(x,t) + t k + f_n(x)) and mu = -k (t o sigma^{-1}).

    g is ``gcons``, built for the averaged factor A_n(h) at n = gcons.order
    and size k = gcons.k; t |-> g + t k is strictly monotone (slope sign =
    sign k), so sigma inverts sample by sample.  f_n, sigma_t,
    invert_sigma_t and mu take paired arrays, points of shape (S,) or (S, 2)
    with times or targets of shape (S,), and evaluate the whole sample at
    once; a scalar call is a batch of one and returns a float.
    """

    gcons: GConstruction

    def f_n(self, x):
        """The transfer potential f_n at a batch of points
        (``birkhoff.transfer_potential_values``)."""
        from .birkhoff import transfer_potential_values

        sys = self.gcons.system
        pts, single = point_batch(sys.space, x)
        fn = transfer_potential_values(sys, pts, self.gcons.order)[0]
        return float(fn[0]) if single else fn

    def sigma_t(self, x, t):
        return self.gcons.g(x, t) + np.asarray(t, dtype=float) * self.gcons.k + self.f_n(x)

    def invert_sigma_t(self, x, s):
        """Solve g(x, t) + t k + f_n(x) = s for t at every sample.

        Per sample: a bracket around t0 = (s - f_n(x)) / k, whose ends move
        out past the root by doubling steps (refused past half the term
        budget), then at most 60 safeguarded Newton steps from t0 (Press et
        al., Numerical Recipes, rtsafe).  Each step reads g and dt g in one
        pass over the tables; the sign of the residual shrinks the bracket,
        and a step that leaves the open bracket or does not halve the step
        before it goes to the bracket's midpoint.  A sample is solved at a
        residual of 1e-12 max(1, |k|), or where no float lies strictly
        inside its bracket or its step leaves t unchanged; a sample still
        open after 60 steps is a BudgetError.  The steps are masked array
        updates, so a sample takes exactly the steps it would take alone.
        The tables of A are walked once for the whole sample at the first
        bracket's rows, which also checks its ends, and once more only when
        some end had to move.
        """
        gcons, k = self.gcons, self.gcons.k
        pts, single = point_batch(gcons.system.space, x)
        target = np.broadcast_to(np.asarray(s, dtype=float), (len(pts),)) - self.f_n(pts)
        sign = 1 if k > 0 else -1  # the sign of the slope dt g + k
        every = np.arange(len(pts))

        def F(g, idx, t):
            return sign * (g + t * k - target[idx])

        t0 = target / k
        width = 1.0 + 0.5 * np.abs(t0)
        lo, hi = t0 - width, t0 + width
        both, ends = np.concatenate([every, every]), np.concatenate([lo, hi])
        tab = gcons.batch(pts, ends)
        checks = np.split(F(tab.g(both, ends), both, ends), 2)
        moved = False
        for end, side, check in ((lo, -1.0, checks[0]), (hi, 1.0, checks[1])):
            step = width.copy()  # move each end out past the root
            act = every[side * check < 0.0]
            while act.size:
                if np.any(np.abs(end[act]) > 0.5 * MAX_TERMS):
                    raise BudgetError("sigma inversion bracket exceeds the term budget")
                end[act] += side * step[act]
                step[act] *= 2.0
                moved = True
                act = act[side * F(gcons.g(pts[act], end[act]), act, end[act]) < 0.0]
        if moved:
            tab = gcons.batch(pts, np.concatenate([lo, hi]))
        tol = 1e-12 * max(1.0, abs(k))
        t, last = t0.copy(), hi - lo
        act = every
        for _ in range(60):
            if not act.size:
                break
            here = t[act]
            g, dt = tab.g_dt(act, here)
            val, slope = F(g, act, here), sign * (dt + k)
            below, above = val < 0.0, val > 0.0
            lo[act[below]], hi[act[above]] = here[below], here[above]
            a, b = lo[act], hi[act]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_new = here - val / slope
            slow = np.abs(t_new - here) > 0.5 * np.abs(last[act])
            bisect = ~((a < t_new) & (t_new < b)) | slow
            t_new[bisect] = 0.5 * (a[bisect] + b[bisect])
            open_ = ~((np.abs(val) <= tol) | (np.nextafter(a, b) >= b) | (t_new == here))
            act, t_new = act[open_], t_new[open_]
            last[act] = t_new - t[act]
            t[act] = t_new
        if act.size:
            raise BudgetError("sigma inversion left a sample unsolved after 60 Newton steps")
        return float(t[0]) if single else t

    def mu(self, x, s):
        return -self.gcons.k * self.invert_sigma_t(x, s)

    def mu_cocycle_residual(self, samples: int = 512, rng=None) -> float:
        """max |mu(rho(x,t)) - mu(x,t) + k| over random samples, with t drawn
        from the middle half of the t-window.

        One array call of ``rng.uniform`` draws a row per sample: its x
        coordinates in [0, 1), then its t.  The stream is read in the order
        of one draw per coordinate, pair after pair; a finite state is
        floor(u size) of its coordinate u.  mu then runs once on rho(x, t)
        and once on (x, t) for the whole sample.
        """
        check_order(samples, "samples")
        rng = np.random.default_rng(rng)
        sys, k = self.gcons.system, self.gcons.k
        lo, hi = (0.5 * t for t in self.gcons.t_window)
        dim = 2 if sys.space.kind == TORUS2 else 1
        u = rng.uniform([0.0] * dim + [lo], [1.0] * dim + [hi], size=(samples, dim + 1))
        xs, ts = (u[:, 0] if dim == 1 else u[:, :dim]), u[:, dim]
        if sys.space.kind == FINITE:  # u < 1 rounds u size below size
            xs = np.floor(xs * sys.space.size).astype(np.int64)
        # rho(x, t) = (psi x, t + k - h(x))
        ys, t2 = step_points(sys, xs), ts + k - eval_factor(sys, xs)
        return float(np.max(np.abs(self.mu(ys, t2) - self.mu(xs, ts) + k)))


def nonzero_size(k) -> float:
    """k as a float (``core.finite_size``), refused at k = 0, where the
    cocycle degenerates."""
    k = finite_size(k)
    if k == 0.0:
        raise NotFoundError("the cocycle -k t o sigma^{-1} degenerates at k = 0")
    return k


def build_mu(sys: ConformalSystem, k: float, t_window, n_scan: int = 64,
             points=None) -> MuConstruction:
    """g and mu at the first n <= n_scan with A_n(h) on the usable side of k.

    Scans n = 1..n_scan for max A_n < k (k > 0) or min A_n > k (k < 0); if no
    order qualifies the size is reported NotFound (k may be non-admissible,
    or admissible on the side the ramp construction cannot reach).  Only
    builds: the sampled checks (``GConstruction.functional_residual`` and
    ``slope_margin``, ``MuConstruction.mu_cocycle_residual``) are the
    caller's to run.
    """
    from .birkhoff import birkhoff_extrema

    check_order(n_scan, "n_scan")
    k = nonzero_size(k)
    pts = reference_points(sys) if points is None else sys.space.sample_points(points)
    ext = birkhoff_extrema(sys, pts, n_scan).extrema_per_n
    margin = 1e-12 * max(1.0, abs(k))  # float noise must not fake a gap
    usable = (np.asarray(ext["max_avg"], dtype=float) < k - margin if k > 0
              else np.asarray(ext["min_avg"], dtype=float) > k + margin)
    if not usable.any():
        raise NotFoundError(
            f"no n <= {n_scan} with the averaged factor on the usable side of k = {k}")
    order = int(np.argmax(usable)) + 1
    return MuConstruction(build_g(sys, k, t_window, points=points, order=order))
