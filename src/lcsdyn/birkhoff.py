"""Birkhoff partial sums and averages, transfer potentials, envelope limits.

For a system (psi, h) the n-th partial sum is S_n(x) = sum_{i<n} h(psi^i x)
and the average is A_n = S_n / n.  The transfer potential
f_n = (1/n) sum_{i=1}^{n-1} S_i realizes A_n = h + f_n o psi - f_n, so every
averaged factor is a conjugate of h up to a coboundary.  Truncated envelopes
inf/sup_{n <= i <= n_max} A_i replace the (uncomputable) tail envelopes; being
monotone in n they approach the limit extrema from the correct side as n_max
grows.

Minima commute, so the envelope extrema are suffix extrema of per-n extrema:
``birkhoff_extrema`` streams them in O(P) memory, and only ``birkhoff_table``
keeps the per-point (n_max, P) arrays, for the full CSV and its callers.

Exact finite systems run the same code on integers scaled by the common
denominator D of the factor table: every A_n at one n shares the
denominator n * D, so the per-n extrema are integer comparisons.  Fractions
are built only at the boundary (extrema curves, table values, residuals);
``table_to_csv`` formats its exact cells from the integer sums
(``core.ratio_strings``) and builds none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .core import (
    FINITE,
    BudgetError,
    ConformalSystem,
    DEFAULT_MAX_ITERATIONS,
    ValidationError,
    generating_span,
    integer_array,
    orbit_array,
    orbit_rows,
    ratio_strings,
    scaled_floats,
    step_points,  # unused here; perfbench/test_smoke.py checks its tracing rebinds it
    sum_dtype,
)


@dataclass
class BirkhoffExtrema:
    """The extrema curves min_avg, max_avg, inf_env_minus and sup_env_plus of
    the sampled points for n = 1..n_max (entry n-1 is order n)."""

    sys_label: str
    system: ConformalSystem
    points: np.ndarray
    n_max: int
    extrema_per_n: dict
    exact: bool


@dataclass
class BirkhoffTable(BirkhoffExtrema):
    """Per-point sums, averages and truncated envelopes, with their extrema.

    ``running_sums`` keeps the pass's S_n in the orbit rows' arithmetic (the
    integers S_n * scale on exact systems).  The (n_max, P) arrays ``sums``,
    ``averages``, ``env_minus`` and ``env_plus`` (row n-1 holds order n) are
    built from it on first use; exact tables are object arrays of Fractions.
    """

    running_sums: np.ndarray = None

    def columns(self):
        """(sums, averages, env_minus, env_plus); exact values are Fractions."""
        S, scale = self.running_sums, self.system.scale
        A = _divide(S, np.arange(1, self.n_max + 1)[:, None], scale)
        if scale is None:
            return S, A, *(u.accumulate(A[::-1], axis=0)[::-1] for u in (np.minimum, np.maximum))
        # an envelope value is the average at the suffix's extreme order
        return (_divide(S, 1, scale), A,
                *(np.take_along_axis(A, _suffix_rows(S, better), axis=0)
                  for better in (np.less, np.greater)))

    @cached_property
    def _arrays(self):
        return self.columns()

    sums = property(lambda self: self._arrays[0])
    averages = property(lambda self: self._arrays[1])
    env_minus = property(lambda self: self._arrays[2])
    env_plus = property(lambda self: self._arrays[3])


@dataclass
class LimitEstimate:
    """Estimates of the limiting extrema of the truncated envelopes.

    On finite bijections both limits are cycle-mean extrema: ``exact`` is
    True when the factor table is exact, and a float table's
    ``error_bound`` bounds the rounding of its float cycle means.  Elsewhere
    ``error_bound`` is a number only when the factor is a stored coboundary
    (telescoping bound); otherwise the string "heuristic".
    """

    L_minus: object
    L_plus: object
    n_used: int
    error_bound: object
    exact: bool
    stable: bool = True

    def to_json(self):
        return {
            "L_minus": _num_json(self.L_minus),
            "L_plus": _num_json(self.L_plus),
            "n_used": self.n_used,
            "error_bound": _num_json(self.error_bound),
            "exact": self.exact,
            "stable": self.stable,
        }


@dataclass
class AdmissibleSet:
    """Two open rays around the closed gap [L_minus, L_plus], minus {0}.

    The reported admissible sizes are ]-inf, L-[ u ]L+, +inf[ with 0 always
    excluded; ``tolerance`` widens the gap for float estimates.
    """

    gap_low: object
    gap_high: object
    exact: bool
    tolerance: float = 0.0

    def contains(self, k) -> bool:
        if k == 0:
            return False
        return k < self.gap_low - self.tolerance or k > self.gap_high + self.tolerance

    def classify(self, k) -> str:
        if k == 0:
            return "excluded_zero"
        if self.contains(k):
            return "admissible"
        if self.gap_low + self.tolerance <= k <= self.gap_high - self.tolerance:
            return "not_admissible"
        # within `tolerance` of a gap endpoint; decisive only for tolerance 0
        return "not_admissible" if self.tolerance == 0 else "boundary"

    def to_json(self):
        return {
            "gap": [_num_json(self.gap_low), _num_json(self.gap_high)],
            "rays": [["-inf", _num_json(self.gap_low)], [_num_json(self.gap_high), "+inf"]],
            "excludes_zero": True,
            "exact": self.exact,
            "tolerance": self.tolerance,
        }


def _num_json(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, str):
        return v
    return float(v)


_FRACTION = np.frompyfunc(Fraction, 2, 1)


def _divide(sums, n, scale):
    """sums / n in the sums' arithmetic: float64, or, for integer sums of
    h * scale, the exact values sums / (n * scale) as an object array of
    Fractions."""
    if scale is None:
        return sums / n
    return _FRACTION(np.asarray(sums, dtype=object), np.asarray(n, dtype=object) * scale)


def _suffix_rows(S, better) -> np.ndarray:
    """Index m >= n of the order where S_m(p) / m is best (``better`` =
    np.less: least) over the orders m >= n, for every (n, p) of the integer
    sums S.  Compares S_m / m with S_b / b as S_m * b with S_b * m."""
    n_max, P = S.shape
    rows = np.empty(S.shape, dtype=np.int64)
    best = np.full(P, n_max - 1)
    cols = np.arange(P)
    for i in range(n_max - 1, -1, -1):
        best = np.where(better(S[i] * (best + 1), S[best, cols] * (i + 1)), i, best)
        rows[i] = best
    return rows


def birkhoff_table(sys: ConformalSystem, points=None, n_max: int = 100,
                   max_iterations: int | None = None) -> BirkhoffTable:
    """Tabulate S_n, A_n and truncated envelopes for every sampled point.

    The running sums of one ``birkhoff_extrema`` pass are kept (n_max x P
    values); its extrema curves are that pass's.  The per-point arrays are
    derived from the sums on first use.
    """
    rows = []
    ext = birkhoff_extrema(sys, points, n_max, max_iterations,
                           visit=lambda n, S: rows.append(S.copy()))
    # wide enough for the cross products of the envelope comparisons
    return BirkhoffTable(**vars(ext),
                         running_sums=np.array(rows, dtype=sum_dtype(sys, n_max * n_max)))


def birkhoff_extrema(sys: ConformalSystem, points=None, n_max: int = 100,
                     max_iterations: int | None = None, visit=None) -> BirkhoffExtrema:
    """The extrema curves of the sampled points from one streamed pass.

    Keeps a running S_n and the per-n min/max of A_n = S_n / n over the
    sample, then takes suffix extrema over the n_max orders, so memory is
    O(P + n_max).  The running sum adds the orbit rows in order, as an
    axis-0 cumulative sum does.  ``visit(n, S_n)``, if given, sees every
    running sum (read only) as it is formed, in the orbit rows' arithmetic
    (the integers S_n * scale on exact systems).
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    budget = DEFAULT_MAX_ITERATIONS if max_iterations is None else max_iterations
    if n_max > budget:
        raise BudgetError(f"n_max = {n_max} exceeds iteration budget {budget}")
    pts = sys.space.sample_points(points)
    if len(pts) == 0:
        raise ValidationError("empty sample")
    dtype = sum_dtype(sys, n_max)
    lows, highs = [], []
    S = None
    for n, row in enumerate(orbit_rows(sys, pts, n_max), start=1):
        if S is None:
            S = np.array(row, dtype=dtype)
        else:
            S += row
        lows.append(S.min())  # min_p S_n(p) / n = min_p A_n(p): rounding is monotone
        highs.append(S.max())
        if visit is not None:
            visit(n, S)
    ns = np.arange(1, n_max + 1)
    lows, highs = (_divide(np.array(c, dtype=dtype), ns, sys.scale) for c in (lows, highs))
    extrema = {
        "min_avg": lows,
        "max_avg": highs,
        "inf_env_minus": np.minimum.accumulate(lows[::-1])[::-1],
        "sup_env_plus": np.maximum.accumulate(highs[::-1])[::-1],
    }
    return BirkhoffExtrema(sys.label, sys, pts, n_max, extrema, sys.exact)


def transfer_potential(sys: ConformalSystem, n: int,
                       max_iterations: int | None = None):
    """The potential f_n = (1/n) sum_{i=1}^{n-1} S_i, as an evaluable function.

    Satisfies A_n(h) = h + f_n o psi - f_n; f_1 is identically 0.  On exact
    finite systems the returned values are Fractions.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    budget = DEFAULT_MAX_ITERATIONS if max_iterations is None else max_iterations
    if n > budget:
        raise BudgetError(f"n = {n} exceeds iteration budget {budget}")

    def f_n(x):  # the walk from x as a batch of one
        pts = np.asarray(sys.space.normalize(x))[None]
        if n == 1:
            return Fraction(0) if sys.exact else 0.0
        H = orbit_array(sys, pts, n, terms=n * n)
        if sys.exact:
            return Fraction(int(_potential_sums(H, n)[0][0]), n * sys.scale)
        return float(transfer_potential_values(H, n)[0][0])

    return f_n


def transfer_potential_values(H, n: int, scale: int | None = None):
    """f_n at the start points of an orbit walk and at their images.

    ``H = orbit_array(sys, pts, m)`` with m >= n rows.  Since
    f_n(p) = (1/n) sum_{j=0}^{n-2} (n-1-j) h(psi^j p), f_n(p) reads rows
    [0, n-1) and f_n(psi p) reads rows [1, n) of the same walk.  Float rows
    give float64 values; the integer rows h * ``scale`` of an exact system
    (``orbit_array`` with n * n terms) give float64 values too, each rounded
    once from its exact sum.  Rows are added in order (a cumulative sum), so a
    walk from one point rounds like a walk from many.
    """
    H = np.asarray(H)
    if n == 1:
        dtype = H.dtype if scale is None else float
        return np.zeros(H.shape[1], dtype), np.zeros(H.shape[1], dtype)
    sums = _potential_sums(H, n)
    if scale is None:
        return sums[0] / n, sums[1] / n
    return scaled_floats(sums[0], n * scale), scaled_floats(sums[1], n * scale)


def _potential_sums(H, n: int):
    """n f_n at the walk's start points and at their images, in the rows'
    arithmetic: the weighted sums of rows [0, n-1) and [1, n), n >= 2."""
    w = np.arange(n - 1, 0, -1)[:, None]
    return np.cumsum(w * H[:n - 1], axis=0)[-1], np.cumsum(w * H[1:n], axis=0)[-1]


def coboundary_residual(sys: ConformalSystem, n: int, points=None):
    """max_x |A_n(h)(x) - (h(x) + f_n(psi x) - f_n(x))| over sampled points:
    the last entry of ``coboundary_residual_curve``.

    Exactly zero (Fraction) on exact finite systems; float rounding otherwise.
    """
    worst = coboundary_residual_curve(sys, n, points)[-1]
    return worst if sys.exact else float(worst)


def coboundary_residual_curve(sys: ConformalSystem, n_max: int, points=None) -> np.ndarray:
    """Residuals of the transfer identity for every n = 1..n_max.

    One streamed orbit walk of n_max rows serves both the grid and its image;
    running sums carry S_n and f_n = (S_1 + ... + S_{n-1}) / n at p and at
    psi p, so memory is O(P) whatever n_max is.  Exact systems check the
    identity times n * scale on the integer rows, so their curve is exact
    (Fractions, all zero); float systems show float rounding.
    """
    pts = sys.space.sample_points(points)
    scale = sys.scale
    # (n_max + 1)^2 table values bound every partial sum and difference below
    s_here = np.zeros(np.shape(pts)[0], dtype=sum_dtype(sys, (n_max + 1) ** 2))  # S_n(p)
    s_next = np.zeros_like(s_here)  # S_{n-1}(psi p), rows 1..n-1
    cs_here = np.zeros_like(s_here)  # S_1(p) + ... + S_{n-1}(p)
    cs_next = np.zeros_like(s_here)  # S_1(psi p) + ... + S_{n-1}(psi p)
    out = np.empty(n_max, dtype=float if scale is None else object)
    for n, row in enumerate(orbit_rows(sys, pts, n_max), start=1):
        if n == 1:
            h = row.astype(s_here.dtype)
        else:
            cs_here += s_here
            s_next += row
            cs_next += s_next
        s_here += row
        if scale is None:
            out[n - 1] = np.max(np.abs(s_here / n - (h + cs_next / n - cs_here / n)))
        else:
            worst = np.max(np.abs(s_here - (n * h + cs_next - cs_here)))
            out[n - 1] = Fraction(int(worst), n * scale)
    return out


def _cycle_mean_rounding(dec) -> float:
    """A bound on the rounding error of a float table's cycle means.

    A mean of L values summed in order and divided by L is within
    gamma_L * mean|h| of the exact mean, gamma_L = L u / (1 - L u) with
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 4.2).
    (L + 1) * 2^-52 is about twice gamma_L (for L below 2^26), which leaves
    room for the rounding of the bound itself.  dec is the cycle record of a
    float table, whose values it reads.
    """
    habs = np.abs(dec.vals)
    eps = np.finfo(float).eps
    return max(eps * (len(cyc) + 1) * math.fsum(habs[cyc].tolist()) / len(cyc)
               for cyc in dec.slices())


def limit_estimates(table: BirkhoffExtrema, stabilization_rtol: float = 1e-6,
                    window_fraction: float = 0.1) -> LimitEstimate:
    """Estimate the limiting envelope extrema from a table or its extrema.

    Finite bijections are resolved through the cycle-mean oracle, exactly on
    an exact table and up to a rounding bound on a float one.  On
    continuous kinds the monotone truncated envelopes at n_max are reported;
    the estimate is flagged unstable when the extrema still move (relatively)
    more than ``stabilization_rtol`` across the last ``window_fraction`` of
    orders.  Systems carrying a stored generating function get the
    telescoping error bound 2 (max f - min f) / n; everything else is marked
    "heuristic".
    """
    sys = table.system
    if sys.space.kind == FINITE:
        from . import ergopt

        dec = ergopt.cycle_mean_extrema(sys)
        return LimitEstimate(dec.min_mean, dec.max_mean, table.n_max,
                             Fraction(0) if sys.exact else _cycle_mean_rounding(dec),
                             exact=sys.exact, stable=True)

    lo_curve = np.asarray(table.extrema_per_n["inf_env_minus"], dtype=float)
    hi_curve = np.asarray(table.extrema_per_n["sup_env_plus"], dtype=float)
    n_used = table.n_max
    start = max(0, n_used - max(1, math.ceil(window_fraction * n_used)))
    stable = not any(float(w.max() - w.min()) / max(1.0, float(np.max(np.abs(w))))
                     > stabilization_rtol for w in (lo_curve[start:], hi_curve[start:]))
    span = generating_span(sys, table.points)
    bound = "heuristic" if span is None else 2.0 * span / n_used
    return LimitEstimate(float(lo_curve[-1]), float(hi_curve[-1]), n_used, bound,
                         exact=False, stable=stable)


def admissible_set(estimate: LimitEstimate, tolerance: float | None = None) -> AdmissibleSet:
    """Admissible-size presentation derived from a limit estimate.

    Sizes strictly outside the (tolerance-widened) gap are admissible; 0 is
    always excluded from the reported set because the admissible sizes form
    an open subset of the punctured line.
    """
    if tolerance is None:
        bound = estimate.error_bound
        tolerance = 0.0 if estimate.exact or not isinstance(bound, (int, float)) else bound
    return AdmissibleSet(
        gap_low=estimate.L_minus,
        gap_high=estimate.L_plus,
        exact=estimate.exact,
        tolerance=float(tolerance),
    )


#: rows of birkhoff.csv formatted and written at a time, which bounds the
#: memory its cells take
CSV_CHUNK_ROWS = 8192


def table_to_csv(table: BirkhoffTable, path):
    """Dump the full table as CSV: point, n, S_n, A_n, env-, env+.

    Exact cells are formatted from the integer sums S_n * scale, as the
    str of their Fractions: only the S_n and A_n cells, since an envelope
    cell is the A_n cell at its suffix's extreme order.  Float cells are
    reprs.  Rows are point-major, n within each point, and are written a
    block of points at a time.
    """
    sys, n_max = table.system, table.n_max

    def fmt_point(p):
        if sys.space.kind == FINITE:
            return str(int(p))
        if np.ndim(p) == 0:
            return repr(float(p))
        return ":".join(repr(float(c)) for c in p)

    if sys.exact:
        orders = integer_array([n * sys.scale for n in range(1, n_max + 1)])[:, None]
        # one envelope pass over the whole table; each block takes its columns
        suffix = [_suffix_rows(table.running_sums, better) for better in (np.less, np.greater)]

        def cells(block):  # the four columns of a block of points, point-major
            S = table.running_sums[:, block]
            averages = np.array(ratio_strings(S, orders), dtype=object).reshape(S.shape)
            return [ratio_strings(S.T, sys.scale), averages.T.ravel().tolist(),
                    *(np.take_along_axis(averages, rows[:, block], axis=0).T.ravel().tolist()
                      for rows in suffix)]
    else:
        arrays = table.columns()

        def cells(block):
            return [list(map(repr, a[:, block].T.ravel().tolist())) for a in arrays]

    labels = list(map(fmt_point, table.points))
    ns = [f",{n}," for n in range(1, n_max + 1)]
    step = max(1, CSV_CHUNK_ROWS // n_max)
    with open(path, "w", newline="") as fh:
        fh.write("point,n,S_n,A_n,env_minus,env_plus\r\n")
        for lo in range(0, len(labels), step):
            block = slice(lo, lo + step)
            cols = cells(block)
            heads = [label + n for label in labels[block] for n in ns]
            fh.write("".join([f"{h}{s},{a},{e},{E}\r\n" for h, s, a, e, E in zip(heads, *cols)]))


def extrema_to_csv(table: BirkhoffExtrema, path):
    """Dump the extrema curves (one row per n) for plotting."""
    import csv

    ex = table.extrema_per_n
    cols = [_csv_column(ex[key]) for key in
            ("min_avg", "max_avg", "inf_env_minus", "sup_env_plus")]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "min_avg", "max_avg", "inf_env_minus", "sup_env_plus"])
        w.writerows(zip(range(1, table.n_max + 1), *cols))


def _csv_column(values):
    """CSV cells of a value array: exact values (Fractions or their strings)
    as "p/q", floats by repr."""
    values = np.asarray(values)
    return list(map(str if values.dtype == object else repr, values.tolist()))
