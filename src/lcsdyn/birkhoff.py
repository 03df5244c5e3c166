"""Birkhoff partial sums and averages, transfer potentials, envelope limits.

For a system (psi, h) the n-th partial sum is S_n(x) = sum_{i<n} h(psi^i x)
and the average is A_n = S_n / n.  The transfer potential
f_n = (1/n) sum_{i=1}^{n-1} S_i realizes A_n = h + f_n o psi - f_n, so every
averaged factor is a conjugate of h up to a coboundary.  Truncated envelopes
inf/sup_{n <= i <= n_max} A_i replace the (uncomputable) tail envelopes; being
monotone in n they approach the limit extrema from the correct side as n_max
grows.

Minima commute, so the envelope extrema are suffix extrema of per-n extrema:
``birkhoff_extrema`` streams them in O(P) memory, reading the orbit engine's
blocks of rows (``core.orbit_blocks``) and handing each block of running
sums to its ``visit``; only ``birkhoff_table`` keeps the per-point
(n_max, P) arrays, for the full CSV and its callers.

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
    orbit_blocks,
    ratio_strings,
    scaled_floats,
    step_points,  # unused here; perfbench/test_smoke.py checks its tracing rebinds it
    sum_dtype,
)


@dataclass
class BirkhoffExtrema:
    """The extrema curves min_avg, max_avg, inf_env_minus and sup_env_plus of
    the sampled points for n = 1..n_max (entry n-1 is order n)."""

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
        tol = self.tolerance or 0  # a Fraction minus 0.0 would be a float
        return k < self.gap_low - tol or k > self.gap_high + tol

    def classify(self, k) -> str:
        if k == 0:
            return "excluded_zero"
        if self.contains(k):
            return "admissible"
        tol = self.tolerance or 0
        if self.gap_low + tol <= k <= self.gap_high - tol:
            return "not_admissible"
        # within `tolerance` of a gap endpoint; decisive only for tolerance 0
        return "not_admissible" if self.tolerance == 0 else "boundary"


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


def birkhoff_table(sys: ConformalSystem, points=None, n_max: int = 100) -> BirkhoffTable:
    """Tabulate S_n, A_n and truncated envelopes for every sampled point.

    The running sums of one ``birkhoff_extrema`` pass are kept (n_max x P
    values); its extrema curves are that pass's.  The per-point arrays are
    derived from the sums on first use.
    """
    sums = None

    def keep(n0, S):  # wide enough for the cross products of the envelope comparisons
        nonlocal sums
        if sums is None:
            sums = np.empty((n_max, S.shape[1]), dtype=sum_dtype(sys, n_max * n_max))
        sums[n0 - 1:n0 - 1 + len(S)] = S

    ext = birkhoff_extrema(sys, points, n_max, visit=keep)
    return BirkhoffTable(**vars(ext), running_sums=sums)


def birkhoff_extrema(sys: ConformalSystem, points=None, n_max: int = 100,
                     visit=None) -> BirkhoffExtrema:
    """The extrema curves of the sampled points from one streamed pass.

    Keeps a running S_n and the per-n min/max of A_n = S_n / n over the
    sample, then takes suffix extrema over the n_max orders, so memory is
    O(P + n_max).  The pass reads the orbit engine's blocks of rows and
    adds each row to the one before it in place, in order, as an axis-0
    cumulative sum does.  ``visit(n0, S)``, if given, sees every block of
    running sums (read only) as it is formed: S[i] is S_{n0 + i}, in the
    orbit rows' arithmetic (the integers S_n * scale on exact systems).
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if n_max > DEFAULT_MAX_ITERATIONS:
        raise BudgetError(f"n_max = {n_max} exceeds iteration budget {DEFAULT_MAX_ITERATIONS}")
    pts = sys.space.sample_points(points)
    if len(pts) == 0:
        raise ValidationError("empty sample")
    dtype = sum_dtype(sys, n_max)
    lows, highs = [], []
    n0, S = 1, None
    for block in orbit_blocks(sys, pts, n_max):
        S = _accumulate(block.astype(dtype, copy=False), None if S is None else S[-1])
        lows.append(S.min(axis=1))  # min_p S_n(p) / n = min_p A_n(p): rounding is monotone
        highs.append(S.max(axis=1))
        if visit is not None:
            visit(n0, S)
        n0 += len(S)
    ns = np.arange(1, n_max + 1)
    lows, highs = (_divide(np.concatenate(c), ns, sys.scale) for c in (lows, highs))
    extrema = {
        "min_avg": lows,
        "max_avg": highs,
        "inf_env_minus": np.minimum.accumulate(lows[::-1])[::-1],
        "sup_env_plus": np.maximum.accumulate(highs[::-1])[::-1],
    }
    return BirkhoffExtrema(sys, pts, n_max, extrema, sys.exact)


def _accumulate(B, start):
    """B summed along its rows in place, each row added to the one before
    it, the first to ``start`` unless that is None; returns B."""
    if start is not None:
        B[0] += start
    for i in range(1, len(B)):
        B[i] += B[i - 1]
    return B


def transfer_potential(sys: ConformalSystem, n: int):
    """The potential f_n = (1/n) sum_{i=1}^{n-1} S_i, as an evaluable function.

    Satisfies A_n(h) = h + f_n o psi - f_n; f_1 is identically 0.  A call
    is ``transfer_potential_values`` of a batch of one; on exact finite
    systems the returned values are Fractions.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > DEFAULT_MAX_ITERATIONS:
        raise BudgetError(f"n = {n} exceeds iteration budget {DEFAULT_MAX_ITERATIONS}")

    def f_n(x):
        pts = sys.space.sample_points([x])
        return transfer_potential_values(sys, pts, n, exact=True)[0].tolist()[0]

    return f_n


def transfer_potential_values(sys: ConformalSystem, pts, n: int, exact: bool = False):
    """(f_n(p), f_n(psi p)) at the points pts, from one streamed orbit walk
    of n rows, in O(P) memory.

    Since f_n(p) = (1/n) sum_{j=0}^{n-2} (n-1-j) h(psi^j p), f_n(p) weighs
    row j < n - 1 by n - 1 - j and f_n(psi p) row j > 0 by n - j.  Each sum
    starts from its first product and adds the others in row order, as an
    axis-0 cumulative sum does, so a walk from one point rounds like a walk
    from many; f_1 is 0 and walks nothing.  The values are float64; on exact
    systems the sums of the integer rows h * scale are exact and each is
    rounded once, or with ``exact`` kept as Fractions.
    """
    if n == 1:
        sums = [np.zeros(np.shape(pts)[0], dtype=sum_dtype(sys, 1))] * 2
    else:
        dtype, sums, lo = sum_dtype(sys, n * n), [None, None], 0
        for block in orbit_blocks(sys, pts, n):
            i = np.arange(lo, lo + len(block))
            rows = block.astype(dtype, copy=False)
            for k, (w, keep) in enumerate(((n - 1 - i, i < n - 1), (n - i, i > 0))):
                terms = w[keep][:, None] * rows[keep]
                if len(terms):
                    sums[k] = _accumulate(terms, sums[k])[-1]
            lo += len(block)
    if sys.scale is None:
        return sums[0] / n, sums[1] / n
    if exact:
        return _divide(sums[0], n, sys.scale), _divide(sums[1], n, sys.scale)
    return scaled_floats(sums[0], n * sys.scale), scaled_floats(sums[1], n * sys.scale)


def coboundary_residual_curve(sys: ConformalSystem, n_max: int, points=None) -> np.ndarray:
    """Residuals max_x |A_n(h)(x) - (h(x) + f_n(psi x) - f_n(x))| of the
    transfer identity over sampled points, for every n = 1..n_max.

    One streamed orbit walk of n_max rows serves both the grid and its image;
    running sums carry S_n and f_n = (S_1 + ... + S_{n-1}) / n at p and at
    psi p, a block of rows at a time, so memory is O(P) whatever n_max is.
    Exact systems check the identity times n * scale on the integer rows, so
    their curve is exact (Fractions, all zero); float systems show float
    rounding.
    """
    pts = sys.space.sample_points(points)
    scale = sys.scale
    # (n_max + 1)^2 table values bound every partial sum and difference below;
    # after order n: S_n(p), S_{n-1}(psi p) (rows 1..n-1), and the sums of
    # S_1 .. S_{n-1} at p and at psi p
    dtype = sum_dtype(sys, (n_max + 1) ** 2)
    s_here = s_next = cs_here = cs_next = np.zeros(np.shape(pts)[0], dtype=dtype)
    out = np.empty(n_max, dtype=float if scale is None else object)
    n0 = 1
    for rows in orbit_blocks(sys, pts, n_max):
        rows = rows.astype(dtype, copy=False)
        nxt = rows.copy()
        if n0 == 1:
            h = rows[0].copy()
            nxt[0] = 0  # the walk from psi p starts at row 1
        nxt = _accumulate(nxt, s_next)
        c_next = _accumulate(nxt.copy(), cs_next)
        here = _accumulate(rows, s_here)
        c_here = _accumulate(np.concatenate([s_here[None], here[:-1]]), cs_here)
        ns = np.arange(n0, n0 + len(here))[:, None]
        if scale is None:  # here / n - (h + c_next / n - c_here / n), in place
            gap = c_next / ns
            gap += h
            gap -= c_here / ns
            np.subtract(here / ns, gap, out=gap)
            out[n0 - 1:n0 - 1 + len(here)] = np.abs(gap, out=gap).max(axis=1)
        else:
            worst = np.max(np.abs(here - (ns * h + c_next - c_here)), axis=1)
            out[n0 - 1:n0 - 1 + len(here)] = [Fraction(int(w), int(n) * scale)
                                               for w, n in zip(worst, ns[:, 0])]
        s_here, s_next, cs_here, cs_next = here[-1], nxt[-1], c_here[-1], c_next[-1]
        n0 += len(here)
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


def limit_estimates(table: BirkhoffExtrema) -> LimitEstimate:
    """Estimate the limiting envelope extrema from a table or its extrema.

    Finite bijections are resolved through the cycle-mean oracle, exactly on
    an exact table and up to a rounding bound on a float one.  On
    continuous kinds the monotone truncated envelopes at n_max are reported;
    the estimate is flagged unstable when the extrema still move (relatively)
    more than 1e-6 across the last tenth of the orders.  Systems carrying a
    stored generating function get the telescoping error bound
    2 (max f - min f) / n; everything else is marked "heuristic".
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
    start = max(0, n_used - max(1, math.ceil(0.1 * n_used)))
    stable = not any(float(w.max() - w.min()) / max(1.0, float(np.max(np.abs(w))))
                     > 1e-6 for w in (lo_curve[start:], hi_curve[start:]))
    span = generating_span(sys, table.points)
    bound = "heuristic" if span is None else 2.0 * span / n_used
    return LimitEstimate(float(lo_curve[-1]), float(hi_curve[-1]), n_used, bound,
                         exact=False, stable=stable)


def admissible_set(estimate: LimitEstimate) -> AdmissibleSet:
    """Admissible-size presentation derived from a limit estimate.

    Sizes strictly outside the gap, widened by a numeric error bound of a
    float estimate, are admissible; 0 is always excluded from the reported
    set because the admissible sizes form an open subset of the punctured
    line.
    """
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
    """Dump the extrema curves (one row per n) for plotting.  No cell needs
    CSV quoting (ints, float reprs and "p/q"), so each row is one joined
    string, with the "\r\n" line end of ``csv.writer``, streamed to the
    file."""
    ex = table.extrema_per_n
    cols = [_csv_column(ex[key]) for key in
            ("min_avg", "max_avg", "inf_env_minus", "sup_env_plus")]
    with open(path, "w", newline="") as fh:
        fh.write("n,min_avg,max_avg,inf_env_minus,sup_env_plus\r\n")
        fh.writelines(f"{n},{a},{b},{e},{E}\r\n"
                      for n, a, b, e, E in zip(range(1, table.n_max + 1), *cols))


def _csv_column(values):
    """CSV cells of a value array: exact values (Fractions or their strings)
    as "p/q", floats by repr."""
    values = np.asarray(values)
    return list(map(str if values.dtype == object else repr, values.tolist()))
