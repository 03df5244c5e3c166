"""Birkhoff partial sums and averages, transfer potentials, envelope limits.

For a system (psi, h) the n-th partial sum is S_n(x) = sum_{i<n} h(psi^i x)
and the average is A_n = S_n / n.  The transfer potential
f_n = (1/n) sum_{i=1}^{n-1} S_i realizes A_n = h + f_n o psi - f_n, so every
averaged factor is a conjugate of h up to a coboundary; one reducer,
``_potential_sums``, streams the running sums of f_n.  Truncated envelopes
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
``table_to_csv`` writes its exact cells from the integer sums as bytes
(``core.fraction_bytes``) and builds none; float cells are reprs
(``core.float_cells``).  Both CSV writers hand their columns to
``core.write_csv``, the one writer of every CSV artifact.

The ``LimitEstimate`` of ``limit_estimates`` holds the gap [L-, L+] and
classifies the sizes k against it itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .core import (
    FINITE,
    ConformalSystem,
    _lowest_terms,
    check_order,
    decimal_bytes,
    finite_size,
    float_cells,
    fraction_bytes,
    integer_array,
    orbit_blocks,
    point_cells,
    sampled_bounds,
    scaled_floats,
    step_points,  # unused here; perfbench/test_smoke.py checks its tracing rebinds it
    sum_dtype,
    write_csv,
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

    The admissible sizes are ]-inf, L-[ u ]L+, +inf[ minus {0}, the gap
    [L_minus, L_plus] widened by ``tolerance`` for float estimates.
    """

    L_minus: object
    L_plus: object
    n_used: int
    error_bound: object
    exact: bool
    stable: bool = True

    @property
    def tolerance(self) -> float:
        """0.0 for an exact or heuristic estimate, else the error bound."""
        return 0.0 if self.exact or isinstance(self.error_bound, str) else float(self.error_bound)

    def contains(self, k) -> bool:
        """Whether the size k is admissible."""
        return self.classify(k) == "admissible"

    def classify(self, k) -> str:
        """The verdict on the size k, a finite number (``core.finite_size``)."""
        finite_size(k)
        if k == 0:
            return "excluded_zero"
        tol = self.tolerance or 0  # a Fraction minus 0.0 would be a float
        if k < self.L_minus - tol or k > self.L_plus + tol:
            return "admissible"
        if self.L_minus + tol <= k <= self.L_plus - tol:
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
    check_order(n_max, "n_max")
    pts = sys.space.sample_points(points)
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


def _potential_sums(sys: ConformalSystem, pts, n: int):
    """The running sums of the transfer potential at pts, from one streamed
    orbit walk of n rows, in O(P) memory.

    Yields (h, S, C, C1) a block of orders at a time: h is row 0 and, at
    the block's i-th order m, S[i] = S_m(p), C[i] = S_1 + ... + S_{m-1} at
    p and C1[i] the same sum at psi p, so m f_m = C[i] at p and C1[i] at
    psi p.  Every array is read only.  Each sum adds its terms in row order
    from the first one, as ``_accumulate`` with no start does, so a walk
    from one point rounds like a walk from many and f_2 = h / 2 keeps the
    signs of its zeros; C and C1 are 0 at order 1, an empty sum.  Exact
    systems sum the integer rows h * scale.
    """
    check_order(n)
    # (n + 1)^2 table values bound every sum, and the residual curve's differences
    dtype = sum_dtype(sys, (n + 1) ** 2)
    n0, last = 1, None  # last: S, S(psi p), C and C1 at order n0 - 1
    for rows in orbit_blocks(sys, pts, n):
        k = 1 if last is None else 0  # order 1 adds no term to S(psi p), C or C1
        rows = rows.astype(dtype, copy=False)
        nxt = rows.copy()  # summed into S_{m-1}(psi p), of rows 1 .. m-1
        S = _accumulate(rows, None if k else last[0])
        h = S[0] if k else h
        C = np.concatenate([S[:1] if k else last[0][None], S[:-1]])
        starts = last[1:] if n0 > 2 else (None,) * 3
        _accumulate(nxt[k:], starts[0])
        C1 = nxt.copy()
        _accumulate(C[k:], starts[1])
        _accumulate(C1[k:], starts[2])
        nxt[:k] = C[:k] = C1[:k] = 0
        yield h, S, C, C1
        last = S[-1], nxt[-1], C[-1], C1[-1]
        n0 += len(S)


def transfer_potential(sys: ConformalSystem, n: int):
    """The potential f_n = (1/n) sum_{i=1}^{n-1} S_i, as an evaluable function.

    Satisfies A_n(h) = h + f_n o psi - f_n; f_1 is identically 0.  A call
    is ``transfer_potential_values`` of a batch of one; on exact finite
    systems the returned values are Fractions.
    """
    check_order(n)

    def f_n(x):
        pts = sys.space.sample_points([x])
        return transfer_potential_values(sys, pts, n, exact=True)[0].tolist()[0]

    return f_n


def transfer_potential_values(sys: ConformalSystem, pts, n: int, exact: bool = False):
    """(f_n(p), f_n(psi p)) at the points pts: the last sums of one
    ``_potential_sums`` walk of n rows, divided by n, as float64.  On exact
    systems the sums of the integer rows h * scale are exact and each is
    rounded once, or with ``exact`` kept as Fractions.
    """
    for _, _, C, C1 in _potential_sums(sys, pts, n):
        pass
    if exact or sys.scale is None:
        return _divide(C[-1], n, sys.scale), _divide(C1[-1], n, sys.scale)
    return scaled_floats(C[-1], n * sys.scale), scaled_floats(C1[-1], n * sys.scale)


def coboundary_residual_curve(sys: ConformalSystem, n_max: int, points=None) -> np.ndarray:
    """Residuals max_x |A_n(h)(x) - (h(x) + f_n(psi x) - f_n(x))| of the
    transfer identity over sampled points, for every n = 1..n_max.

    Reads every block of ``_potential_sums``: one streamed orbit walk of
    n_max rows serves both the grid and its image, so memory is O(P)
    whatever n_max is.  The identity is checked times n, as max |S_n -
    (n h + n f_n o psi - n f_n)|, and divided by n once per order, in the
    sums' arithmetic: exact systems check it on the integer rows, so their
    curve is exact (Fractions, all zero); float systems show float rounding.
    """
    parts, n0 = [], 1
    for h, S, C, C1 in _potential_sums(sys, sys.space.sample_points(points), n_max):
        ns = np.arange(n0, n0 + len(S))[:, None]
        gap = ns * h  # S - (n h + C1 - C), in place
        gap += C1
        gap -= C
        np.subtract(S, gap, out=gap)
        parts.append(_divide(np.abs(gap, out=gap).max(axis=1), ns[:, 0], sys.scale))
        n0 += len(S)
    return np.concatenate(parts)


def limit_estimates(table: BirkhoffExtrema) -> LimitEstimate:
    """Estimate the limiting envelope extrema from a table or its extrema.

    Finite bijections read the cycle record: exact on an exact table, up to
    the largest of its ``rounding_bounds`` on a float one.  On continuous
    kinds the monotone truncated envelopes at n_max are reported; the
    estimate is flagged unstable when the extrema still move (relatively)
    more than 1e-6 across the last tenth of the orders.  Systems carrying a
    stored generating function get the telescoping error bound
    2 (max f - min f) / n; everything else is marked "heuristic".
    """
    sys = table.system
    if sys.space.kind == FINITE:
        from . import ergopt

        dec = ergopt.cycle_mean_extrema(sys)
        return LimitEstimate(dec.min_mean, dec.max_mean, table.n_max,
                             Fraction(0) if sys.exact else float(dec.rounding_bounds.max()),
                             exact=sys.exact, stable=True)

    lo_curve = np.asarray(table.extrema_per_n["inf_env_minus"], dtype=float)
    hi_curve = np.asarray(table.extrema_per_n["sup_env_plus"], dtype=float)
    n_used = table.n_max
    start = max(0, n_used - max(1, math.ceil(0.1 * n_used)))
    stable = not any(float(w.max() - w.min()) / max(1.0, float(np.max(np.abs(w))))
                     > 1e-6 for w in (lo_curve[start:], hi_curve[start:]))
    bound = "heuristic"
    if sys.generating_f is not None:
        lo, hi = sampled_bounds(sys, sys.generating_f, table.points)
        bound = 2.0 * (hi - lo) / n_used
    return LimitEstimate(float(lo_curve[-1]), float(hi_curve[-1]), n_used, bound,
                         exact=False, stable=stable)


#: rows of birkhoff.csv formatted and written at a time, which bounds the
#: memory its cells take
CSV_CHUNK_ROWS = 8192


def table_to_csv(table: BirkhoffTable, path):
    """Dump the full table as CSV: point, n, S_n, A_n, env-, env+.

    Exact cells are written from the integer sums S_n * scale as the bytes
    of the str of their Fractions (``core.fraction_bytes``): only the S_n
    and A_n cells, since an envelope cell is the A_n cell at its suffix's
    extreme order.  Float cells are reprs (``core.float_cells``), a point
    its ``core.point_cells`` cell.  Rows are point-major, n within each
    point, and ``core.write_csv`` writes them a block of points at a time.
    """
    sys, n_max, points = table.system, table.n_max, table.points
    labels = point_cells(sys.space, points)
    ns = decimal_bytes(np.arange(1, n_max + 1))
    if sys.exact:
        S = table.running_sums
        orders = integer_array([n * sys.scale for n in range(1, n_max + 1)])[None, :]
        # one envelope pass over the whole table; each block takes its columns
        suffix = [_suffix_rows(S, better) for better in (np.less, np.greater)]

        def cells(block):  # point-major; an envelope cell is a row of the A_n block
            sums = S[:, block].T  # a row per point
            A = fraction_bytes(*_lowest_terms(sums, orders))
            first = n_max * np.arange(len(sums))[:, None]  # each point's first row of A
            return [fraction_bytes(*_lowest_terms(sums, sys.scale)), A,
                    *(A[(r[:, block].T + first).ravel()] for r in suffix)]
    else:
        arrays = table.columns()

        def cells(block):
            return [float_cells(a[:, block].T) for a in arrays]

    step = max(1, CSV_CHUNK_ROWS // n_max)
    blocks = (slice(lo, lo + step) for lo in range(0, len(points), step))
    write_csv(path, "point,n,S_n,A_n,env_minus,env_plus",
              ([np.repeat(labels[b], n_max, axis=0), np.tile(ns, (len(labels[b]), 1)), *cells(b)]
               for b in blocks))


def extrema_to_csv(table: BirkhoffExtrema, path):
    """Dump the extrema curves (one row per n) for plotting: exact values
    (Fractions) as "p/q", floats by repr (``core.float_cells``, one repr per
    distinct value: a suffix envelope repeats its values)."""
    ex = table.extrema_per_n
    write_csv(path, "n,min_avg,max_avg,inf_env_minus,sup_env_plus",
              [[decimal_bytes(np.arange(1, table.n_max + 1)),
                *(list(map(str, ex[key].tolist())) if table.exact else float_cells(ex[key])
                  for key in ("min_avg", "max_avg", "inf_env_minus", "sup_env_plus"))]])
