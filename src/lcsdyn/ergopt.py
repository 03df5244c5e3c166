"""Min-max and max-min coboundary optimization.

inf_f max_x (h + f o psi - f) and sup_f min_x (h + f o psi - f); the max-min
is the min-max of -h negated, so the cycle methods solve the min-max only.
On a functional graph (every node has one successor) the min-max is the
largest cycle mean: the exact optimum on a finite bijection, and on grids
the exact optimum of the snapped grid dynamics, whose snapping only
approximates psi.  The transfer potential gives rigorous (sampled) bounds on
grids, both from one orbit walk.

One walk over the states (``_functional_cycles``) records the cycles as
index arrays with their factor values (a ``CycleDecomposition``).  Every
per-cycle quantity (the means, the potentials, the probe's drift span and
the float means' rounding bounds) reads one reducer of that record,
``_cycle_sums``: the running sums along every cycle in the walk's order, one
cumsum per distinct cycle length.  The cycles do not depend on the sign of
h, so the two optima share one walk; the max-min reads it with -h.

Exact finite systems run on the integers h * D, D the common denominator of
the factor table (``ConformalSystem.scaled_table``): sums, potentials and
certificates are integers, and Fractions are built only for the means, the
returned values and the certificates.  An exact potential table stays
integers over L * D (a ``core.RationalTable``), so ``potential.csv`` is
formatted from the integers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import (
    FINITE,
    ConformalSystem,
    RationalTable,
    ValidationError,
    _int64_bound,
    _is_integer,
    eval_factor,
    int_dtype,
    integer_array,
    step_points,
)


@dataclass
class CycleDecomposition:
    """Cycles of a functional graph x -> succ[x] with the factor values on
    its states and their means.

    Cycle i is ``order[bounds[i]:bounds[i + 1]]``, listed from the state
    where the walk entered it, with mean ``means[i]`` (a Fraction on exact
    tables, else a float); ``tree`` lists the nodes off every cycle, each
    after its successor.  order, bounds, tree and succ are int64 arrays.
    ``vals`` holds the factor values: float64, or with ``scale`` the integers
    h * scale, int64 while 8 max|h * scale| L^2 < 2^63 (L the longest cycle)
    bounds every weighted sum, potential and edge of a walk, else Python ints.
    ``means``, ``drift_span`` and, on float records, ``rounding_bounds`` are
    computed on first read.
    """

    order: np.ndarray
    bounds: np.ndarray
    tree: np.ndarray
    succ: np.ndarray
    vals: np.ndarray
    scale: int | None = None
    lengths = property(lambda self: np.diff(self.bounds))
    means = cached_property(lambda self: _cycle_means(self))
    max_mean = property(lambda self: max(self.means))
    min_mean = property(lambda self: min(self.means))
    drift_span = cached_property(lambda self: _drift_span(self))
    rounding_bounds = cached_property(lambda self: _rounding_bounds(self))


def _cycle_sums(dec: CycleDecomposition, row: np.ndarray) -> np.ndarray:
    """The running sums of row (a value per position of dec.order) along each
    cycle from its first position, one np.cumsum(axis=1) per cycle length
    over that length's cycles as rows: accumulate adds in order, so a float
    row rounds as a cumsum per cycle does, and Python ints stay exact."""
    out, lengths = np.empty_like(row), dec.lengths
    for L in np.unique(lengths).tolist():
        at = dec.bounds[:-1][lengths == L][:, None] + np.arange(L)
        out[at] = np.cumsum(row[at], axis=1)
    return out


def _cycle_means(dec: CycleDecomposition) -> list:
    """The mean of dec.vals on each cycle of dec: floats, or exact Fractions
    of the integers h * scale."""
    totals, lengths = _cycle_sums(dec, dec.vals[dec.order])[dec.bounds[1:] - 1], dec.lengths
    if dec.scale is None:  # a float sum from +0.0, as sum() adds
        return ((totals + 0.0) / lengths).tolist()
    return [Fraction(t, L * dec.scale) for t, L in zip(totals.tolist(), lengths.tolist())]


def _drift_span(dec: CycleDecomposition):
    """sup |S_n(x) - n mean| over the states x of each cycle and 0 < n < L.
    With D_j = sum_{i<j} (h(c_i) - mean) along c_0 .. c_{L-1}, S_n(c_a) - n
    mean = D_{a+n} - D_a (indices mod L, D_0 = D_L = 0): the widest range of
    D_1 .. D_{L-1} and 0.  An exact record sums L h * scale - L mean * scale,
    in integers, so the span is a Fraction over L * scale."""
    vals, lengths = dec.vals[dec.order], dec.lengths
    if dec.scale is None:
        row = vals - np.repeat(dec.means, lengths)
    else:  # the level L mean * scale is the cycle's sum
        totals = _cycle_sums(dec, vals)[dec.bounds[1:] - 1]
        row = np.repeat(lengths, lengths).astype(vals.dtype) * vals - np.repeat(totals, lengths)
    D, starts = _cycle_sums(dec, row), dec.bounds[:-1]
    D[dec.bounds[1:] - 1] = 0
    spans = (np.maximum.reduceat(D, starts) - np.minimum.reduceat(D, starts)).tolist()
    return max(spans) + 0.0 if dec.scale is None else max(
        (Fraction(s, L * dec.scale) for s, L in zip(spans, lengths.tolist()) if s), default=0)


def _rounding_bounds(dec: CycleDecomposition) -> np.ndarray:
    """eps (L + 1) S / L, S the in-order float sum of |h| along each cycle: a
    bound on the rounding of each float cycle mean.  A mean of L values summed
    in order and divided by L is within gamma_L mean|h| of the exact mean,
    gamma_L = L u / (1 - L u), u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, 4.2).  S is at least (1 - gamma_{L-1}) times the
    exact sum of the L non-negative terms, and (L + 1) 2^-52 is about twice
    gamma_L (for L below 2^26), so the bound still exceeds gamma_L mean|h|,
    with room for its own rounding."""
    S = _cycle_sums(dec, np.abs(dec.vals[dec.order]))[dec.bounds[1:] - 1]
    return np.finfo(float).eps * (dec.lengths + 1) * S / dec.lengths


@dataclass
class OptimizationResult:
    value: object
    potential: object  # evaluable
    potential_table: object  # per-state / per-node values (a RationalTable if exact), or None
    certificate: object  # max_x(h + f o psi - f) - value over the sample
    method: str


def _functional_cycles(succ, hv, scale=None) -> CycleDecomposition:
    """The cycle record of x -> succ[x] and the values hv (with ``scale``,
    the integers h * scale).

    Each node is walked once, in the one loop over states: a walk stops at
    the first node already reached, and when that node lies on the current
    walk the rest of the walk from it is a new cycle."""
    succ = np.asarray(succ, dtype=np.int64)
    nxt = succ.tolist()
    walk = [-1] * len(nxt)  # the walk (its start node) that reached each node
    order, bounds, tree = [], [0], []
    for start in range(len(nxt)):
        if walk[start] >= 0:
            continue
        path = []
        x = start
        while walk[x] < 0:
            walk[x] = start
            path.append(x)
            x = nxt[x]
        cut = path.index(x) if walk[x] == start else len(path)
        if cut < len(path):
            order.extend(path[cut:])
            bounds.append(len(order))
        tree.extend(reversed(path[:cut]))
    order, bounds, tree = (np.array(a, dtype=np.int64) for a in (order, bounds, tree))
    if scale is None:
        vals = np.asarray(hv)
    else:
        vals = integer_array(hv)
        longest = int(np.diff(bounds).max())
        vals = vals.astype(int_dtype(_int64_bound(vals), 8 * longest**2), copy=False)
    return CycleDecomposition(order, bounds, tree, succ, vals, scale)


def cycle_mean_extrema(sys: ConformalSystem) -> CycleDecomposition:
    """Cycle decomposition of the permutation with exact means when possible."""
    if sys.space.kind != FINITE:
        raise ValidationError("this operation needs a finite bijection")
    return _functional_cycles(sys.perm_table, sys.scaled_table, sys.scale)


def _cycle_potential(dec: CycleDecomposition, level, weight=1) -> np.ndarray:
    """Potential f with weight * h + f o succ - f = level along every
    non-closing edge c_j -> c_{j+1} of each cycle and every tree edge,
    normalized to min f = 0, in the arithmetic of dec.vals: the running
    sums (``_cycle_sums``) from f(c_0) = h(c_0) * 0 (-0.0 where h(c_0) < 0)
    of the terms -(weight h(c_j) - level), then one pass over the trees,
    each node after its successor."""
    hv, succ, starts = weight * dec.vals, dec.succ, dec.bounds[:-1]
    row = hv[dec.order]
    row[1:] = -(row[:-1] - level)
    row[starts] = hv[dec.order[starts]] * 0
    F = np.empty_like(hv)
    F[dec.order] = _cycle_sums(dec, row)
    for x in dec.tree.tolist():
        F[x] = hv[x] + F[succ[x]] - level
    return F - F[np.argmin(F)]  # the first least value, as min() takes it


def _cycle_optimum(dec: CycleDecomposition, sign: int, method: str) -> OptimizationResult:
    """The min-max (sign 1) or the max-min (sign -1) from the walk dec: the
    max-min is the min-max of -h negated, with the record's values negated
    once, the means of -h summed anew and its potential F flipped once to
    max F - F.

    inf_f max_x (h + f o succ - f) is the largest cycle mean M: the edges of
    a cycle sum to L times its mean, and the cycle potential at level M of
    the first cycle of mean M attains M (exact: the weights L h * scale at
    level L M * scale, integers over L * scale); the certificate is max edge
    - M.  "exact_finite" keeps the potential per state, as a list (a
    ``RationalTable`` when exact) with its evaluable; "grid_descent" per grid
    node, as an array only.
    """
    if sign < 0:
        # float zeros do not negate (-a + a is +0.0), so -h's means are summed
        dec = replace(dec, vals=-dec.vals)
    M = dec.max_mean
    i = dec.means.index(M)
    w = 1 if dec.scale is None else int(dec.bounds[i + 1] - dec.bounds[i])
    den = None if dec.scale is None else w * dec.scale
    level = M if den is None else int(M * den)
    F = _cycle_potential(dec, level, w)
    edge = w * dec.vals + F[dec.succ] - F
    excess = edge[np.argmax(edge)] - level  # the first largest edge, as max() takes it
    if sign < 0:
        F = F[np.argmax(F)] - F
    excess = float(excess) if den is None else Fraction(int(excess), den)
    if method == "exact_finite":
        F = F.tolist() if den is None else RationalTable(F, den)
        return OptimizationResult(sign * M, lambda x: F[int(x)], F, excess, method)
    return OptimizationResult(
        sign * M, None, F, excess,
        "grid_descent (exact cycle mean of the snapped dynamics; snapping is heuristic)")


def _birkhoff_fn(sys: ConformalSystem, n: int, points) -> tuple:
    """(max-min, min-max) bounded by the averaged potential f_n at n on sampled
    points, from one walk of n rows (``birkhoff._potential_sums``): the edges
    h + f_n o psi - f_n are A_n(h), whose min bounds the max-min from below
    and whose max bounds the min-max from above.  Each value is an edge, so
    its certificate is 0.0 by construction.  f_n(-h) = -f_n(h) bit for bit,
    so ``potential`` is f_n for both optima and the max-min's table is that
    of -h, normalized to min 0 and flipped.
    """
    from . import birkhoff

    f_n, method = birkhoff.transfer_potential(sys, n), f"birkhoff_fn(n={n})"  # checks n
    for h, _, C, C1 in birkhoff._potential_sums(sys, sys.space.sample_points(points), n):
        pass
    f_here = C[-1] / n  # the float f_n of ``transfer_potential_values``
    edge = h + C1[-1] / n - f_here
    F = f_here.max() - f_here
    return (OptimizationResult(float(edge.min()), f_n, F.max() - F, 0.0, method),
            OptimizationResult(float(edge.max()), f_n, f_here - f_here.min(), 0.0, method))


def _snap_indices(sys: ConformalSystem, pts) -> np.ndarray:
    """Image of each grid node snapped to the nearest grid node."""
    img = step_points(sys, pts)
    if pts.ndim == 1:
        r = pts.shape[0]
        return np.round(img * r).astype(np.int64) % r
    side = int(round(np.sqrt(pts.shape[0])))
    ij = np.round(img * side).astype(np.int64) % side
    return ij[:, 0] * side + ij[:, 1]


METHODS = ("exact_finite", "birkhoff_fn", "grid_descent")


def coboundary_optima(sys: ConformalSystem, method: str = "exact_finite",
                      n: int | None = None, points=None) -> tuple:
    """(max-min, min-max) of sys by the chosen method: sup_f min_x and
    inf_f max_x of h + f o psi - f.  Every method takes both optima from one
    walk: "exact_finite" and "grid_descent" walk the states once, and
    "birkhoff_fn" walks the orbits once to bound both at the order n (64 when
    None).

    "grid_descent" is the exact optimum of the snapped problem: psi with each
    grid node's image rounded to the nearest node.  Snapping approximates
    psi, so its value approximates the optimum of the real dynamics.
    """
    if method == "exact_finite":
        dec = cycle_mean_extrema(sys)
    elif method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    elif sys.space.kind == FINITE:
        raise ValidationError(f"{method} expects a grid; use exact_finite")
    elif method == "grid_descent" and not (points is None or _is_integer(points)):
        raise ValidationError(f"grid_descent snaps to the regular grid i / r: grid must be "
                              f"an int or omitted, got {points!r}")
    elif method == "birkhoff_fn":
        return _birkhoff_fn(sys, 64 if n is None else n, points)
    else:
        pts = sys.space.sample_points(points)
        dec = _functional_cycles(_snap_indices(sys, pts), eval_factor(sys, pts))
    return tuple(_cycle_optimum(dec, sign, method) for sign in (-1, 1))


def is_strict_finite(sys: ConformalSystem):
    """Whether h is a coboundary f - f o psi; returns (flag, f table or None).

    Holds exactly when every cycle mean of h vanishes (a float one within its
    rounding bound).  f is rebuilt by accumulating h backwards along each
    cycle (f o psi = f - h), fixed up to one additive constant per cycle and
    then normalized to min f = 0.
    """
    dec = cycle_mean_extrema(sys)
    # a float mean within its rounding bound of 0 is taken for 0
    if (any(dec.means) if sys.exact else np.any(np.abs(dec.means) > dec.rounding_bounds)):
        return False, None
    F = _cycle_potential(dec, 0)
    return True, [Fraction(v, sys.scale) for v in F.tolist()] if sys.exact else F.tolist()
