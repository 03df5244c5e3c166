"""Min-max and max-min coboundary optimization.

The two quantities solved here are inf_f max_x (h + f o psi - f) and
sup_f min_x (h + f o psi - f).  The max-min is the min-max of -h negated, so
the cycle methods solve the min-max only: a sign negates its values once and
flips its potential table once.  On a functional graph (every node has one
successor) the min-max is the largest cycle mean, computed exactly by one
routine: on a finite bijection this is the exact optimum; on grids it is the
exact cycle mean of the snapped grid dynamics, whose snapping only
approximates psi.  The transfer potential gives rigorous (sampled) bounds on
grids, both from one orbit walk.

One walk over the states (``_functional_cycles``) records the cycles as
index arrays, with the factor values they are summed on (a
``CycleDecomposition``); every cycle quantity reads that record alone, as a
cumsum along each cycle, which adds in the walk's order.  The cycles do not
depend on the sign of h, so the two optima share one walk
(``coboundary_optima``): the max-min reads the same record with the means
and rows of -h.

Exact finite systems run on integers scaled by the common denominator D of
the factor table (the array ``ConformalSystem.scaled_table``): cycle sums,
potentials and certificates are integers, and Fractions are built only at the
boundary (cycle means, returned values and certificates).  An exact
potential table stays integers over L * D (a ``core.RationalTable``) whose
Fractions are built on first access, so ``potential.csv`` is formatted from
the integers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

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
    """

    order: np.ndarray
    bounds: np.ndarray
    tree: np.ndarray
    succ: np.ndarray
    vals: np.ndarray
    scale: int | None = None
    means: list = None
    max_mean = property(lambda self: max(self.means))
    min_mean = property(lambda self: min(self.means))

    def slices(self) -> list:
        return np.split(self.order, self.bounds[1:-1])


def mean_level(mean, length: int, scale=None):
    """(weight, level, denominator) of a walk at a cycle mean: (1, mean, None)
    on floats; an exact walk weighs h * scale by the length, so that its level
    and results are integers over length * scale."""
    if scale is None:
        return 1, mean, None
    return length, int(mean * length * scale), length * scale


@dataclass
class OptimizationResult:
    value: object
    potential: object  # evaluable
    potential_table: object  # per-state / per-node values (a RationalTable if exact), or None
    certificate: object  # max_x(h + f o psi - f) - value over the sample
    method: str


def _require_finite(sys: ConformalSystem):
    if sys.space.kind != FINITE:
        raise ValidationError("this operation needs a finite bijection")


def _functional_cycles(succ, hv, scale=None) -> CycleDecomposition:
    """Cycles of x -> succ[x] with the mean of hv on each.

    Each node is walked once, in the one loop over states: a walk stops at
    the first node already reached, and when that node lies on the current
    walk the rest of the walk from it is a new cycle.  With ``scale``, hv
    holds the integers h * scale and each mean is the exact Fraction
    sum / (L * scale); otherwise means are floats."""
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
    dec = CycleDecomposition(order, bounds, tree, succ, vals, scale)
    dec.means = _cycle_means(dec)
    return dec


def _cycle_means(dec: CycleDecomposition) -> list:
    """The mean of dec.vals on each cycle of dec: floats, or exact Fractions
    of the integers h * scale."""
    means = []
    for cyc in dec.slices():
        total = np.cumsum(dec.vals[cyc])[-1]  # a float sum from +0.0, as sum() adds
        means.append((float(total) + 0.0) / len(cyc) if dec.scale is None
                     else Fraction(int(total), len(cyc) * dec.scale))
    return means


def cycle_mean_extrema(sys: ConformalSystem) -> CycleDecomposition:
    """Cycle decomposition of the permutation with exact means when possible."""
    _require_finite(sys)
    return _functional_cycles(sys.perm_table, sys.scaled_table, sys.scale)


def _cycle_potential(dec: CycleDecomposition, level, weight=1) -> np.ndarray:
    """Potential f with weight * h + f o succ - f = level along every
    non-closing edge c_j -> c_{j+1} of each cycle and every tree edge,
    normalized to min f = 0, in the arithmetic of dec.vals: a cumsum from
    f(c_0) = 0 (-0.0 where h(c_0) < 0) along each cycle, then one pass over
    the trees, each node after its successor."""
    hv, succ = weight * dec.vals, dec.succ
    F = np.empty_like(hv)
    for cyc in dec.slices():
        F[cyc] = np.cumsum(np.concatenate((hv[cyc[:1]] * 0, -(hv[cyc[:-1]] - level))))
    for x in dec.tree.tolist():
        F[x] = hv[x] + F[succ[x]] - level
    return F - F[np.argmin(F)]  # the first least value, as min() takes it


def _cycle_optimum(dec: CycleDecomposition, sign: int, method: str) -> OptimizationResult:
    """The min-max (sign 1) or the max-min (sign -1) from the walk dec.
    The max-min is the min-max of -h negated: the record's values are negated
    once, the means of -h are summed on that cycle by cycle, and the
    potential F of -h is flipped once to max F - F.  The cycles do not depend
    on the sign, so one walk serves both.

    inf_f max_x (h + f o succ - f) is the largest cycle mean M: the edges of
    a cycle sum to its length times its mean, and the cycle potential at
    level M (``mean_level`` of the first cycle of mean M) attains M; the
    certificate is max edge - M.  "exact_finite" keeps the potential per
    state, as a list (a ``RationalTable`` when exact) with its evaluable;
    "grid_descent" keeps it per grid node, as an array only.
    """
    if sign < 0:
        # float zeros do not negate (-a + a is +0.0), so -h's means are summed
        dec = replace(dec, vals=-dec.vals)
        dec.means = _cycle_means(dec)
    M = dec.max_mean
    i = dec.means.index(M)
    w, level, den = mean_level(M, int(dec.bounds[i + 1] - dec.bounds[i]), dec.scale)
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
    elif method not in ("birkhoff_fn", "grid_descent"):
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

    Holds exactly when every cycle mean of h vanishes.  f is rebuilt by
    accumulating h backwards along each cycle (f o psi = f - h), fixed up to
    one additive constant per cycle and then normalized to min f = 0.
    """
    dec = cycle_mean_extrema(sys)
    tol = 0 if sys.exact else 1e-12
    if any(abs(mean) > tol for mean in dec.means):
        return False, None
    F = _cycle_potential(dec, 0)
    return True, [Fraction(v, sys.scale) for v in F.tolist()] if sys.exact else F.tolist()
