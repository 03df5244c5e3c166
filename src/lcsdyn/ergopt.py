"""Min-max and max-min coboundary optimization.

The two quantities solved here are inf_f max_x (h + f o psi - f) and
sup_f min_x (h + f o psi - f).  The max-min is the min-max of -h negated, so
every method solves the min-max only: a sign negates its value rows once and
flips its potential table once.  On a functional graph (every node has one
successor) the min-max is the largest cycle mean, computed exactly by one
routine: on a finite bijection this is the exact optimum; on grids it is the
exact cycle mean of the snapped grid dynamics, whose snapping only
approximates psi.  The transfer potential gives a rigorous (sampled) upper
bound on grids.

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
    orbit_array,
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

    def to_json(self):
        return {"value": _num(self.value), "certificate": _num(self.certificate),
                "method": self.method}


def _num(v):
    return str(v) if isinstance(v, Fraction) else float(v)


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
    f(c_0) = 0 (-0.0 where h(c_0) < 0) along each cycle, then one round per
    level of the trees."""
    hv, succ = weight * dec.vals, dec.succ
    F = np.empty_like(hv)
    for cyc in dec.slices():
        F[cyc] = np.cumsum(np.concatenate((hv[cyc[:1]] * 0, -(hv[cyc[:-1]] - level))))
    done, pending = np.zeros(len(hv), dtype=bool), dec.tree
    done[dec.order] = True
    while pending.size:
        ready = done[succ[pending]]
        x = pending[ready]
        F[x] = hv[x] + F[succ[x]] - level
        done[x], pending = True, pending[~ready]
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


def _birkhoff_fn(sys: ConformalSystem, sign: int, n: int, points) -> OptimizationResult:
    """The averaged potential f_n at n on sampled points: A_n(h) = h + f_n o psi
    - f_n bounds the min-max from above (sign 1) and the max-min from below
    (sign -1, on the negated rows).  -f_n(-h) = f_n(h), so ``potential`` is
    f_n for both signs."""
    from . import birkhoff

    f_n = birkhoff.transfer_potential(sys, n)
    H = orbit_array(sys, sys.space.sample_points(points), n)
    if sign < 0:
        np.negative(H, out=H)
    f_here, f_next = birkhoff.transfer_potential_values(H, n)
    edge = H[0] + f_next - f_here
    value = float(edge.max())
    F = f_here - f_here.min()
    return OptimizationResult(
        value=sign * value,
        potential=f_n,
        potential_table=F if sign > 0 else F.max() - F,
        certificate=float(edge.max() - value),
        method=f"birkhoff_fn(n={n})",
    )


def _snap_indices(sys: ConformalSystem, pts) -> np.ndarray:
    """Image of each grid node snapped to the nearest grid node."""
    img = step_points(sys, pts)
    if pts.ndim == 1:
        r = pts.shape[0]
        return np.round(img * r).astype(np.int64) % r
    side = int(round(np.sqrt(pts.shape[0])))
    ij = np.round(img * side).astype(np.int64) % side
    return ij[:, 0] * side + ij[:, 1]


def _optimize(sys: ConformalSystem, signs, method: str, n, points) -> list:
    """The max-min (sign -1) and the min-max (sign 1), for each of ``signs``,
    by the chosen method.

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
        return [_birkhoff_fn(sys, sign, 64 if n is None else n, points) for sign in signs]
    else:
        pts = sys.space.sample_points(points)
        dec = _functional_cycles(_snap_indices(sys, pts), eval_factor(sys, pts))
    return [_cycle_optimum(dec, sign, method) for sign in signs]


def minmax_coboundary(sys: ConformalSystem, method: str = "exact_finite",
                      n: int | None = None, points=None) -> OptimizationResult:
    """inf over potentials f of max_x (h + f o psi - f), by the chosen method."""
    return _optimize(sys, (1,), method, n, points)[0]


def maxmin_coboundary(sys: ConformalSystem, method: str = "exact_finite",
                      n: int | None = None, points=None) -> OptimizationResult:
    """sup over potentials f of min_x (h + f o psi - f) = -minmax(-h)."""
    return _optimize(sys, (-1,), method, n, points)[0]


def coboundary_optima(sys: ConformalSystem, method: str = "exact_finite",
                      n: int | None = None, points=None) -> tuple:
    """(maxmin_coboundary, minmax_coboundary) of sys; "exact_finite" and
    "grid_descent" walk the states once for both."""
    return tuple(_optimize(sys, (-1, 1), method, n, points))


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
