"""Min-max and max-min coboundary optimization.

The two quantities solved here are inf_f max_x (h + f o psi - f) and
sup_f min_x (h + f o psi - f).  On a functional graph (every node has one
successor) both are cycle-mean extrema, computed exactly by one routine: on a
finite bijection this is the exact optimum; on grids it is the exact cycle
mean of the snapped grid dynamics, whose snapping only approximates psi.  The
transfer potential gives a rigorous (sampled) upper bound on grids.

Exact finite systems run on integers scaled by the common denominator D of
the factor table (``ConformalSystem.scaled_table``): cycle sums, potentials
and certificates are Python ints, and Fractions are built only at the
boundary (cycle means, returned values and potential tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    FINITE,
    ConformalSystem,
    ValidationError,
    eval_factor,
    negated_system,
    orbit_factors,
    step_points,
)


@dataclass
class CycleDecomposition:
    """Cycles of a functional graph x -> succ[x] with their factor means."""

    cycles: list  # (state tuple, mean)
    max_mean: object
    min_mean: object
    tree: list  # the nodes off every cycle, each after its successor


@dataclass
class OptimizationResult:
    value: object
    potential: object  # evaluable
    potential_table: object  # per-state / per-node values, or None
    certificate: object  # max_x(h + f o psi - f) - value over the sample
    method: str

    def to_json(self):
        return {
            "value": _num(self.value),
            "certificate": _num(self.certificate),
            "method": self.method,
        }


def _num(v):
    return str(v) if isinstance(v, Fraction) else float(v)


def _require_finite(sys: ConformalSystem):
    if sys.space.kind != FINITE or sys.perm_table is None:
        raise ValidationError("this operation needs a finite bijection")


def _functional_cycles(succ, hv, scale=None) -> CycleDecomposition:
    """Cycles of x -> succ[x] with the mean of hv on each.

    Each node is walked once: a walk stops at the first node already reached,
    and when that node lies on the current walk the rest of the walk from it
    is a new cycle.  With ``scale``, hv holds the integers h * scale and each
    mean is the exact Fraction sum / (L * scale); otherwise means are floats.
    """
    walk = [-1] * len(succ)  # the walk (its start node) that reached each node
    cycles, tree = [], []
    for start in range(len(succ)):
        if walk[start] >= 0:
            continue
        path = []
        x = start
        while walk[x] < 0:
            walk[x] = start
            path.append(x)
            x = succ[x]
        cut = path.index(x) if walk[x] == start else len(path)
        if cut < len(path):
            cyc = path[cut:]
            total = sum(hv[i] for i in cyc)
            mean = total / float(len(cyc)) if scale is None else Fraction(total, len(cyc) * scale)
            cycles.append((tuple(cyc), mean))
        tree.extend(reversed(path[:cut]))
    means = [c[1] for c in cycles]
    return CycleDecomposition(cycles, max(means), min(means), tree)


def cycle_mean_extrema(sys: ConformalSystem) -> CycleDecomposition:
    """Cycle decomposition of the permutation with exact means when possible."""
    _require_finite(sys)
    return _functional_cycles(sys.perm_table, sys.scaled_table, sys.scale)


def _cycle_potential(dec: CycleDecomposition, succ, hv, level) -> list:
    """Potential f with h + f o succ - f = level along every non-closing edge
    c_j -> c_{j+1} of each cycle and every tree edge, normalized to min f = 0.
    Computed in hv's arithmetic (ints stay ints)."""
    f = [None] * len(hv)
    for cyc, _mean in dec.cycles:
        f[cyc[0]] = hv[cyc[0]] * 0  # zero of the right arithmetic type
        for j in range(len(cyc) - 1):
            f[cyc[j + 1]] = f[cyc[j]] - (hv[cyc[j]] - level)
    for x in dec.tree:
        f[x] = hv[x] + f[succ[x]] - level
    fmin = min(f)
    return [v - fmin for v in f]


def _cycle_minmax(succ, hv, scale=None):
    """inf_f max_x (h + f o succ - f) on a functional graph is the largest
    cycle mean M: the edges of a cycle sum to its length times its mean, and
    the cycle potential at level M attains M.

    Returns (M, F, excess, unit): the potential is f = F / unit and the
    certificate max edge - M is excess / unit.  Float tables have unit 1.
    With ``scale`` (hv = h * scale, integers) the potential is built on
    h * scale * L at level L * scale * M, L the length of a cycle of mean M,
    so F and excess are integers over unit = L * scale.
    """
    dec = _functional_cycles(succ, hv, scale)
    M = dec.max_mean
    if scale is None:
        unit, level = 1, M
    else:
        L = next(len(cyc) for cyc, mean in dec.cycles if mean == M)
        unit = L * scale
        hv, level = [v * L for v in hv], int(M * unit)
    F = _cycle_potential(dec, succ, hv, level)
    excess = max(hv[i] + F[succ[i]] - F[i] for i in range(len(succ))) - level
    return M, F, excess, unit


def _exact_finite(sys: ConformalSystem, sign: int) -> OptimizationResult:
    """The min-max (sign 1) or the max-min (sign -1, the min-max of -h
    negated) of a finite bijection, on the system's exact integers when it
    has them."""
    hv = sys.scaled_table if sign > 0 else [-v for v in sys.scaled_table]
    M, F, excess, unit = _cycle_minmax(sys.perm_table, hv, sys.scale)
    if sign < 0:  # -f, normalized to min 0
        top = max(F)
        F = [top - v for v in F]
    if sys.exact:
        F, excess = [Fraction(v, unit) for v in F], Fraction(excess, unit)
    return OptimizationResult(
        value=M if sign > 0 else -M,
        potential=lambda x: F[int(x)],
        potential_table=F,
        certificate=excess,
        method="exact_finite",
    )


def _birkhoff_fn_minmax(sys: ConformalSystem, n: int, points) -> OptimizationResult:
    from . import birkhoff

    f_n = birkhoff.transfer_potential(sys, n)
    H = orbit_factors(sys, sys.space.sample_points(points), n)
    f_here, f_next = birkhoff.transfer_potential_values(H, n)
    edge = H[0] + f_next - f_here
    value = float(edge.max())
    return OptimizationResult(
        value=value,
        potential=f_n,
        potential_table=f_here - f_here.min(),
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


def _grid_descent_minmax(sys: ConformalSystem, points) -> OptimizationResult:
    """Exact optimum of the snapped problem: psi with each grid node's image
    rounded to the nearest node.  Snapping approximates psi, so the value
    approximates the optimum of the real dynamics."""
    pts = sys.space.sample_points(points)
    succ = _snap_indices(sys, pts).tolist()
    hv = eval_factor(sys, pts).tolist()
    value, table, cert, _unit = _cycle_minmax(succ, hv)
    return OptimizationResult(
        value=value,
        potential=None,
        potential_table=np.asarray(table),
        certificate=cert,
        method="grid_descent (exact cycle mean of the snapped dynamics; snapping is heuristic)",
    )


def minmax_coboundary(sys: ConformalSystem, method: str = "exact_finite",
                      n: int | None = None, points=None) -> OptimizationResult:
    """inf over potentials f of max_x (h + f o psi - f), by the chosen method."""
    if method == "exact_finite":
        _require_finite(sys)
        return _exact_finite(sys, 1)
    if method == "birkhoff_fn":
        if sys.space.kind == FINITE:
            raise ValidationError("birkhoff_fn expects a grid; use exact_finite")
        return _birkhoff_fn_minmax(sys, n or 64, points)
    if method == "grid_descent":
        if sys.space.kind == FINITE:
            raise ValidationError("grid_descent expects a grid; use exact_finite")
        return _grid_descent_minmax(sys, points)
    raise ValidationError(f"unknown method {method!r}")


def maxmin_coboundary(sys: ConformalSystem, method: str = "exact_finite",
                      n: int | None = None, points=None) -> OptimizationResult:
    """sup over potentials f of min_x (h + f o psi - f) = -minmax(-h)."""
    if method == "exact_finite":
        _require_finite(sys)
        return _exact_finite(sys, -1)
    res = minmax_coboundary(negated_system(sys), method=method, n=n, points=points)
    table = res.potential_table
    if table is not None:
        table = -table
        table = table - table.min()
    inner = res.potential
    return OptimizationResult(
        value=-res.value,
        potential=None if inner is None else lambda x: -inner(x),
        potential_table=table,
        certificate=res.certificate,
        method=res.method,
    )


def is_strict_finite(sys: ConformalSystem):
    """Whether h is a coboundary f - f o psi; returns (flag, f table or None).

    Holds exactly when every cycle mean of h vanishes.  f is rebuilt by
    accumulating h backwards along each cycle (f o psi = f - h), fixed up to
    one additive constant per cycle and then normalized to min f = 0.
    """
    _require_finite(sys)
    dec = cycle_mean_extrema(sys)
    tol = 0 if sys.exact else 1e-12
    if any(abs(mean) > tol for _cyc, mean in dec.cycles):
        return False, None
    F = _cycle_potential(dec, sys.perm_table, sys.scaled_table, 0)
    return True, [Fraction(v, sys.scale) for v in F] if sys.exact else F
