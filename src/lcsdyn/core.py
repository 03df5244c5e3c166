"""Model spaces and conformal discrete-time dynamical systems.

A ConformalSystem packages an invertible map psi on a model space (unit
circle, unit 2-torus, or a finite state set) together with psi's inverse and
a real factor h.  Everything computed elsewhere in this package is a function
of the pair (psi, h) alone.

Circle and torus coordinates live in [0, 1) and are reduced mod 1 after every
map application, so long orbits cannot drift.  Finite systems whose factor
table is rational are evaluated in exact arithmetic: on the integers h * D, D
the common denominator of the table, with Fractions only at the boundary.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction

import numpy as np

CIRCLE = "circle"
TORUS2 = "torus2"
FINITE = "finite"

DEFAULT_MAX_ITERATIONS = 1_000_000
DEFAULT_TOL_INVERSE = 1e-9

#: rotation number of the golden rotation, (sqrt(5) - 1) / 2
GOLDEN_ANGLE = (math.sqrt(5.0) - 1.0) / 2.0


class DomainError(ValueError):
    """A point does not belong to the system's model space."""


class BudgetError(RuntimeError):
    """An iteration or truncation budget was exceeded."""


class ValidationError(ValueError):
    """Invalid construction data (space, map table, configuration)."""


def wrap(x):
    """Reduce a coordinate (scalar or array) to [0, 1)."""
    return x - np.floor(x)


def as_rational(v):
    """Exact Fraction for ints, Fractions and 'p/q' strings; None otherwise.

    A plain ASCII "[-]digits/digits" string is read as two ints; every
    other string goes through Fraction(str).
    """
    if isinstance(v, str):
        try:
            num, slash, den = v.partition("/")
            if slash and den.isdigit() and num.removeprefix("-").isdigit() and v.isascii():
                return Fraction(int(num), int(den))
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            return None
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        return None
    if isinstance(v, numbers.Integral):
        return Fraction(int(v))
    return None


#: size budget, in bits, of an exact table's integers h * D: m states times
#: the bit length of D.  A table with many large coprime denominators makes D
#: (and so every scaled entry) as long as all of them together.
MAX_SCALED_BITS = 2**24


def sum_dtype(sys: ConformalSystem, terms: int):
    """dtype of a running sum of ``terms`` orbit values of ``sys``: float64 on
    float systems; on exact systems int64 when no such sum of the integers
    h * scale can overflow it, else object (Python ints, which never do)."""
    if not sys.exact:
        return float
    return np.int64 if sys.scaled_bound * terms < 2**63 else object


def scaled_floats(ints, denominator: int) -> np.ndarray:
    """Integers over a positive denominator as float64, each rounded as
    float(Fraction(i, denominator)) is: correctly.  int64 values and
    denominators below 2^53 are exact floats, so one float division rounds
    correctly; larger ones divide as Python ints."""
    a = np.asarray(ints)
    if a.dtype == np.int64 and denominator < 2**53 and (a.size == 0 or np.abs(a).max() < 2**53):
        return a / denominator
    return np.array([i / denominator for i in a.ravel().tolist()], dtype=float).reshape(a.shape)


@dataclass(frozen=True)
class ModelSpace:
    """State space: circle, 2-torus (coordinates in [0,1)) or m labeled states."""

    kind: str
    grid_resolution: int = 256
    size: int = 1

    def __post_init__(self):
        if self.kind not in (CIRCLE, TORUS2, FINITE):
            raise ValidationError(f"unknown space kind {self.kind!r}")
        if self.kind == FINITE:
            if self.size < 1:
                raise ValidationError("finite space needs size >= 1")
        elif self.grid_resolution < 2:
            raise ValidationError("grid_resolution must be >= 2 for continuous kinds")

    def normalize(self, x):
        """Validate membership and return the canonical representative."""
        if self.kind == FINITE:
            if isinstance(x, (bool, float)) and not float(x).is_integer():
                raise DomainError(f"{x!r} is not a state index")
            try:
                i = int(x)
            except (TypeError, ValueError):
                raise DomainError(f"{x!r} is not a state index") from None
            if not 0 <= i < self.size:
                raise DomainError(f"state {i} outside range(0, {self.size})")
            return i
        if self.kind == CIRCLE:
            try:
                v = float(x)
            except (TypeError, ValueError):
                raise DomainError(f"{x!r} is not a circle coordinate") from None
            if not math.isfinite(v):
                raise DomainError("circle coordinate must be finite")
            return float(wrap(v))
        p = np.asarray(x, dtype=float)
        if p.shape != (2,) or not np.all(np.isfinite(p)):
            raise DomainError(f"{x!r} is not a point of the 2-torus")
        return wrap(p)

    def sample_points(self, spec=None):
        """Sample points: default uniform grid, an int grid size, explicit
        points, or {"grid": n, "seeds": [...]} for a grid plus seed points.

        Returns an array of shape (P,) for circle/finite and (P, 2) for the
        torus.  Explicit points are normalized.
        """
        if spec is None:
            spec = self.size if self.kind == FINITE else self.grid_resolution
        if isinstance(spec, dict):
            grid = self.sample_points(spec.get("grid"))
            seeds = spec.get("seeds", ())
            if len(seeds) == 0:
                return grid
            extra = self.sample_points(seeds)
            return np.concatenate([grid, extra])
        if isinstance(spec, numbers.Integral):
            n = int(spec)
            if n < 1:
                raise ValidationError("sample size must be positive")
            if self.kind == FINITE:
                return np.arange(min(n, self.size), dtype=np.int64)
            if self.kind == CIRCLE:
                return np.arange(n, dtype=float) / n
            g = np.arange(n, dtype=float) / n
            xs, ys = np.meshgrid(g, g, indexing="ij")
            return np.column_stack([xs.ravel(), ys.ravel()])
        pts = [self.normalize(p) for p in spec]
        if self.kind == FINITE:
            return np.asarray(pts, dtype=np.int64)
        return np.asarray(pts, dtype=float)


def constant_factor(value, space_kind: str = CIRCLE):
    """Constant factor; a single torus point (a length-2 array) is scalar."""
    v = float(value)
    point_ndim = 1 if space_kind == TORUS2 else 0

    def h(x):
        x = np.asarray(x, dtype=float)
        if x.ndim <= point_ndim:
            return v
        return np.full(x.shape[0], v)

    return h


def trig_factor(const=0.0, cos=(), sin=()):
    """Trigonometric polynomial on the circle: const + sum a cos(2 pi j x) + b sin."""
    cos = tuple((int(j), float(a)) for j, a in cos)
    sin = tuple((int(j), float(b)) for j, b in sin)
    c0 = float(const)

    def h(x):
        x = np.asarray(x, dtype=float)
        v = np.full(x.shape, c0)
        for j, a in cos:
            v = v + a * np.cos(2.0 * np.pi * j * x)
        for j, b in sin:
            v = v + b * np.sin(2.0 * np.pi * j * x)
        return float(v) if x.ndim == 0 else v

    return h


def trig2_factor(const=0.0, terms=()):
    """Trig polynomial on the 2-torus; terms are (m, n, cos_coef, sin_coef)."""
    terms = tuple((int(m), int(n), float(a), float(b)) for m, n, a, b in terms)
    c0 = float(const)

    def h(p):
        p = np.asarray(p, dtype=float)
        single = p.ndim == 1
        q = p[None, :] if single else p
        v = np.full(q.shape[0], c0)
        for m, n, a, b in terms:
            phase = 2.0 * np.pi * (m * q[:, 0] + n * q[:, 1])
            if a:
                v = v + a * np.cos(phase)
            if b:
                v = v + b * np.sin(phase)
        return float(v[0]) if single else v

    return h


def table_factor(values):
    """Per-state factor on a finite space; Fractions are preserved on scalars.

    The float64 values for array calls are built on the first such call.
    """
    values = tuple(values)
    float_values = None

    def h(x):
        nonlocal float_values
        if np.ndim(x) == 0:
            return values[int(x)]
        if float_values is None:
            float_values = np.asarray([float(v) for v in values])
        return float_values[np.asarray(x, dtype=np.int64)]

    return h


@dataclass(frozen=True)
class ConformalSystem:
    """Invertible map with its inverse and a real factor on a model space.

    Immutable after construction; all operations on it are pure, so instances
    can be shared freely across workers.

    An exact system (finite, with a table of Fractions) also has the integers
    ``scaled_table`` = h * ``scale``, ``scale`` the common denominator of the
    table, which exact consumers work on.  They are derived on first use and
    kept; a table whose integers would exceed ``MAX_SCALED_BITS`` is a
    BudgetError there.  On other systems ``scaled_table`` is the factor table
    itself and ``scale`` is None.
    """

    space: ModelSpace
    forward: object
    backward: object
    factor: object
    label: str = ""
    map_kind: dict = field(default_factory=lambda: {"kind": "generic"})
    perm_table: tuple | None = None
    factor_table: tuple | None = None
    generating_f: object | None = None

    @cached_property
    def exact(self) -> bool:
        """True when orbits and factor values are exact rationals."""
        return (self.space.kind == FINITE and self.perm_table is not None
                and self.factor_table is not None
                and all(isinstance(v, Fraction) for v in self.factor_table))

    @cached_property
    def scale(self) -> int | None:
        """The least common multiple D of an exact table's denominators."""
        if not self.exact:
            return None
        m, D = len(self.factor_table), 1
        for q in {v.denominator for v in self.factor_table}:
            D = math.lcm(D, q)
            if m * D.bit_length() > MAX_SCALED_BITS:
                raise BudgetError(
                    f"exact factor table too large: {m} states over a common denominator "
                    f"of more than {MAX_SCALED_BITS // m} bits (budget {MAX_SCALED_BITS} "
                    "bits); use fewer distinct denominators or float values")
        return D

    @cached_property
    def scaled_table(self) -> tuple | None:
        """The integers h * scale on exact systems, else the factor table."""
        D = self.scale
        if D is None:
            return self.factor_table
        return tuple(v.numerator * (D // v.denominator) for v in self.factor_table)

    @cached_property
    def scaled_bound(self) -> int:
        """max |h * scale| of an exact system."""
        return max(map(abs, self.scaled_table))

    @cached_property
    def scaled_rows(self) -> np.ndarray:
        """``scaled_table`` as the array orbit walks index: int64, or Python
        ints where int64 cannot hold them."""
        return np.array(self.scaled_table, dtype=sum_dtype(self, 1))


def iterate(sys: ConformalSystem, x, n: int, max_iterations: int | None = None):
    """n-th image of x under the system map (backward map for n < 0)."""
    budget = DEFAULT_MAX_ITERATIONS if max_iterations is None else max_iterations
    if abs(n) > budget:
        raise BudgetError(f"|n| = {abs(n)} exceeds iteration budget {budget}")
    y = sys.space.normalize(x)
    step = sys.forward if n >= 0 else sys.backward
    for _ in range(abs(n)):
        y = step(y)
    return y


def step_points(sys: ConformalSystem, pts, inverse: bool = False):
    """One map application on an array of points (vectorized where possible)."""
    mk = sys.map_kind
    kind = mk.get("kind", "generic")
    if kind == "rotation":
        a = mk["angle"]
        return wrap(pts - a) if inverse else wrap(pts + a)
    if kind == "linear2":
        m = np.asarray(mk["inverse"] if inverse else mk["matrix"], dtype=float)
        return wrap(pts @ m.T)
    if kind == "permutation":
        tbl = np.asarray(mk["inverse"] if inverse else mk["table"], dtype=np.int64)
        return tbl[np.asarray(pts, dtype=np.int64)]
    fn = sys.backward if inverse else sys.forward
    out = [fn(p) for p in pts]
    if sys.space.kind == FINITE:
        return np.asarray(out, dtype=np.int64)
    return np.asarray(out, dtype=float)


def eval_factor_like(fn, pts) -> np.ndarray:
    """Evaluate a scalar-or-array function over an array of points, as float64.

    One array call is tried first.  A callable that only takes scalars raises
    TypeError or ValueError on an array (or returns the wrong shape) and is
    then called point by point: on Python numbers for 1-d samples, on rows
    for torus points.  Any other exception propagates.
    """
    pts = np.asarray(pts)
    try:
        v = np.asarray(fn(pts), dtype=float)
        if v.shape == (pts.shape[0],):
            return v
    except (TypeError, ValueError):
        pass
    return np.asarray([float(fn(p)) for p in (pts.tolist() if pts.ndim == 1 else pts)])


def eval_factor(sys: ConformalSystem, pts):
    """Factor values on an array of points, as float64."""
    return eval_factor_like(sys.factor, pts)


def orbit_rows(sys: ConformalSystem, pts, n: int, inverse: bool = False):
    """The orbit engine, one row at a time: yields h(psi^i p) for i < n.

    ``inverse`` walks psi^{-1} instead.  Float systems yield float64 arrays of
    shape (P,); exact finite systems yield the integers h * sys.scale, walked
    on the permutation table (``sys.scaled_rows``).  Every orbit quantity
    (S_n, A_n, f_n, the g orbit tables) is a reduction of these rows, in O(P)
    memory if streamed.
    """
    if sys.exact:
        tbl = np.asarray(sys.perm_table, dtype=np.int64)
        if inverse:
            inv = np.empty_like(tbl)
            inv[tbl] = np.arange(len(tbl))
            tbl = inv
        cur = np.asarray(pts, dtype=np.int64)
        for i in range(n):
            yield sys.scaled_rows[cur]
            if i + 1 < n:
                cur = tbl[cur]
        return
    cur = pts
    for i in range(n):
        yield eval_factor(sys, cur)
        if i + 1 < n:
            cur = step_points(sys, cur, inverse=inverse)


def orbit_array(sys: ConformalSystem, pts, n: int, inverse: bool = False, terms: int = 1):
    """The orbit rows stacked into an (n, P) array, in a dtype that holds
    sums of ``terms`` values (``sum_dtype``): float64, or on exact systems
    the integers h * sys.scale."""
    out = np.empty((n, np.shape(pts)[0]), dtype=sum_dtype(sys, terms))
    for i, row in enumerate(orbit_rows(sys, pts, n, inverse)):
        out[i] = row
    return out


def orbit_factors(sys: ConformalSystem, pts, n: int, inverse: bool = False):
    """The orbit rows stacked: an (n, P) float64 array, or, on exact finite
    systems, n lists of the factor values as Fractions."""
    H = orbit_array(sys, pts, n, inverse)
    if sys.exact:
        return [[Fraction(v, sys.scale) for v in row] for row in H.tolist()]
    return H


def reference_points(sys: ConformalSystem, cap: int = 1024):
    """Default sampling grid used for range estimates (capped for the torus)."""
    space = sys.space
    if space.kind == FINITE:
        return space.sample_points()
    if space.kind == CIRCLE:
        return space.sample_points(min(space.grid_resolution, cap))
    side = min(space.grid_resolution, max(2, int(math.isqrt(cap))))
    return space.sample_points(side)


def factor_range(sys: ConformalSystem, points=None):
    """(min, max) of the factor over sampled points."""
    pts = reference_points(sys) if points is None else sys.space.sample_points(points)
    v = eval_factor(sys, pts)
    if not np.all(np.isfinite(v)):
        raise ValidationError("factor is not finite at sampled points")
    return float(v.min()), float(v.max())


def _validate(sys: ConformalSystem, tol_inverse: float):
    space = sys.space
    pts = reference_points(sys, cap=256)
    back = step_points(sys, step_points(sys, pts), inverse=True)
    if space.kind == FINITE:
        if not np.array_equal(back, pts):
            raise ValidationError("backward is not the inverse of forward")
    else:
        err = np.abs(back - pts)
        err = np.minimum(err, 1.0 - err)  # circle distance
        if err.max() > tol_inverse:
            raise ValidationError(
                f"inverse check failed: max error {err.max():.3e} > {tol_inverse:.1e}"
            )
    vals = eval_factor(sys, pts)
    if not np.all(np.isfinite(vals)):
        raise ValidationError("factor is not finite on the sample grid")
    return sys


def _rotation_angle(angle) -> float:
    """"golden" or a finite real number; anything else is a ValidationError."""
    if angle == "golden":
        return GOLDEN_ANGLE
    if isinstance(angle, numbers.Real) and not isinstance(angle, bool) and math.isfinite(angle):
        return float(angle)
    raise ValidationError(f"rotation angle must be 'golden' or a finite number, got {angle!r}")


def _integer_matrix(matrix) -> list:
    """A 2x2 matrix of integers as lists; floats (int() would truncate them),
    other shapes and other entries are a ValidationError."""
    a = np.array(matrix, dtype=object)
    if a.shape != (2, 2) or not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                                    for v in a.flat):
        raise ValidationError(f"matrix must be a 2x2 matrix of integers, got {matrix!r}")
    return [[int(v) for v in row] for row in a]


def rotation_system(angle, factor, grid_resolution: int = 256, label: str = "",
                    tol_inverse: float = DEFAULT_TOL_INVERSE) -> ConformalSystem:
    """Rigid rotation x -> x + angle mod 1 with the given factor.

    ``factor`` may be a callable, a number (constant factor) or a trig spec
    dict ``{"const":, "cos": [[j, a]...], "sin": [[j, b]...]}``.
    """
    a = _rotation_angle(angle)
    space = ModelSpace(CIRCLE, grid_resolution=grid_resolution)
    h = _factor_callable(space, factor)
    sys = ConformalSystem(
        space=space,
        forward=lambda x: float(wrap(x + a)),
        backward=lambda x: float(wrap(x - a)),
        factor=h,
        label=label or f"rotation(angle={a:.6g})",
        map_kind={"kind": "rotation", "angle": a},
    )
    return _validate(sys, tol_inverse)


def strict_rotation_system(angle, f, grid_resolution: int = 256, label: str = "",
                           tol_inverse: float = DEFAULT_TOL_INVERSE) -> ConformalSystem:
    """Rotation whose factor is the coboundary h = f - f o psi of a supplied f.

    The generating f is retained on the system so that exact telescoping
    bounds (|S_n| <= max f - min f) are available to consumers.
    """
    a = _rotation_angle(angle)
    space = ModelSpace(CIRCLE, grid_resolution=grid_resolution)
    fc = _factor_callable(space, f)

    def h(x):
        return fc(x) - fc(wrap(np.asarray(x, dtype=float) + a))

    sys = ConformalSystem(
        space=space,
        forward=lambda x: float(wrap(x + a)),
        backward=lambda x: float(wrap(x - a)),
        factor=h,
        label=label or f"strict rotation(angle={a:.6g})",
        map_kind={"kind": "rotation", "angle": a},
        generating_f=fc,
    )
    return _validate(sys, tol_inverse)


def cat_map_system(factor, matrix=((2, 1), (1, 1)), grid_resolution: int = 64,
                   label: str = "", tol_inverse: float = DEFAULT_TOL_INVERSE) -> ConformalSystem:
    """Linear toral automorphism given by an integer matrix of determinant +-1.

    The backward map uses the exact integer inverse matrix, so inverses carry
    no rounding error beyond the mod-1 reduction.
    """
    m = _integer_matrix(matrix)
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det not in (1, -1):
        raise ValidationError(f"matrix determinant must be +-1, got {det}")
    inv = [[det * m[1][1], -det * m[0][1]], [-det * m[1][0], det * m[0][0]]]
    space = ModelSpace(TORUS2, grid_resolution=grid_resolution)
    h = _factor_callable(space, factor)
    ma = np.asarray(m, dtype=float)
    ia = np.asarray(inv, dtype=float)
    sys = ConformalSystem(
        space=space,
        forward=lambda p: wrap(ma @ np.asarray(p, dtype=float)),
        backward=lambda p: wrap(ia @ np.asarray(p, dtype=float)),
        factor=h,
        label=label or "toral automorphism",
        map_kind={"kind": "linear2", "matrix": tuple(map(tuple, m)),
                  "inverse": tuple(map(tuple, inv))},
    )
    return _validate(sys, tol_inverse)


def finite_permutation_system(table, factor_values, label: str = "") -> ConformalSystem:
    """Permutation of m states with a per-state factor table.

    Integer, Fraction and "p/q" factor entries give exact rational arithmetic
    throughout; floats fall back to float arithmetic.
    """
    tbl = tuple(int(v) for v in table)
    m = len(tbl)
    if m < 1:
        raise ValidationError("permutation table is empty")
    if sorted(tbl) != list(range(m)):
        raise ValidationError(f"table {list(tbl)} is not a bijection on {m} states")
    if len(tuple(factor_values)) != m:
        raise ValidationError("factor table length does not match state count")
    rationals = [as_rational(v) for v in factor_values]
    if all(r is not None for r in rationals):
        vals = tuple(rationals)
    else:
        vals = tuple(float(v) for v in factor_values)
    inv = [0] * m
    for i, j in enumerate(tbl):
        inv[j] = i
    inv = tuple(inv)
    space = ModelSpace(FINITE, size=m)
    sys = ConformalSystem(
        space=space,
        forward=lambda x: tbl[int(x)],
        backward=lambda x: inv[int(x)],
        factor=table_factor(vals),
        label=label or f"permutation on {m} states",
        map_kind={"kind": "permutation", "table": tbl, "inverse": inv},
        perm_table=tbl,
        factor_table=vals,
    )
    return sys


def _factor_callable(space: ModelSpace, spec):
    if callable(spec):
        return spec
    if isinstance(spec, numbers.Number):
        return constant_factor(spec, space.kind)
    if isinstance(spec, dict):
        kind = spec.get("type", "constant")
        required = {"trig": CIRCLE, "trig2": TORUS2, "table": FINITE}
        if kind not in required and kind != "constant":
            raise ValidationError(f"unknown factor type {kind!r}")
        if kind in required and space.kind != required[kind]:
            raise ValidationError(f"{kind} factor requires a {required[kind]} space")
        if kind == "table" and "values" not in spec:
            raise ValidationError("table factor misses 'values'")
        try:  # the builders only parse the spec's numbers here
            if kind == "trig":
                return trig_factor(spec.get("const", 0.0), spec.get("cos", ()),
                                   spec.get("sin", ()))
            if kind == "trig2":
                return trig2_factor(spec.get("const", 0.0), spec.get("terms", ()))
            if kind == "table":
                return table_factor(spec["values"])
            return constant_factor(spec.get("value", 0.0), space.kind)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed {kind} factor {spec!r}: {exc}") from None
    if isinstance(spec, (list, tuple)) and space.kind == FINITE:
        return table_factor(spec)
    raise ValidationError(f"cannot interpret factor spec {spec!r}")


BUILTIN_NAMES = ("rotation", "cat_map", "finite_permutation", "strict_rotation")


def builtin_system(name: str, params: dict) -> ConformalSystem:
    """Construct one of the named preset systems from a parameter record."""
    params = dict(params)
    if name == "rotation":
        return rotation_system(
            params.get("angle", 0.0),
            params.get("factor", 0.0),
            grid_resolution=params.get("grid_resolution", 256),
            label=params.get("label", ""),
        )
    if name == "strict_rotation":
        if "f" not in params:
            raise ValidationError("strict_rotation needs the generating function 'f'")
        return strict_rotation_system(
            params.get("angle", 0.0),
            params["f"],
            grid_resolution=params.get("grid_resolution", 256),
            label=params.get("label", ""),
        )
    if name == "cat_map":
        return cat_map_system(
            params.get("factor", 0.0),
            matrix=params.get("matrix", ((2, 1), (1, 1))),
            grid_resolution=params.get("grid_resolution", 64),
            label=params.get("label", ""),
        )
    if name == "finite_permutation":
        if "table" not in params:
            raise ValidationError("finite_permutation needs a 'table'")
        return finite_permutation_system(
            params["table"],
            params.get("factor", params.get("h", [0] * len(params["table"]))),
            label=params.get("label", ""),
        )
    raise ValidationError(f"unknown builtin system {name!r}; pick one of {BUILTIN_NAMES}")


def negated_system(sys: ConformalSystem) -> ConformalSystem:
    """Same dynamics with factor -h (used by the max-min / min-max duality)."""
    if sys.factor_table is not None:
        vals = tuple(-v for v in sys.factor_table)
        return replace(sys, factor=table_factor(vals), factor_table=vals,
                       generating_f=None, label=f"negated {sys.label}")

    base = sys.factor

    def h(x):
        return -np.asarray(base(x)) if np.ndim(x) else -base(x)

    return replace(sys, factor=h, generating_f=None, label=f"negated {sys.label}")
