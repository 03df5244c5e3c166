"""Model spaces and conformal discrete-time dynamical systems.

A ConformalSystem packages an invertible map psi on a model space (unit
circle, unit 2-torus, or a finite state set) together with a real factor h.
Everything computed elsewhere in this package is a function of the pair
(psi, h) alone.  psi is data, the ``map_kind`` record, which ``step_points``
alone applies (a lone point as a batch of one): no per-point map closures.
h is the factor record, which ``eval_factor`` alone evaluates; an opaque
callable is evaluated point by point only if it rejects arrays.

Circle and torus coordinates live in [0, 1) and are reduced mod 1 after every
map application, so long orbits cannot drift.  Finite systems whose factor
table is rational are evaluated in exact arithmetic: on the integers h * D, D
the common denominator of the table, with Fractions only at the boundary.
Every rational table is held as integer numerators and denominators (a
``RationalTable``; a table of "p/q" strings is parsed straight into them),
whose Fractions are built only when a caller reads them, and exact CSV cells
are formatted from integers (``ratio_strings``).  ``int_dtype`` alone decides
whether such integers are int64 or Python ints.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace
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


def int_dtype(bound: int, terms: int):
    """dtype of integers of magnitude at most bound * terms (a sum of ``terms``
    values each at most ``bound``): int64 when that is below 2^63, else
    object (Python ints, which never overflow)."""
    return np.int64 if bound * terms < 2**63 else object


def sum_dtype(sys: ConformalSystem, terms: int):
    """dtype of a running sum of ``terms`` orbit values of ``sys``: float64 on
    float systems; on exact systems ``int_dtype`` of the integers h * scale."""
    return int_dtype(sys.scaled_bound, terms) if sys.exact else float


def integer_array(values) -> np.ndarray:
    """Integers as an int64 array, or as an object array of Python ints where
    int64 cannot hold them."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def _int64_bound(a: np.ndarray) -> int:
    """max |a| of an integer array, as a Python int (no int64 overflow)."""
    return max(-int(a.min()), int(a.max())) if a.size else 0


_GCD = np.frompyfunc(math.gcd, 2, 1)


def _lowest_terms(numerators, denominators):
    """(a / g, q / g), g = gcd(a, q), for integers a and q > 0 broadcast
    together: np.gcd where int64 holds both, Python ints where it does not."""
    a, q = np.broadcast_arrays(integer_array(numerators), integer_array(denominators))
    if a.dtype == q.dtype == np.int64 and _int64_bound(a) < 2**63:
        g = np.gcd(a, q)
    else:
        a, q = a.astype(object), q.astype(object)
        g = _GCD(a, q)
    return a // g, q // g


def ratio_strings(numerators, denominators) -> list:
    """str(Fraction(a, q)) for integers a and q > 0 broadcast together, in C
    order, without building the Fractions: "a/q" in lowest terms, "a" when
    the reduced q is 1."""
    a, q = _lowest_terms(numerators, denominators)
    return [str(x) if d == 1 else f"{x}/{d}" for x, d in zip(a.ravel().tolist(),
                                                            q.ravel().tolist())]


def scaled_floats(ints, denominators) -> np.ndarray:
    """Integers over positive denominators (broadcast together) as float64,
    each rounded as float(Fraction(i, d)) is: correctly.  Integers below 2^53
    are exact floats, so one float division rounds correctly; larger ones
    divide as Python ints."""
    a, q = np.asarray(ints), integer_array(denominators)
    if (a.dtype == q.dtype == np.int64
            and max(_int64_bound(a), _int64_bound(q)) < 2**53):
        return a / q
    a, q = np.broadcast_arrays(a, q)
    return np.array([i / d for i, d in zip(a.ravel().tolist(), q.ravel().tolist())],
                    dtype=float).reshape(a.shape)


class RationalTable(Sequence):
    """Exact values held as integer arrays, numerators over positive
    denominators in lowest terms (int64, or Python ints where int64 cannot
    hold them), read as a tuple of Fractions that is built on first access
    and kept.  ``strings`` and ``floats`` read the integers only.  It is the
    one form of an exact factor table: a finite system is exact when its
    table is a RationalTable."""

    def __init__(self, numerators, denominators):
        self.numerators, self.denominators = _lowest_terms(numerators, denominators)
        self._fractions = None

    @property
    def fractions(self) -> tuple:
        if self._fractions is None:
            self._fractions = tuple(map(Fraction, self.numerators.tolist(),
                                        self.denominators.tolist()))
        return self._fractions

    def __len__(self):
        return len(self.numerators)

    def __getitem__(self, i):
        return self.fractions[i]

    def __iter__(self):
        return iter(self.fractions)

    def __eq__(self, other):
        if isinstance(other, Sequence) and not isinstance(other, str):
            return self.fractions == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.fractions)

    def __repr__(self):
        return f"RationalTable({list(self.fractions)!r})"

    def strings(self) -> list:
        """str of every value, as ``ratio_strings`` gives it."""
        return ratio_strings(self.numerators, self.denominators)

    def floats(self) -> np.ndarray:
        """Every value as float64, rounded as float(Fraction) rounds."""
        return scaled_floats(self.numerators, self.denominators)


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
        if isinstance(spec, np.ndarray) and spec.dtype.kind == "f" and self.kind != FINITE:
            # an already-sampled float batch: one vectorized wrap; a batch of
            # the wrong shape or with a non-finite entry goes point by point,
            # which raises normalize's DomainError
            shape_ok = spec.ndim == 1 if self.kind == CIRCLE else (
                spec.ndim == 2 and spec.shape[1] == 2)
            if shape_ok and np.isfinite(spec).all():
                return wrap(np.asarray(spec, dtype=float))
        pts = [self.normalize(p) for p in spec]
        if self.kind == FINITE:
            return np.asarray(pts, dtype=np.int64)
        return np.asarray(pts, dtype=float)


def point_batch(space: ModelSpace, x):
    """(points, single): x as a normalized batch; a lone point is a batch of one."""
    single = np.ndim(x) == (1 if space.kind == TORUS2 else 0)
    raw = np.asarray([x] if single else x)
    if space.kind == FINITE:
        pts = raw.astype(np.int64)
        if raw.ndim != 1 or np.any(pts != raw) or np.any((pts < 0) | (pts >= space.size)):
            raise DomainError(f"not a batch of states in range(0, {space.size})")
        return pts, single
    shape_ok = raw.ndim == 2 and raw.shape[1] == 2 if space.kind == TORUS2 else raw.ndim == 1
    if not shape_ok or not np.all(np.isfinite(raw)):
        raise DomainError(f"not a batch of finite {space.kind} points")
    return wrap(raw.astype(float)), single


@dataclass(frozen=True)
class ConformalSystem:
    """Invertible map psi with a real factor h on a model space.

    psi is the ``map_kind`` record alone, which ``step_points`` reads: a
    rotation angle, an integer 2x2 matrix and its inverse, or (on every
    finite space) a permutation table and its inverse as read-only int64
    arrays.  There are no per-point map closures.

    h is the factor record: ``trig`` (circle), ``trig2`` (torus), ``table``
    (finite) or ``coboundary`` (base + f - f o psi of a record f; base 0 when
    absent); a constant is a trig record with no terms.  An opaque callable
    is evaluated point by point only if it rejects arrays.

    Immutable after construction; all operations on it are pure, so instances
    can be shared freely across workers.

    An exact system (finite, with a ``RationalTable`` as its factor table)
    also has the integers ``scaled_table`` = h * ``scale``, ``scale`` the
    common denominator of the table: the array every exact consumer reads.
    They are derived on first use and kept; a table whose integers would
    exceed ``MAX_SCALED_BITS`` is a BudgetError there.  On a float table
    ``scaled_table`` is its float64 values and ``scale`` is None.
    """

    space: ModelSpace
    factor: object
    map_kind: dict
    label: str = ""

    @property
    def perm_table(self) -> np.ndarray | None:
        """A permutation's table psi(i) (a read-only int64 array), else None."""
        return self.map_kind["table"] if self.map_kind["kind"] == "permutation" else None

    @property
    def factor_table(self) -> Sequence | None:
        """A table record's values (a ``RationalTable`` when exact, else a
        tuple of floats), else None."""
        return self.factor["values"] if _record_type(self.factor) == "table" else None

    @property
    def generating_f(self):
        """f of a stored coboundary h = f - f o psi (a coboundary record with
        no base), whose walks telescope, else None."""
        h = self.factor
        return h["f"] if _record_type(h) == "coboundary" and h.get("base") is None else None

    @cached_property
    def _table_floats(self) -> np.ndarray:
        """The factor table as float64 (a ``RationalTable``'s from its integers)."""
        t = self.factor_table
        return t.floats() if isinstance(t, RationalTable) else np.asarray(t, dtype=float)

    @cached_property
    def exact(self) -> bool:
        """True when orbits and factor values are exact rationals: a finite
        system whose factor table is a ``RationalTable``."""
        return self.space.kind == FINITE and isinstance(self.factor_table, RationalTable)

    @cached_property
    def scale(self) -> int | None:
        """The least common multiple D of an exact table's denominators."""
        if not self.exact:
            return None
        m, D = len(self.factor_table), 1
        for q in np.unique(self.factor_table.denominators).tolist():
            D = math.lcm(D, q)
            if m * D.bit_length() > MAX_SCALED_BITS:
                raise BudgetError(
                    f"exact factor table too large: {m} states over a common denominator "
                    f"of more than {MAX_SCALED_BITS // m} bits (budget {MAX_SCALED_BITS} "
                    "bits); use fewer distinct denominators or float values")
        return D

    @cached_property
    def scaled_table(self) -> np.ndarray | None:
        """The table's values as the array that orbit walks and cycle
        consumers index: on exact systems the integers h * scale (int64, or
        Python ints where ``int_dtype`` says int64 cannot hold them), on a
        float table its float64 values, else None."""
        if not self.exact:
            return None if self.factor_table is None else self._table_floats
        D, num, den = self.scale, self.factor_table.numerators, self.factor_table.denominators
        if num.dtype == np.int64 and D < 2**63:
            mult = D // den
            if int_dtype(_int64_bound(num), _int64_bound(mult)) is np.int64:
                return num * mult
        ints = num.astype(object) * (D // den.astype(object))
        return ints.astype(int_dtype(_int64_bound(ints), 1))

    @cached_property
    def scaled_bound(self) -> int:
        """max |h * scale| of an exact system."""
        return _int64_bound(self.scaled_table)


def iterate(sys: ConformalSystem, x, n: int, max_iterations: int | None = None):
    """n-th image of x under the system map (inverse map for n < 0), stepped
    as a batch of one point by ``step_points``."""
    budget = DEFAULT_MAX_ITERATIONS if max_iterations is None else max_iterations
    if abs(n) > budget:
        raise BudgetError(f"|n| = {abs(n)} exceeds iteration budget {budget}")
    pts = np.asarray(sys.space.normalize(x))[None]  # a batch of one point
    for _ in range(abs(n)):
        pts = step_points(sys, pts, inverse=n < 0)
    kind = sys.space.kind
    return int(pts[0]) if kind == FINITE else float(pts[0]) if kind == CIRCLE else pts[0]


def step_points(sys: ConformalSystem, pts, inverse: bool = False):
    """One map application on an array of points, as ``sys.map_kind`` gives
    psi (psi^{-1} with ``inverse``)."""
    mk = sys.map_kind
    if mk["kind"] == "rotation":
        a = mk["angle"]
        return wrap(np.asarray(pts, dtype=float) + (-a if inverse else a))
    if mk["kind"] == "linear2":
        m = np.asarray(mk["inverse"] if inverse else mk["matrix"], dtype=float)
        return wrap(pts @ m.T)
    return (mk["inverse"] if inverse else mk["table"])[np.asarray(pts, dtype=np.int64)]


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
    return _evaluate(sys, sys.factor, pts)


def _record_type(h):
    """The type of a factor record; None for an opaque callable."""
    return h["type"] if isinstance(h, dict) else None


def _evaluate(sys: ConformalSystem, h, pts) -> np.ndarray:
    """The factor record h (or an opaque callable) of ``sys`` on an array of
    points, as float64.  A table record is the system's own factor."""
    kind = _record_type(h)
    if kind is None:
        return eval_factor_like(h, pts)
    if kind == "table":
        return sys._table_floats[np.asarray(pts, dtype=np.int64)]
    if kind == "coboundary":
        v = _evaluate(sys, h["f"], pts) - _evaluate(sys, h["f"], step_points(sys, pts))
        return v if h.get("base") is None else _evaluate(sys, h["base"], pts) + v
    x = np.asarray(pts, dtype=float)
    v = np.full(x.shape[0], h["const"])
    if kind == "trig":
        for j, a in h["cos"]:
            v = v + a * np.cos(2.0 * np.pi * j * x)
        for j, b in h["sin"]:
            v = v + b * np.sin(2.0 * np.pi * j * x)
        return v
    for m, n, a, b in h["terms"]:
        phase = 2.0 * np.pi * (m * x[:, 0] + n * x[:, 1])
        if a:
            v = v + a * np.cos(phase)
        if b:
            v = v + b * np.sin(phase)
    return v


def generating_span(sys: ConformalSystem, pts) -> float | None:
    """max f - min f over the points for a stored coboundary h = f - f o psi
    (``sys.generating_f``), which bounds every |S_n| there, else None."""
    f = sys.generating_f
    if f is None:
        return None
    v = _evaluate(sys, f, pts)
    return float(v.max() - v.min())


def orbit_rows(sys: ConformalSystem, pts, n: int, inverse: bool = False):
    """The orbit engine, one row at a time: yields h(psi^i p) for i < n.

    ``inverse`` walks psi^{-1} instead.  Float systems yield float64 arrays of
    shape (P,); exact finite systems yield the integers h * sys.scale
    (``sys.scaled_table``).  Both are stepped by ``step_points``.  Every orbit
    quantity (S_n, A_n, f_n, the g orbit tables) is a reduction of these
    rows, in O(P) memory if streamed.

    A forward float walk of a system with a stored coboundary h = f - f o psi
    (``sys.generating_f``) evaluates F_i = f(psi^i p) once per cell and yields
    F_i - F_{i+1}, which is h(psi^i p) bit for bit: h steps its argument with
    the same ``step_points`` that gives the next row's points.  An inverse
    walk evaluates h, because psi(psi^{-j} p) need not be psi^{-j+1} p to the
    last bit.
    """
    cur = np.asarray(pts, dtype=np.int64) if sys.exact else pts
    f = sys.generating_f
    if f is not None and not inverse and n > 0:
        F = _evaluate(sys, f, cur)
        for _ in range(n):
            cur = step_points(sys, cur)
            nxt = _evaluate(sys, f, cur)
            yield F - nxt
            F = nxt
        return
    for i in range(n):
        yield sys.scaled_table[cur] if sys.exact else eval_factor(sys, cur)
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
    """Check a continuous system's inverse map and factor on the reference grid."""
    pts = reference_points(sys, cap=256)
    back = step_points(sys, step_points(sys, pts), inverse=True)
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
    if _is_real(angle) and math.isfinite(angle):
        return float(angle)
    raise ValidationError(f"rotation angle must be 'golden' or a finite number, got {angle!r}")


def _integer_matrix(matrix) -> list:
    """A 2x2 matrix of integers as lists; floats (int() would truncate them),
    other shapes and other entries are a ValidationError."""
    a = np.array(matrix, dtype=object)
    if a.shape != (2, 2) or not all(map(_is_integer, a.flat)):
        raise ValidationError(f"matrix must be a 2x2 matrix of integers, got {matrix!r}")
    return [[int(v) for v in row] for row in a]


def rotation_system(angle, factor, grid_resolution: int = 256, label: str = "",
                    tol_inverse: float = DEFAULT_TOL_INVERSE) -> ConformalSystem:
    """Rigid rotation x -> x + angle mod 1 with the given factor.

    ``factor`` may be a callable, a number (constant factor), a trig spec
    dict ``{"const":, "cos": [[j, a]...], "sin": [[j, b]...]}`` or a
    coboundary spec ``{"type": "coboundary", "f": spec}``.
    """
    a = _rotation_angle(angle)
    space = ModelSpace(CIRCLE, grid_resolution=grid_resolution)
    sys = ConformalSystem(
        space=space,
        factor=_factor_record(space, factor),
        label=label or f"rotation(angle={a:.6g})",
        map_kind={"kind": "rotation", "angle": a},
    )
    return _validate(sys, tol_inverse)


def strict_rotation_system(angle, f, grid_resolution: int = 256, label: str = "",
                           tol_inverse: float = DEFAULT_TOL_INVERSE) -> ConformalSystem:
    """Rotation whose factor is the stored coboundary h = f - f o psi of a
    supplied f (``generating_f``), with telescoping bounds |S_n| <= max f - min f."""
    return rotation_system(angle, {"type": "coboundary", "f": f}, grid_resolution, label,
                           tol_inverse)


def cat_map_system(factor, matrix=((2, 1), (1, 1)), grid_resolution: int = 64,
                   label: str = "", tol_inverse: float = DEFAULT_TOL_INVERSE) -> ConformalSystem:
    """Linear toral automorphism given by an integer matrix of determinant +-1.

    The inverse map uses the exact integer inverse matrix, so inverses carry
    no rounding error beyond the mod-1 reduction.
    """
    m = _integer_matrix(matrix)
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det not in (1, -1):
        raise ValidationError(f"matrix determinant must be +-1, got {det}")
    inv = [[det * m[1][1], -det * m[0][1]], [-det * m[1][0], det * m[0][0]]]
    space = ModelSpace(TORUS2, grid_resolution=grid_resolution)
    sys = ConformalSystem(
        space=space,
        factor=_factor_record(space, factor),
        label=label or "toral automorphism",
        map_kind={"kind": "linear2", "matrix": tuple(map(tuple, m)),
                  "inverse": tuple(map(tuple, inv))},
    )
    return _validate(sys, tol_inverse)


def finite_permutation_system(table, factor_values, label: str = "") -> ConformalSystem:
    """Permutation of m states with a per-state factor table.

    Integer, Fraction and "p/q" factor entries give exact rational arithmetic
    throughout; a table with a float entry falls back to float arithmetic.
    """
    tbl = tuple(map(int, table))
    m = len(tbl)
    if m < 1:
        raise ValidationError("permutation table is empty")
    inv = np.full(m, -1, dtype=np.int64)
    if 0 <= min(tbl) and max(tbl) < m:
        fwd = np.array(tbl, dtype=np.int64)
        inv[fwd] = np.arange(m)
    if inv.min() < 0:
        raise ValidationError(f"table {list(tbl)} is not a bijection on {m} states")
    fwd.flags.writeable = inv.flags.writeable = False
    values = list(factor_values)
    if len(values) != m:
        raise ValidationError("factor table length does not match state count")
    vals = _factor_table(values)
    return ConformalSystem(
        space=ModelSpace(FINITE, size=m),
        factor={"type": "table", "values": vals},
        label=label or f"permutation on {m} states",
        map_kind={"kind": "permutation", "table": fwd, "inverse": inv},
    )


def coboundary_system(sys: ConformalSystem, f) -> ConformalSystem:
    """The system with factor h + f - f o psi (same dynamics), the shifts
    that give every conformal factor of one contactomorphism.  A finite table
    gives a table (exact where h and every f(i) are); elsewhere f is a factor
    spec, and the record a coboundary of f with base h."""
    label = f"{sys.label} + coboundary"
    h = sys.factor_table
    if h is not None:
        fv, tbl = [f(i) for i in range(len(h))], sys.perm_table.tolist()
        vals = [h[i] + fv[i] - fv[tbl[i]] for i in range(len(h))]
        return replace(sys, factor={"type": "table", "values": _factor_table(vals)}, label=label)
    return replace(sys, label=label, factor={"type": "coboundary", "base": sys.factor,
                                             "f": _factor_record(sys.space, f)})


#: a comma whose entry is not "[-]digits/digits" with at most 18 digits a side
#: (which int64 holds); a lookahead, not a repeated group, so that the check
#: keeps no state per entry
_NOT_INT64_RATIO = re.compile(r",(?!-?[0-9]{1,18}/[0-9]{1,18}(?:,|\Z))")


def _factor_table(values: list):
    """A finite factor table: a ``RationalTable`` when every entry is
    rational (see ``as_rational``), else a tuple of floats.

    A table of "p/q" strings that int64 holds is parsed in one pass: one
    regex check over the joined strings and one integer parse.  Any other
    table goes entry by entry through ``as_rational``.  An entry that is
    neither rational nor a real number (a boolean counts as neither), a
    string in a table with a float entry, and a non-finite float are each a
    ValidationError that names the entry's index.
    """
    if set(map(type, values)) == {str}:
        joined = "," + ",".join(values)
        if joined.count(",") == len(values) and not _NOT_INT64_RATIO.search(joined):
            ints = np.fromstring(joined[1:].replace("/", ","), dtype=np.int64, sep=",")
            num, den = ints[0::2], ints[1::2]
            zero = np.flatnonzero(den == 0)
            if zero.size:
                raise _entry_error(values, int(zero[0]))
            return RationalTable(num, den)
    rationals = [as_rational(v) for v in values]
    if all(r is not None for r in rationals):
        return RationalTable([r.numerator for r in rationals],
                             [r.denominator for r in rationals])
    for i, (v, r) in enumerate(zip(values, rationals)):
        if r is None and not _is_real(v):
            raise _entry_error(values, i)
    floats = rationals.index(None)  # the first float entry
    for i, v in enumerate(values):
        if not _is_real(v):
            raise ValidationError(
                f"factor values[{i}] = {v!r} is a string, but values[{floats}] = "
                f"{values[floats]!r} makes the table float, which takes numbers only")
    out = []
    for i, v in enumerate(values):
        try:
            out.append(float(v))
        except OverflowError:
            out.append(math.inf)
        if not math.isfinite(out[-1]):
            raise ValidationError(f"factor values[{i}] = {v!r} is not a finite number")
    return tuple(out)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _entry_error(values, i) -> ValidationError:
    return ValidationError(f"factor values[{i}] = {values[i]!r} is neither a number "
                           "nor a rational such as 3, '-3/4' or '1.5'")


def _factor_record(space: ModelSpace, spec):
    """The factor record of a system on ``space`` from its spec: a callable
    as it is; a real number or a ``constant`` spec {"value":} as a ``trig``
    (circle) or ``trig2`` (torus) record with no terms; a ``coboundary`` spec
    {"f":} with the record of its f.  Frequencies are integers, and
    coefficients, ``const`` and ``value`` real numbers, neither booleans nor
    strings; anything else is a ValidationError that names the spec."""
    if callable(spec):
        return spec
    if _is_real(spec):
        spec = {"value": spec}
    if not isinstance(spec, dict) or space.kind == FINITE:
        raise ValidationError(f"cannot interpret factor spec {spec!r} on a {space.kind} space")
    kind = spec.get("type", "constant")
    if kind == "coboundary":
        if "f" not in spec:
            raise ValidationError(f"coboundary factor {spec!r} misses 'f'")
        return {"type": "coboundary", "f": _factor_record(space, spec["f"])}
    trig = "trig" if space.kind == CIRCLE else "trig2"
    if kind not in ("constant", trig):
        raise ValidationError(f"factor type {kind!r} is none of 'constant', {trig!r} and "
                              f"'coboundary', the factor types of a {space.kind} space")
    const = spec.get("value" if kind == "constant" else "const", 0.0)
    if not _is_real(const):
        raise ValidationError(f"malformed {kind} factor {spec!r}: the constant term "
                              f"{const!r} is not a real number")

    def terms(key, ints):  # rows of ``ints`` integer frequencies, as many coefficients
        rows = () if kind == "constant" else spec.get(key, ())
        if not (isinstance(rows, (list, tuple)) and all(
                isinstance(r, (list, tuple)) and len(r) == 2 * ints
                and all(map(_is_integer, r[:ints])) and all(map(_is_real, r[ints:]))
                for r in rows)):
            raise ValidationError(f"malformed {kind} factor {spec!r}: {key} must be rows of "
                                  f"{ints} integer frequencies and {ints} real coefficients")
        return tuple((*map(int, r[:ints]), *map(float, r[ints:])) for r in rows)

    if trig == "trig":
        return {"type": trig, "const": float(const), "cos": terms("cos", 1),
                "sin": terms("sin", 1)}
    return {"type": trig, "const": float(const), "terms": terms("terms", 2)}
