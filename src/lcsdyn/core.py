"""Model spaces and conformal discrete-time dynamical systems.

A ConformalSystem packages an invertible map psi on a model space (unit
circle, unit 2-torus, or a finite state set) together with a real factor h.
Everything computed elsewhere in this package is a function of the pair
(psi, h) alone.  psi is data, the ``map_kind`` record, which ``step_points``
alone applies (a lone point as a batch of one): no per-point map closures.
h is the factor record, which ``eval_factor`` alone evaluates at points; an
opaque callable is evaluated point by point only if it rejects arrays.  On
a rotation the orbit engine (``orbit_blocks``) forms the rows of a ``trig``
record by angle addition from exact phases, without stepping points.

Circle and torus coordinates live in [0, 1) and are reduced mod 1 after every
map application, so long orbits cannot drift.  Finite systems whose factor
table is rational are evaluated in exact arithmetic: on the integers h * D, D
the common denominator of the table, with Fractions only at the boundary.
Every rational table is held as integer numerators and denominators (a
``RationalTable``; a table of "p/q" strings is parsed straight into them),
whose Fractions are built only when a caller reads them.  Exact CSV cells
are written from the integers as NUL-padded byte blocks (``decimal_bytes``),
float cells as reprs formatted once per distinct value (``float_cells``),
and ``write_csv``, the one writer of every CSV artifact, ends every row.
``int_dtype`` alone decides whether such integers are int64 or Python ints.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property, reduce
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


def decimal_bytes(ints) -> np.ndarray:
    """The decimal text of every integer, in C order, as an (N, w) uint8 block
    whose row i is str(ints[i]) right-aligned with NUL padding (a column of
    cells is one array; ``join_rows`` drops the NULs).  int64 integers are
    written one divmod pass per digit; Python ints, and -2^63, whose abs
    overflows int64, through str."""
    a = np.asarray(ints).ravel()
    if a.dtype != np.int64 or (a.size and a.min() == np.iinfo(np.int64).min):
        text = [str(v) for v in a.tolist()]
        w = max(map(len, text), default=1)
        cells = np.array([t.rjust(w, "\0") for t in text], dtype=bytes)
        return cells.view(np.uint8).reshape(-1, w)
    neg = np.flatnonzero(a < 0)
    w = len(str(_int64_bound(a))) + (neg.size > 0)  # digits and a sign column
    digits, rest = np.empty((w, a.size), dtype=np.uint8), np.abs(a)  # digit-major
    first = np.full(a.size, w - 1)  # column of the first significant digit
    for j in range(w - 1, -1, -1):
        rest, digits[j] = np.divmod(rest, 10)
        first -= rest != 0
    digits += ord("0")
    digits[np.arange(w)[:, None] < first] = 0
    digits[first[neg] - 1, neg] = ord("-")
    return digits.T


def fraction_bytes(numerators, denominators) -> np.ndarray:
    """``decimal_bytes`` of a / q for integers in lowest terms, q > 0 (broadcast
    together): "a" where q == 1, else "a/q", as str(Fraction(a, q)) writes."""
    a, q = np.broadcast_arrays(numerators, denominators)
    den = np.hstack([np.full((q.size, 1), ord("/"), dtype=np.uint8), decimal_bytes(q)])
    den[(q == 1).ravel()] = 0
    return np.hstack([decimal_bytes(a), den])


def float_cells(values) -> np.ndarray:
    """The CSV cells of floats, in C order, a column for ``write_csv``: one
    bytes string per value, its repr.  repr is called once per distinct bit
    pattern (so -0.0 and 0.0 stay apart) and its cell gathered back to every
    value that has it."""
    bits = np.ascontiguousarray(values, dtype=float).ravel().view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    return np.array(list(map(repr, keys.view(float).tolist())), dtype=bytes)[inverse]


def point_cells(space, points) -> np.ndarray:
    """The CSV cells of a batch of points, a column for ``write_csv``: a finite
    state as its decimal (``decimal_bytes``), else one bytes string per point,
    a circle point's ``float_cells`` cell or a torus point's coordinates'
    cells joined by ":"."""
    if space.kind == FINITE:
        return decimal_bytes(points)
    columns = map(float_cells, np.asarray(points, dtype=float).reshape(len(points), -1).T)
    return reduce(lambda a, b: np.char.add(np.char.add(a, b":"), b), columns)


def join_rows(fields) -> bytes:
    """CSV rows of equal-length cell blocks: "," between fields, "\r\n" ending
    each row as ``csv.writer`` ends it, every NUL dropped (no cell is quoted)."""
    n = len(fields[0])
    comma, eol = (np.full((n, len(c)), list(c), dtype=np.uint8) for c in (b",", b"\r\n"))
    parts = [part for field in fields for part in (comma, field)][1:]
    return np.hstack(parts + [eol]).tobytes().translate(None, b"\0")


def write_csv(path, header: str, blocks):
    """Write a CSV artifact: the header, then each block of rows through
    ``join_rows`` (rows end in "\r\n").  A block is a list of columns of one
    length N, a column an (N, w) uint8 cell block (``decimal_bytes``) or N
    ASCII strings; ``blocks`` may be a generator, read a block at a time."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for block in blocks:  # strings become NUL-padded blocks; "" is an empty cell
            block = [c if isinstance(c, np.ndarray) and c.dtype == np.uint8
                     else np.array(c, dtype=bytes).reshape(-1, 1).view(np.uint8) for c in block]
            fh.write(join_rows(block))
            del block  # so that the next block is formed without this one


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
    and kept.  ``floats`` and the CSV writers read the integers only.  It is
    the one form of an exact factor table: a finite system is exact when its
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
            if not _is_integer(self.size) or self.size < 1:
                raise ValidationError("finite space size must be an integer >= 1, "
                                      f"got {self.size!r}")
        elif not _is_integer(self.grid_resolution) or self.grid_resolution < 2:
            raise ValidationError("grid_resolution must be an integer >= 2 for continuous "
                                  f"kinds, got {self.grid_resolution!r}")

    def sample_points(self, spec=None):
        """Sample points: default uniform grid, an int grid size, explicit
        points, or {"grid": n, "seeds": [...]} for a grid plus seed points.

        Returns an array of shape (P,) for circle/finite and (P, 2) for the
        torus.  Explicit points are a batch, normalized by ``point_batch``;
        an empty batch, like an int size below 1, is a ValidationError.
        """
        if spec is None:
            spec = self.size if self.kind == FINITE else self.grid_resolution
        if isinstance(spec, dict):
            grid, seeds = self.sample_points(spec.get("grid")), spec.get("seeds", ())
            return np.concatenate([grid, self.sample_points(seeds)]) if len(seeds) else grid
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
        pts, single = point_batch(self, spec)
        if single:
            raise DomainError(f"explicit {self.kind} points must be a list, got {spec!r}")
        if len(pts) == 0:
            raise ValidationError("empty sample")
        return pts


def point_batch(space: ModelSpace, x):
    """(points, single): x as a normalized batch; a lone point is a batch of one.

    Entries are real numbers, not strings or booleans, and a state is an
    integer in range.  NumPy reads [0.1, True] as [0.1, 1.0], so an x that is
    not a numeric array is read as objects, each entry type checked once.
    """
    numeric = isinstance(x, np.ndarray) and x.dtype.kind in "iuf"
    raw = x if numeric else np.asarray(x, dtype=object)
    if space.kind == TORUS2 and raw.shape == (0,):
        raw = raw.reshape(0, 2)  # an empty list is an empty batch, not a point
    single = raw.ndim == (1 if space.kind == TORUS2 else 0)
    raw = raw[None] if single else raw
    bad = set() if numeric else {t.__name__ for t in set(map(type, raw.ravel().tolist()))
                                 if not issubclass(t, numbers.Real) or issubclass(t, bool)}
    if bad:
        raise DomainError(f"{space.kind} points must be real numbers, not {sorted(bad)}")
    try:
        pts = raw.astype(float)
    except OverflowError as exc:  # an int too large for a float
        raise DomainError(f"not a batch of {space.kind} points: {exc}") from None
    if space.kind == FINITE:
        whole = pts == np.floor(pts)  # False at NaN
        if pts.ndim != 1 or not np.all(whole & (pts >= 0) & (pts < space.size)):
            raise DomainError(f"not a batch of integer states in range(0, {space.size})")
        return pts.astype(np.int64), single
    shape_ok = pts.ndim == 2 and pts.shape[1] == 2 if space.kind == TORUS2 else pts.ndim == 1
    if not shape_ok or not np.all(np.isfinite(pts)):
        raise DomainError(f"not a batch of finite {space.kind} points")
    return wrap(pts), single


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


def check_order(n: int, name: str = "n", least: int = 1,
                budget: float = DEFAULT_MAX_ITERATIONS) -> int:
    """An orbit order n as an int: a non-integer (a bool; NumPy ints are
    integers) or one below ``least`` is a ValidationError, one above
    ``budget`` (``math.inf`` for an integer that sizes no walk) a BudgetError."""
    if not _is_integer(n):
        raise ValidationError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ValidationError(f"{name} must be >= {least}, got {n!r}")
    if n > budget:
        raise BudgetError(f"{name} = {n} exceeds iteration budget {budget}")
    return int(n)


def finite_size(k, name: str = "size k") -> float:
    """k as a float; a bool, a non-number or a non-finite k is a ValidationError."""
    if not _is_real(k):
        raise ValidationError(f"{name} must be a number, got {k!r}")
    try:
        v = float(k)
    except OverflowError:  # an int or a Fraction past the float range
        v = math.inf
    if not math.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {k!r}")
    return v


def step_points(sys: ConformalSystem, pts, inverse: bool = False):
    """One map application on an array of points, as ``sys.map_kind`` gives
    psi (psi^{-1} with ``inverse``).  It acts point by point: a point's image
    depends on its own bits only (a matrix is applied by elementwise products
    and sums, which round the same wherever the point sits in the batch)."""
    mk = sys.map_kind
    if mk["kind"] == "rotation":
        a = mk["angle"]
        return wrap(np.asarray(pts, dtype=float) + (-a if inverse else a))
    if mk["kind"] == "linear2":
        (a, b), (c, d) = np.asarray(mk["inverse"] if inverse else mk["matrix"], dtype=float)
        p = np.asarray(pts, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return wrap(np.stack([a * x + b * y, c * x + d * y], axis=-1))
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


#: cells (rows times points) of one block of orbit rows: a block holds
#: max(1, BLOCK_CELLS // P) rows of P points
BLOCK_CELLS = 2**14

#: cells of the evaluated rows that a stepped walk keeps, at most, to replay
#: them once its batch of points comes back to its start as a set
#: (``_stepped_rows``); the checks for that return stop past this budget
REPLAY_CELLS = 2**18


def orbit_blocks(sys: ConformalSystem, pts, n: int, inverse: bool = False):
    """The orbit engine: yields the rows h(psi^i p), i < n, in blocks of
    consecutive rows, each a new (b, P) array that the caller may keep or
    change.  A block holds ``BLOCK_CELLS`` // P rows (at least one); a factor
    that holds an opaque callable, also inside a coboundary, gets one row per
    block, so it is called on arrays of P points only.

    ``inverse`` walks psi^{-1} instead.  Float systems yield float64 rows;
    exact finite systems yield the integers h * sys.scale
    (``sys.scaled_table``).  Every orbit quantity (S_n, A_n, f_n, the g
    orbit tables) is a reduction of these rows, in O(P) memory if streamed.

    A forward walk of a system with a stored coboundary h = f - f o psi
    (``sys.generating_f``) walks f: it forms F_i = f(psi^i p) once per cell
    and yields F_i - F_{i+1}.  Every other walk walks h.

    On a rotation, a walked ``trig`` record is not stepped: its rows come
    from the cos and sin of 2 pi j p, once per start point, and of the
    exact phases 2 pi j i a mod 1 of the angle a, once per row, by angle
    addition (``_phase_rows``).  Row 0 of such a walk is ``eval_factor`` bit
    for bit.  Every other walk steps its points one row at a time with
    ``step_points`` and evaluates a block of rows in one call, and replays
    (``_stepped_rows``): once the stepped batch at step T, within
    ``REPLAY_CELLS`` cells of rows, is a permutation sigma of the start
    batch, bit for bit (a plain return is sigma = identity), row i is row
    i mod T gathered through sigma^(i div T), neither stepped nor evaluated
    again.  On the dyadic 64 x 64 cat grid, T = 1.
    """
    P = np.shape(pts)[0]
    telescoped = sys.generating_f is not None and not inverse
    walked = sys.generating_f if telescoped else sys.factor
    if sys.map_kind["kind"] == "rotation" and _record_type(walked) == "trig":
        rows = _phase_rows(walked, sys.map_kind["angle"], pts, -1 if inverse else 1)
    else:
        rows = _stepped_rows(sys, walked, pts, inverse)
    size = 1 if _holds_callable(walked) else max(1, BLOCK_CELLS // max(P, 1))
    if not telescoped:
        for lo in range(0, n, size):
            yield rows(lo, min(size, n - lo))
        return
    F = rows(0, 1)[0] if n > 0 else None
    for lo in range(0, n, size):
        nxt = rows(lo + 1, min(size, n - lo))
        out = np.empty_like(nxt)
        np.subtract(F, nxt[0], out=out[0])
        np.subtract(nxt[:-1], nxt[1:], out=out[1:])
        F = nxt[-1]
        yield out


def _holds_callable(h) -> bool:
    """True when the factor record h is, or holds, an opaque callable."""
    if _record_type(h) == "coboundary":
        return _holds_callable(h["f"]) or (h.get("base") is not None
                                           and _holds_callable(h["base"]))
    return callable(h)


def _stepped_rows(sys: ConformalSystem, h, pts, inverse: bool):
    """rows(lo, b): the record h (``sys.factor`` or its f) at psi^i p for
    lo <= i < lo + b, as a new (b, P) array, read in consecutive blocks from
    row 0.  Points are stepped one row at a time, only as far as the rows
    asked for, and each block is evaluated in one call: ``eval_factor`` of
    the system's own factor (the scaled integers on exact systems), else
    ``_evaluate`` of the record.

    Replay: while the rows evaluated so far fit in ``REPLAY_CELLS`` cells,
    they are kept, and every stepped batch of points is checked for a
    return to the start as a set.  Each step takes the batch's order-free
    fingerprint (``_fingerprint``, O(P)); only when it equals the start's
    does one exact sort-and-compare of the bit patterns run
    (``_return_permutation``), so -0.0 is not +0.0, and a walk that never
    returns never sorts.  Once the batch at step T is the start permuted,
    psi^T p_j = p_sigma(j), row i >= T is row i - T gathered through sigma:
    the walk keeps its last T rows and serves every later row by one
    gather, without stepping or evaluating again.  This holds because
    ``step_points`` and the evaluation act point by point: a point's image
    and value depend on its own bits only, not on its place in the batch.
    Past the budget the kept rows go and the checks stop."""
    cur, at, P = np.asarray(pts, dtype=np.int64 if sys.exact else None), 0, np.shape(pts)[0]
    start, cap = cur, REPLAY_CELLS // max(P, 1)  # cap: rows kept
    mark = _fingerprint(start)
    kept, sigma = None, None  # after the return, kept[r] is the latest row i with i % T == r

    def rows(lo, b):
        nonlocal cur, at, kept, sigma
        block = []
        for i in range(lo, lo + b):
            while sigma is None and at < i:
                cur, at = step_points(sys, cur, inverse=inverse), at + 1
                if at <= cap and _fingerprint(cur) == mark:
                    sigma = _return_permutation(start, cur)
            if sigma is not None:
                break
            block.append(cur)
        if block:
            x = block[0] if len(block) == 1 else np.concatenate(block)
            if sys.exact:
                v = sys.scaled_table[x]
            else:
                v = eval_factor(sys, x) if h is sys.factor else _evaluate(sys, h, x)
            v = v.reshape(len(block), P)
            if lo + len(block) <= cap:
                if kept is None:
                    kept = np.empty((cap, P), dtype=v.dtype)
                kept[lo:lo + len(block)] = v
            else:
                kept = None
            if sigma is None:
                return v
        T = at
        if len(kept) > T:
            kept = kept[:T].copy()
        out = np.empty((b, P), dtype=kept.dtype)
        if block:
            out[:len(block)] = v
        for j in range(len(block), b):
            np.take(out[j - T] if j >= T else kept[(lo + j) % T], sigma, out=out[j])
        tail = out[-T:]
        kept[np.arange(lo + b - len(tail), lo + b) % T] = tail
        return out

    return rows


def _bit_words(x) -> np.ndarray:
    """The bit patterns of a batch of points of 8-byte numbers as a (P, d)
    uint64 array, d the point's coordinates."""
    x = np.ascontiguousarray(x)
    return x.view(np.uint64).reshape(x.shape[0], math.prod(x.shape[1:]))


def _fingerprint(x):
    """(dtype, digest) of a batch of points, the same for every order of the
    same bit patterns, or None unless its entries are 8-byte numbers: the
    wrapping uint64 sum of its 64-bit words.  Batches that differ rarely
    share it, and one that does costs one ``_return_permutation`` sort."""
    if x.dtype.kind not in "iuf" or x.dtype.itemsize != 8:
        return None
    return x.dtype, int(x.view(np.uint64).sum())


def _return_permutation(start, cur):
    """sigma with cur[j] = start[sigma[j]], bit for bit, when the batch cur
    is the batch start reordered, else None, for two batches whose
    fingerprints match: one lexicographic sort of each batch's bit patterns
    and one comparison."""
    a, b = _bit_words(start), _bit_words(cur)
    ia, ib = np.lexsort(a.T[::-1]), np.lexsort(b.T[::-1])
    if not np.array_equal(a[ia], b[ib]):
        return None
    sigma = np.empty(len(ib), dtype=np.intp)
    sigma[ib] = ia
    return sigma


def _phase_rows(h, angle: float, pts, sign: int):
    """rows(lo, b): the trig record h at p + m a, a the rotation angle, for
    the orders m = sign * i with lo <= i < lo + b, as a (b, P) array.

    The phase j m a mod 1 of a term of frequency j is exact: Python ints
    over the denominator of Fraction(a), rounded once to a float.  Each term
    is then cos(u + v) = cos u cos v - sin u sin v (or sin(u + v) = sin u
    cos v + cos u sin v) with u = 2 pi j p, whose cos and sin are taken once
    per start point as ``_evaluate`` takes them, and v = 2 pi (j m a mod 1),
    taken once per row.  The coefficient multiplies the cos and sin of v.
    Order 0 is the term's own cos u or sin u, so row 0 is ``_evaluate``'s
    value bit for bit.  No fill pass: each term's array takes the sum so far
    in place, the first the constant (addition commutes bit for bit, signs
    of zero included); a record with no terms is its constant, filled.
    """
    frac = Fraction(angle)
    x = np.asarray(pts, dtype=float)
    terms = [(coef, j * frac.numerator, is_sin, np.cos(2.0 * np.pi * j * x),
              np.sin(2.0 * np.pi * j * x))
             for key, is_sin in (("cos", False), ("sin", True)) for j, coef in h[key]]
    den = frac.denominator

    def rows(lo, b):
        ms = range(sign * lo, sign * (lo + b), sign)
        v = h["const"]
        for coef, step, is_sin, cos_u, sin_u in terms:
            phase = 2.0 * np.pi * exact_phases(step, den, ms)
            cos_v, sin_v = coef * np.cos(phase), coef * np.sin(phase)
            if is_sin:
                term = np.multiply.outer(cos_v, sin_u)
                term += np.multiply.outer(sin_v, cos_u)
            else:
                term = np.multiply.outer(cos_v, cos_u)
                term -= np.multiply.outer(sin_v, sin_u)
            if lo == 0:
                np.multiply(coef, sin_u if is_sin else cos_u, out=term[0])
            v = np.add(term, v, out=term)
        return v if terms else np.full((b, len(x)), v)

    return rows


def exact_phases(step: int, den: int, ms) -> np.ndarray:
    """step m / den mod 1 for each integer m of ms, exact and rounded once."""
    return np.array([step * m % den / den for m in ms], dtype=float)


def orbit_array(sys: ConformalSystem, pts, n: int, inverse: bool = False):
    """The orbit rows stacked into an (n, P) array: float64, or on exact
    systems the integers h * sys.scale (``sum_dtype`` of one value)."""
    out = np.empty((n, np.shape(pts)[0]), dtype=sum_dtype(sys, 1))
    lo = 0
    for block in orbit_blocks(sys, pts, n, inverse):
        out[lo:lo + len(block)] = block
        lo += len(block)
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


def sampled_bounds(sys: ConformalSystem, h, pts):
    """(min, max) of the factor record h of ``sys`` over the points pts: a
    sampled range, not a bound; a value that is not finite is a
    ValidationError."""
    v = _evaluate(sys, h, pts)
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
    sampled_bounds(sys, sys.factor, pts)
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


def rotation_system(angle, factor, grid_resolution: int = 256,
                    tol_inverse: float = DEFAULT_TOL_INVERSE) -> ConformalSystem:
    """Rigid rotation x -> x + angle mod 1 with the given factor.

    ``factor`` may be a callable, a number (constant factor), a trig spec
    dict ``{"type": "trig", "const":, "cos": [[j, a]...], "sin": [[j, b]...]}``
    or a coboundary spec ``{"type": "coboundary", "f": spec}`` (base + f - f o
    psi with an optional ``"base": spec``).
    """
    a = _rotation_angle(angle)
    space = ModelSpace(CIRCLE, grid_resolution=grid_resolution)
    sys = ConformalSystem(space=space, factor=_factor_record(space.kind, factor),
                          map_kind={"kind": "rotation", "angle": a})
    return _validate(sys, tol_inverse)


def cat_map_system(factor, matrix=((2, 1), (1, 1)), grid_resolution: int = 64,
                   tol_inverse: float = DEFAULT_TOL_INVERSE) -> ConformalSystem:
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
    sys = ConformalSystem(space=space, factor=_factor_record(space.kind, factor),
                          map_kind={"kind": "linear2", "matrix": tuple(map(tuple, m)),
                                    "inverse": tuple(map(tuple, inv))})
    return _validate(sys, tol_inverse)


def finite_permutation_system(table, factor_values) -> ConformalSystem:
    """Permutation of m states with a per-state factor table.

    Integer, Fraction and "p/q" factor entries give exact rational arithmetic
    throughout; a table with a float entry falls back to float arithmetic.
    Table entries must be integers: a float or a bool is refused, not
    truncated.
    """
    tbl = tuple(table)
    # _is_integer once per entry type, not per entry: tables run to 10^5 states
    if not all(map(_is_integer_type, set(map(type, tbl)))):
        raise ValidationError(f"permutation table entries must be integers, got {list(tbl)!r}")
    m = len(tbl)
    if m < 1:
        raise ValidationError("permutation table is empty")
    fwd = integer_array(tbl)  # an object array only past int64, so out of range
    inv = np.full(m, -1, dtype=np.int64)
    if 0 <= fwd.min() and fwd.max() < m:
        inv[fwd] = np.arange(m)
    if inv.min() < 0:
        raise ValidationError(f"table {list(map(int, tbl))} is not a bijection on {m} states")
    fwd.flags.writeable = inv.flags.writeable = False
    values = list(factor_values)
    if len(values) != m:
        raise ValidationError("factor table length does not match state count")
    return ConformalSystem(space=ModelSpace(FINITE, size=m),
                           factor={"type": "table", "values": _factor_table(values)},
                           map_kind={"kind": "permutation", "table": fwd, "inverse": inv})


def coboundary_system(sys: ConformalSystem, f) -> ConformalSystem:
    """The system with factor h + f - f o psi (same dynamics), the shifts
    that give every conformal factor of one contactomorphism.  A finite table
    gives a table (exact where h and every f(i) are); elsewhere f is a factor
    spec, and the record a coboundary of f with base h."""
    h = sys.factor_table
    if h is not None:
        fv, tbl = [f(i) for i in range(len(h))], sys.perm_table.tolist()
        vals = [h[i] + fv[i] - fv[tbl[i]] for i in range(len(h))]
        return replace(sys, factor={"type": "table", "values": _factor_table(vals)})
    return replace(sys, factor={"type": "coboundary", "base": sys.factor,
                                "f": _factor_record(sys.space.kind, f)})


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
    return _is_integer_type(type(v))


def _is_integer_type(t) -> bool:
    return issubclass(t, numbers.Integral) and not issubclass(t, bool)


def _entry_error(values, i) -> ValidationError:
    return ValidationError(f"factor values[{i}] = {values[i]!r} is neither a number "
                           "nor a rational such as 3, '-3/4' or '1.5'")


def check_keys(spec: dict, known, path: str = ""):
    """A ValidationError naming the path (``path.key``, or the key alone at
    the top) of the first key of spec that is not in known."""
    for key in spec:
        if key not in known:
            raise ValidationError(f"unknown key {f'{path}.{key}' if path else key}; "
                                  f"expected one of {', '.join(known)}")


#: the keys of each type of factor spec
FACTOR_KEYS = {"constant": ("type", "value"), "trig": ("type", "const", "cos", "sin"),
               "trig2": ("type", "const", "terms"), "coboundary": ("type", "f", "base")}


def _factor_record(space_kind: str, spec, path: str = "factor"):
    """The factor record of a system on a space of ``space_kind`` from its spec at
    ``path``: a callable as it is; a real number or a ``constant`` spec
    {"value":} as a ``trig`` (circle) or ``trig2`` (torus) record with no
    terms; a ``coboundary`` spec {"f":, "base":} with the records of its f
    and, if given, its base (base + f - f o psi).  A spec dict names its
    "type" and holds only that type's ``FACTOR_KEYS``, checked down into a
    coboundary's f and base.  Frequencies are integers, and coefficients,
    ``const`` and ``value`` real numbers, neither booleans nor strings;
    anything else is a ValidationError that names the spec."""
    if callable(spec):
        return spec
    if _is_real(spec):
        spec = {"type": "constant", "value": spec}
    if not isinstance(spec, dict) or space_kind == FINITE:
        raise ValidationError(f"cannot interpret factor spec {spec!r} at {path} on a "
                              f"{space_kind} space")
    if "type" not in spec:  # no inference: {"const":, "cos":} is not a constant
        raise ValidationError(f"factor spec {spec!r} at {path} misses 'type'")
    kind, trig = spec["type"], "trig" if space_kind == CIRCLE else "trig2"
    if kind not in ("constant", trig, "coboundary"):
        raise ValidationError(f"factor type {kind!r} at {path} is none of 'constant', {trig!r} "
                              f"and 'coboundary', the factor types of a {space_kind} space")
    check_keys(spec, FACTOR_KEYS[kind], path)
    if kind == "coboundary":
        if "f" not in spec:
            raise ValidationError(f"coboundary factor {spec!r} at {path} misses 'f'")
        record = {"type": kind, "f": _factor_record(space_kind, spec["f"], f"{path}.f")}
        if "base" in spec:
            record["base"] = _factor_record(space_kind, spec["base"], f"{path}.base")
        return record
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
