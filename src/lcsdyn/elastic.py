"""Elasticity sets from Liouville profiles, and the rank of period groups.

A profile is a finite sample of u = eta(Z_lambda).  The homothety constants
c for which the twisted structure degenerates are exactly the values
(1 + u)/u attained with u != 0; the elasticity set is the complement of the
closure of that image.  Samples with u = 0 contribute no forbidden value.
The first-kind case is u identically -1, equivalently elasticity = R \\ {0}.

Every reduction of a profile is a function of the set of its samples, and
reads it one block at a time (``LiouvilleProfile.blocks``).  A mapping
torus's profile is the product of its cutoff slopes and its orbit factor
values; its reductions read the distinct slopes times the distinct values,
and it is never held whole.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .core import ConformalSystem, ValidationError, as_rational

#: samples per block of a profile reduction (a factored profile rounds it to
#: whole rows of slopes); it bounds the memory every reduction takes
_BLOCK = 1 << 16


class LiouvilleProfile:
    """A finite sample of u, as an array or kept factored.

    ``factors=(slopes, values, k)`` is the profile of a size-k mapping
    torus, u = -k / (s v + k) for every cutoff slope s and orbit factor
    value v, slope-major; a factor or k that is not finite is refused.
    ``size`` counts every product and ``samples``, the whole slope-major
    array, is materialised on first access; the reductions read ``blocks``.
    """

    def __init__(self, samples=None, lambda_nonvanishing: bool = True, label: str = "",
                 factors=None):
        self.lambda_nonvanishing = lambda_nonvanishing
        self.label = label
        if factors is not None:
            slopes, values, self._k = factors
            self._slopes = np.asarray(slopes, dtype=float).ravel()
            self._values = np.asarray(values, dtype=float).ravel()
            self._samples = None
            self.size = self._slopes.size * self._values.size
            if not (np.all(np.isfinite(self._slopes)) and np.all(np.isfinite(self._values))
                    and np.isfinite(self._k)):
                raise ValidationError("profile samples must be finite")
        else:
            self._samples = np.asarray(samples, dtype=float).ravel()
            self.size = self._samples.size
            if not np.all(np.isfinite(self._samples)):
                raise ValidationError("profile samples must be finite")
        if self.size == 0:
            raise ValidationError("profile needs at least one sample")

    def blocks(self):
        """The set of samples, one block at a time: a fresh array, or a view
        of ``samples`` that the caller must not write to.

        An array profile yields its samples in order.  A factored profile
        yields the grid of its distinct slopes times its distinct values, a
        few rows of slopes at a time, each block checked finite as it is
        built: a repeated slope or value repeats its samples bit for bit
        (+0.0 and -0.0 give s v + k = k alike), so every sample value is on
        that grid, and a reduction that depends only on the set of values
        (a min, a max, the hulls of the sorted values) reads the same there.
        """
        if self._samples is not None:
            for i in range(0, self.size, _BLOCK):
                yield self._samples[i:i + _BLOCK]
            return
        slopes, values = np.unique(self._slopes), np.unique(self._values)
        rows = max(1, _BLOCK // values.size)
        for i in range(0, slopes.size, rows):
            yield self._products(slopes[i:i + rows], values)

    def _products(self, slopes, values):
        """-k / (s v + k) over slopes x values, slope-major, in one array;
        a pole (s v + k = 0) is refused."""
        u = np.multiply.outer(slopes, values).ravel()
        u += self._k
        np.divide(-self._k, u, out=u)
        if not np.all(np.isfinite(u)):
            raise ValidationError("profile samples must be finite")
        return u

    @property
    def samples(self) -> np.ndarray:
        """Every sample as one array (a factored profile is built once, here)."""
        if self._samples is None:
            self._samples = self._products(self._slopes, self._values)
        return self._samples

    @cached_property
    def bounds(self) -> tuple:
        """(min u, max u) over the samples.

        A factored profile reads them off its four corners {min s, max s} x
        {min v, max v} when s v + k has one sign there and u is finite and
        nonzero there: fl(s v), + k and -k / x each round monotonically, so
        the extremes over the grid sit at its corners.  Otherwise (a pole, a
        sign change, a u that rounds to 0) the blocks are reduced, which
        raises on a sample that is not finite.
        """
        if self._samples is None:
            s, v = self._slopes, self._values
            x = np.multiply.outer([s.min(), s.max()], [v.min(), v.max()]).ravel()
            x += self._k
            u = np.divide(-self._k, x)
            if (np.all(x > 0) or np.all(x < 0)) and np.all(np.isfinite(u) & (u != 0)):
                return float(u.min()), float(u.max())
        lo, hi = zip(*((u.min(), u.max()) for u in self.blocks()))
        return float(min(lo)), float(max(hi))


@dataclass
class ElasticitySet:
    """Complement of the sampled forbidden values, as interval hulls.

    ``forbidden`` is a finite union of closed intervals (sample clusters
    merged below ``gap_resolution``); ``equality`` is True when the profile
    asserts a nonvanishing form, in which case the complement is the whole
    elasticity set rather than just a superset.
    """

    forbidden: list
    contains_zero_u: bool
    equality: bool
    gap_resolution: float

    def is_forbidden(self, c) -> bool:
        return any(a <= c <= b for a, b in self.forbidden)

    def allows(self, c) -> bool:
        return not self.is_forbidden(c)

    def to_json(self):
        return {
            "forbidden": [[float(a), float(b)] for a, b in self.forbidden],
            "equality": self.equality,
            "contains_zero_u": self.contains_zero_u,
            "gap_resolution": self.gap_resolution,
        }


def elasticity_from_profile(profile: LiouvilleProfile, gap_resolution: float = 1e-3,
                            tol_zero: float = 1e-12) -> ElasticitySet:
    """Forbidden constants (1 + u)/u of the profile, merged into intervals.

    c is forbidden exactly when min over samples of |1 + (1 - c) u| vanishes;
    on a finite sample that reads: c is within resolution of some attained
    value (1 + u)/u.  Sorted values with gaps below ``gap_resolution`` fuse
    into one closed interval, since the image of a continuous u over a
    connected domain is an interval that finite sampling punctures.

    Each block's sorted values split into hulls at its own gaps; the hulls,
    sorted by start, then merge unless a start exceeds the running max of
    the ends by more than ``gap_resolution``.  Float subtraction is monotone,
    so no block's hull spans a gap of the whole sorted value set, and the
    intervals are those of that one sorted array, bit for bit.  A repeated
    sample adds a gap of 0, which splits nothing as ``gap_resolution`` is not
    negative, so the intervals depend only on the set of samples.
    """
    if not gap_resolution >= 0:
        raise ValidationError(f"gap_resolution must be >= 0, got {gap_resolution}")
    starts, ends = [], []
    contains_zero = False
    for u in profile.blocks():
        zero_mask = np.abs(u) < tol_zero
        if zero_mask.any():
            contains_zero = True
            u = u[~zero_mask]
        if u.size == 0:
            continue
        vals = 1.0 + u  # the block's one value array, divided and sorted in place
        vals /= u
        vals.sort()
        vals += 0.0  # folds -0.0 into 0.0
        breaks = np.flatnonzero(np.diff(vals) > gap_resolution)
        starts.append(vals[np.r_[0, breaks + 1]])
        ends.append(vals[np.r_[breaks, -1]])
    if not starts:
        return ElasticitySet([], contains_zero, profile.lambda_nonvanishing,
                             gap_resolution)
    starts = np.concatenate(starts)
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    reach = np.maximum.accumulate(np.concatenate(ends)[order])
    cuts = np.flatnonzero(starts[1:] - reach[:-1] > gap_resolution)
    intervals = list(zip(starts[np.r_[0, cuts + 1]].tolist(), reach[np.r_[cuts, -1]].tolist()))
    return ElasticitySet(intervals, contains_zero, profile.lambda_nonvanishing,
                         gap_resolution)


def degeneracy_criterion(profile: LiouvilleProfile, c: float) -> float:
    """min over samples of |1 + (1 - c) u|; zero iff c is attained."""
    return min(float(np.min(np.abs(1.0 + (1.0 - c) * u))) for u in profile.blocks())


def first_kind_test(profile: LiouvilleProfile, tol_profile: float = 1e-9) -> bool:
    """True iff the profile is identically -1 (within tolerance).

    Equivalent to the elasticity set being the whole punctured line: the only
    forbidden constant of u = -1 is (1 - 1)/(-1) = 0.  u + 1 rounds
    monotonically in u, so |u + 1| is largest at the extreme samples.
    """
    lo, hi = profile.bounds
    return abs(lo + 1.0) <= tol_profile and abs(hi + 1.0) <= tol_profile


def mapping_torus_profile(sys: ConformalSystem, k: float, t_window,
                          n_scan: int = 64, points=None, s_count: int = 4097,
                          strict_mu: bool = False) -> LiouvilleProfile:
    """Liouville profile of the size-k mapping torus built from (psi, h).

    The constructed pairing satisfies (1 + u)/u = dt g / (-k), equivalently
    u = -k / (dt g + k); the slope never meets -k, so u is finite and never
    zero, and the underlying form never vanishes (equality holds).  dt g is
    a cutoff slope times an orbit factor value (``dt_attainable``), so the
    profile is kept as those two factors.  Only g is built, at the first
    usable order (``torus.usable_order``): the profile needs no mu.

    With ``strict_mu`` (requires a stored generating f) the first-kind
    potential f o p1 - t is used instead, whose t-derivative is exactly -1.
    Both refuse k = 0 (``torus.nonzero_size``).
    """
    from . import torus

    k = torus.nonzero_size(k)
    if strict_mu:
        if sys.generating_f is None:
            raise ValidationError("strict_mu needs a system with a stored generating f")
        count = len(sys.space.sample_points(points)) if points is not None else 256
        return LiouvilleProfile(np.full(count, -1.0), True,
                                label=f"{sys.label} strict profile")
    order = torus.usable_order(sys, k, n_scan, points)
    gcons = torus.build_g(sys, k, t_window, points=points, order=order)
    slopes, values = gcons.dt_attainable(s_count=s_count)
    return LiouvilleProfile(label=f"{sys.label} size {k} profile",
                            factors=(slopes, values, gcons.k))


def profile_from_csv(path, column: str = "u") -> LiouvilleProfile:
    """Load a profile from CSV (a 'u' column, or one value per row).

    Rows are converted as they are read, into one array of doubles.  A file
    that cannot be read, a row without the column and a cell that is not a
    number are ValidationErrors naming the file.
    """
    values = array("d")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"no data in {path}")
            col = 0
            rows = enumerate(reader, start=2)
            if all(_is_number(tok) for tok in header):
                rows = chain([(1, header)], rows)
            elif column in header:
                col = header.index(column)
            for line, row in rows:
                if row:
                    try:
                        values.append(float(row[col]))
                    except (IndexError, ValueError):
                        raise ValidationError(f"{path} line {line}: no number in column "
                                              f"{col + 1}: {row!r}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read profile {path}: {exc}") from None
    return LiouvilleProfile(np.frombuffer(values, dtype=float), label=str(path))


def _is_number(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


# --------------------------------------------------------------------------
# rank of period subgroups
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodGroup:
    """Generators of a subgroup of (R, +), written a + b s with a, b rational.

    s stands for one fixed irrational; only a single formal symbol is
    represented, so ranks never exceed 2.
    """

    generators: tuple

    @classmethod
    def parse(cls, items) -> "PeriodGroup":
        gens = []
        for item in items:
            gens.append(_parse_generator(item))
        return cls(tuple(gens))


def _parse_generator(item):
    """(a, b) of a generator a + b s: a pair (a tuple or a two-element list,
    as JSON gives it) of coefficients, a coefficient a, or a string "b s",
    "b*s", "s" or "-s".  A coefficient is anything ``as_rational`` reads
    exactly: an int, a Fraction, or a string such as "3", "-3/4" or "1.5"."""
    if isinstance(item, (tuple, list)) and len(item) == 2:
        a, b = (as_rational(v) for v in item)
        if a is None or b is None:
            raise ValidationError(f"generator {item!r} is not exactly rational")
        return (a, b)
    tok = item.replace(" ", "") if isinstance(item, str) else item
    r = as_rational(tok)
    if r is not None:
        return (r, Fraction(0))
    if isinstance(tok, str) and tok.endswith("s"):
        raw = tok[:-1].removesuffix("*")
        coef = Fraction(-1 if raw == "-" else 1) if raw in ("", "+", "-") else as_rational(raw)
        if coef is not None:
            return (Fraction(0), coef)
    raise ValidationError(f"cannot parse generator {item!r}")


def lcs_rank(group: PeriodGroup) -> int:
    """Rank of the subgroup of (R, +) generated; exact rational arithmetic.

    Row-reduces the 2-column matrix of (coefficient of 1, coefficient of s)
    over the rationals.
    """
    rows = [list(g) for g in group.generators if any(g)]
    rank = 0
    for col in range(2):
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            continue
        rank += 1
        rows = [
            [r[j] - (r[col] / pivot[col]) * pivot[j] for j in range(2)]
            for r in rows
            if r is not pivot
        ]
    return rank
