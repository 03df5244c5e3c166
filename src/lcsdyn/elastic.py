"""Elasticity sets from Liouville profiles, and the rank of period groups.

A profile is a finite sample of u = eta(Z_lambda).  The homothety constants
c for which the twisted structure degenerates are exactly the values
(1 + u)/u attained with u != 0; the elasticity set is the complement of the
closure of that image.  Samples with u = 0 contribute no forbidden value.
The first-kind case is u identically -1, equivalently elasticity = R \\ {0}.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ConformalSystem, ValidationError, as_rational


@dataclass
class LiouvilleProfile:
    samples: np.ndarray
    lambda_nonvanishing: bool = True
    label: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float).ravel()
        if self.samples.size == 0:
            raise ValidationError("profile needs at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("profile samples must be finite")


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


_GAP_CHUNK = 1 << 16


def _gaps_above(vals, gap):
    """Indices i with vals[i+1] - vals[i] > gap, scanned in fixed chunks, so
    no difference array as long as vals is built."""
    last = len(vals) - 1
    found = [np.empty(0, dtype=np.intp)]
    for i in range(0, last, _GAP_CHUNK):
        j = min(i + _GAP_CHUNK, last)
        found.append(np.flatnonzero(vals[i + 1:j + 1] - vals[i:j] > gap) + i)
    return np.concatenate(found)


def elasticity_from_profile(profile: LiouvilleProfile, gap_resolution: float = 1e-3,
                            tol_zero: float = 1e-12) -> ElasticitySet:
    """Forbidden constants (1 + u)/u of the profile, merged into intervals.

    c is forbidden exactly when min over samples of |1 + (1 - c) u| vanishes;
    on a finite sample that reads: c is within resolution of some attained
    value (1 + u)/u.  Sorted values with gaps below ``gap_resolution`` fuse
    into one closed interval, since the image of a continuous u over a
    connected domain is an interval that finite sampling punctures.
    """
    u = profile.samples
    zero_mask = np.abs(u) < tol_zero
    contains_zero = bool(zero_mask.any())
    live = u[~zero_mask] if contains_zero else u  # profiles run to millions of samples
    if live.size == 0:
        return ElasticitySet([], contains_zero, profile.lambda_nonvanishing,
                             gap_resolution)
    vals = 1.0 + live  # the one value array, divided and sorted in place
    vals /= live
    vals.sort()
    vals += 0.0  # folds -0.0 into 0.0
    breaks = _gaps_above(vals, gap_resolution)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(vals) - 1]])
    intervals = [(float(vals[a]), float(vals[b])) for a, b in zip(starts, ends)]
    return ElasticitySet(intervals, contains_zero, profile.lambda_nonvanishing,
                         gap_resolution)


def degeneracy_criterion(profile: LiouvilleProfile, c: float) -> float:
    """min over samples of |1 + (1 - c) u|; zero iff c is attained."""
    u = profile.samples
    return float(np.min(np.abs(1.0 + (1.0 - c) * u)))


def first_kind_test(profile: LiouvilleProfile, tol_profile: float = 1e-9) -> bool:
    """True iff the profile is identically -1 (within tolerance).

    Equivalent to the elasticity set being the whole punctured line: the only
    forbidden constant of u = -1 is (1 - 1)/(-1) = 0.
    """
    return bool(np.all(np.abs(profile.samples + 1.0) <= tol_profile))


def mapping_torus_profile(sys: ConformalSystem, k: float, t_window,
                          n_scan: int = 64, points=None, s_count: int = 4097,
                          strict_mu: bool = False, rng=None) -> LiouvilleProfile:
    """Liouville profile of the size-k mapping torus built from (psi, h).

    The constructed pairing satisfies (1 + u)/u = dt g / (-k), equivalently
    u = -k / (dt g + k); the slope never meets -k, so u is finite and never
    zero, and the underlying form never vanishes (equality holds).

    With ``strict_mu`` (requires a stored generating f) the first-kind
    potential f o p1 - t is used instead, whose t-derivative is exactly -1.
    """
    from . import torus

    if strict_mu:
        if sys.generating_f is None:
            raise ValidationError("strict_mu needs a system with a stored generating f")
        count = len(sys.space.sample_points(points)) if points is not None else 256
        return LiouvilleProfile(np.full(count, -1.0), True,
                                label=f"{sys.label} strict profile")
    mu = torus.build_mu(sys, k, t_window, n_scan=n_scan, points=points, rng=rng,
                        samples=128)
    u = mu.gcons.dt_attainable(s_count=s_count)
    u += mu.k
    np.divide(-mu.k, u, out=u)
    return LiouvilleProfile(u, True, label=f"{sys.label} size {k} profile")


def profile_from_csv(path, column: str = "u") -> LiouvilleProfile:
    """Load a profile from CSV (a 'u' column, or one value per row)."""
    values = []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValidationError(f"no data in {path}")
    start = 0
    col = 0
    header = rows[0]
    if any(not _is_number(tok) for tok in header):
        if column in header:
            col = header.index(column)
        start = 1
    for row in rows[start:]:
        if row:
            values.append(float(row[col]))
    return LiouvilleProfile(np.asarray(values), label=str(path))


def _is_number(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


# --------------------------------------------------------------------------
# rank of period subgroups
# --------------------------------------------------------------------------

_GEN_RE = re.compile(r"^([+-]?\d+(?:/\d+)?|[+-])?\*?(s)?$")


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
    if isinstance(item, tuple) and len(item) == 2:
        a, b = (as_rational(v) for v in item)
        if a is None or b is None:
            raise ValidationError(f"generator {item!r} is not exactly rational")
        return (a, b)
    r = as_rational(item)
    if r is not None and not isinstance(item, str):
        return (r, Fraction(0))
    if isinstance(item, str):
        tok = item.strip().replace(" ", "")
        m = _GEN_RE.match(tok)
        if m and (m.group(1) or m.group(2)):
            raw = m.group(1)
            if raw in (None, "+"):
                coef = Fraction(1)
            elif raw == "-":
                coef = Fraction(-1)
            else:
                coef = Fraction(raw)
            if m.group(2):
                return (Fraction(0), coef)
            if raw in ("+", "-"):
                raise ValidationError(f"cannot parse generator {item!r}")
            return (coef, Fraction(0))
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
