from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsdyn import (
    ElasticitySet,
    LiouvilleProfile,
    PeriodGroup,
    elasticity_from_profile,
    first_kind_test,
    lcs_rank,
    mapping_torus_profile,
    rotation_system,
)
from lcsdyn.core import ValidationError
from lcsdyn.elastic import _BLOCK, profile_from_csv


def _profile(samples=None, **kwargs):
    """A profile of a form asserted never to vanish (so equality holds)."""
    return LiouvilleProfile(samples, lambda_nonvanishing=True, **kwargs)


def in_intervals(intervals, c, slack=1e-12):
    return any(a - slack <= c <= b + slack for a, b in intervals)


def forbids(es, c):
    """c lies in a closed forbidden interval of es."""
    return in_intervals(es.forbidden, c, slack=0)


def test_first_kind_profile():
    p = _profile(np.full(16, -1.0))
    es = elasticity_from_profile(p)
    assert es.forbidden == [(0.0, 0.0)]
    assert not forbids(es, 1.0) and not forbids(es, -2.5) and forbids(es, 0.0)
    assert first_kind_test(p)


def test_unit_profile():
    p = _profile(np.full(8, 1.0))
    es = elasticity_from_profile(p)
    assert es.forbidden == [(2.0, 2.0)]
    assert not first_kind_test(p)


def test_dense_interval_profile_against_scan():
    p = _profile(np.linspace(1.0, 2.0, 4001))
    es = elasticity_from_profile(p)
    assert len(es.forbidden) == 1
    a, b = es.forbidden[0]
    assert a == pytest.approx(1.5) and b == pytest.approx(2.0)
    # brute-force scan of the degeneracy criterion on c in [-10, 10]; the
    # criterion |1 + (1-c)u| vanishes iff c = (1+u)/u, so on a c-grid the
    # normalized value |1 + (1-c)u| / |u| is the distance to an attained c
    step = 1e-3
    u = p.samples
    for c in np.arange(-10, 10 + step, step):
        flagged = np.min(np.abs(1.0 + (1.0 - c) * u) / np.abs(u)) <= step
        if flagged != in_intervals(es.forbidden, c):
            boundary_dist = min(abs(c - v) for ab in es.forbidden for v in ab)
            assert boundary_dist <= step + 1e-9


def test_first_kind_near_miss():
    p = _profile(np.concatenate([np.full(9, -1.0), [-0.5]]))
    assert not first_kind_test(p)
    es = elasticity_from_profile(p)
    assert forbids(es, 0.0) and forbids(es, -1.0)  # (1-0.5)/(-0.5) = -1


def test_zero_samples_contribute_nothing():
    p = _profile(np.array([0.0, 1.0, 0.0]))
    es = elasticity_from_profile(p)
    assert es.contains_zero_u
    assert es.forbidden == [(2.0, 2.0)]
    all_zero = elasticity_from_profile(_profile(np.zeros(4)))
    assert all_zero.forbidden == []


def test_elasticity_open_complement():
    # reported forbidden sets are closed, so the complement is open
    p = _profile(np.array([0.5, 0.51, 0.52, 3.0]))
    es = elasticity_from_profile(p, gap_resolution=0.05)
    for a, b in es.forbidden:
        assert forbids(es, a) and forbids(es, b)
    assert not forbids(es, a - 1e-9) or in_intervals(es.forbidden, a - 1e-9)


def test_profile_validation():
    with pytest.raises(ValidationError):
        _profile(np.array([]))
    with pytest.raises(ValidationError):
        _profile(np.array([1.0, np.inf]))


def test_profile_csv_roundtrip(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("u\n-1.0\n-1.0\n-1.0\n")
    p = profile_from_csv(path)
    assert first_kind_test(p)
    bare = tmp_path / "bare.csv"
    bare.write_text("0.5\n1.5\n")
    assert profile_from_csv(bare).samples.tolist() == [0.5, 1.5]
    named = tmp_path / "named.csv"
    named.write_text("x,u\n0.0,-1.0\n\n1.0,0.25\n")
    assert profile_from_csv(named).samples.tolist() == [-1.0, 0.25]
    other = tmp_path / "other.csv"
    other.write_text("a,b\n2.0,9\n3.0\n")  # no u column: the first one is read
    assert profile_from_csv(other).samples.tolist() == [2.0, 3.0]


@pytest.mark.parametrize("text, message", [
    ("u\n-1.0\nabc\n", "line 3: no number in column 1: ['abc']"),
    ("x,u\n0.0,-1.0\n\n0.5\n", "line 4: no number in column 2: ['0.5']"),
    ("0.5\n1.5,x\n-\n", "line 3: no number in column 1: ['-']"),
    ("", "no data in"),
    (b"u\n\xff\n", "cannot read profile"),
])
def test_profile_csv_errors_name_file_and_line(tmp_path, text, message):
    path = tmp_path / "profile.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(ValidationError) as err:
        profile_from_csv(path)
    assert str(path) in str(err.value) and message in str(err.value)


def test_profile_csv_streams_its_rows(tmp_path):
    # rows become doubles as they are read: 100k rows take about 0.8 MiB,
    # where a list of every row's strings took 18 MiB
    import tracemalloc

    path = tmp_path / "profile.csv"
    values = [-1.0 - i * 1e-6 for i in range(100_000)]
    path.write_text("u\n" + "".join(f"{v!r}\n" for v in values))
    tracemalloc.start()
    try:
        profile = profile_from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
    assert profile.samples.tolist() == values


def test_mapping_torus_profile_constant(const_rotation):
    prof = mapping_torus_profile(const_rotation, 1.0, (-10, 10))
    es = elasticity_from_profile(prof, gap_resolution=5e-3)
    # slopes stay in [-a, 0] with a < 1, so the forbidden set sits in [0, a]
    lo = min(a for a, _ in es.forbidden)
    hi = max(b for _, b in es.forbidden)
    assert lo >= -1e-12
    assert hi < 1.0
    assert not forbids(es, 1.0)
    assert es.equality and not es.contains_zero_u


def test_a_profile_whose_slope_takes_both_signs_is_refused():
    # the first usable order's edge leaves k - s A one-signed at the grid
    # points only: the attainable values of dt g + k span both signs, so
    # u = -k / (dt g + k) does too and the form is not nonvanishing
    from lcsdyn.torus import InfeasibleError

    sys = rotation_system("golden", {"type": "trig", "cos": [[1, 1.0], [3, 0.5]],
                                     "sin": [[2, -0.5]]}, grid_resolution=64)
    with pytest.raises(InfeasibleError, match=r"^dt g \+ k does not carry the sign of "
                                              r"k = -0\.54: its attainable values span "
                                              r"\[-1\.08, 0\.00159\]$"):
        mapping_torus_profile(sys, -0.54, (-2, 2))


def test_mapping_torus_profile_strict_mu(golden_strict):
    prof = mapping_torus_profile(golden_strict, 1.0, (-10, 10), strict_mu=True)
    assert first_kind_test(prof)
    es = elasticity_from_profile(prof)
    assert es.forbidden == [(0.0, 0.0)]


def test_mapping_torus_profile_links_to_gap(const_rotation):
    # sizes ck with c in the computed elasticity avoid the average gap {0.2}
    prof = mapping_torus_profile(const_rotation, 1.0, (-10, 10))
    es = elasticity_from_profile(prof, gap_resolution=5e-3)
    for c in np.arange(-3, 3, 0.01):
        if not forbids(es, c) and not in_intervals(es.forbidden, c, slack=1e-3):
            assert not (0.2 - 1e-3 <= c * 1.0 <= 0.2 + 1e-3)


def test_rank_examples():
    assert lcs_rank(PeriodGroup.parse(["1", "3/2"])) == 1
    assert lcs_rank(PeriodGroup.parse(["1", "s"])) == 2
    assert lcs_rank(PeriodGroup.parse([])) == 0
    assert lcs_rank(PeriodGroup.parse(["0"])) == 0
    assert lcs_rank(PeriodGroup.parse(["3/7", "5/7"])) == 1
    assert lcs_rank(PeriodGroup.parse(["2s", "-s"])) == 1
    assert lcs_rank(PeriodGroup.parse(["1/2", "-3", "2*s"])) == 2
    assert lcs_rank(PeriodGroup.parse([(Fraction(1), Fraction(2))])) == 1
    assert lcs_rank(PeriodGroup.parse([["1", "1"], ["2", "2"]])) == 1
    assert lcs_rank(PeriodGroup.parse([["1/2", "0"], [3, "1.5"]])) == 2
    assert PeriodGroup.parse(["1.5", " 3 / 4 ", "1.5 s", [Fraction(1, 3), 2]]).generators == (
        (Fraction(3, 2), 0), (Fraction(3, 4), 0), (0, Fraction(3, 2)), (Fraction(1, 3), 2))


def test_rank_parse_errors():
    with pytest.raises(ValidationError):
        PeriodGroup.parse(["sqrt2"])
    with pytest.raises(ValidationError):
        PeriodGroup.parse([1.5])  # floats are not exact
    for bad in (["1", "s"], [1.5, 0], ["1", "2", "3"], [["1"]], "3/0", "3/0s", "ss", "+"):
        with pytest.raises(ValidationError):
            PeriodGroup.parse([bad])


@given(st.lists(st.tuples(st.fractions(), st.fractions()), max_size=6),
       st.tuples(st.fractions(), st.fractions()))
@settings(max_examples=60, deadline=None)
def test_rank_monotone_and_bounded(gens, extra):
    base = lcs_rank(PeriodGroup(tuple(gens)))
    grown = lcs_rank(PeriodGroup(tuple(gens) + (extra,)))
    assert base <= grown <= base + 1
    assert grown <= 2


def _reference_forbidden(u, gap):
    """The forbidden hulls from the full sorted value array and its np.diff."""
    vals = np.sort((1.0 + u) / u) + 0.0
    breaks = np.nonzero(np.diff(vals) > gap)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(vals) - 1]])
    return [(float(vals[a]), float(vals[b])) for a, b in zip(starts, ends)]


def _live_reference(u, gap):
    """The reference hulls of the samples that are not zero."""
    live = u[np.abs(u) >= 1e-12]
    return _reference_forbidden(live, gap) if live.size else []


def _random_profiles(rng, block):
    """Profiles with zeros, -0.0, duplicates (u = -1 gives the value -0.0)
    and clusters of values in random order, so that clusters straddle the
    block boundaries."""
    for size in (1, 2, 7, 8, 50, 1000):
        yield -rng.choice([0.3, 0.5, 2.0, 5.0], size) * (1.0 + 0.01 * rng.random(size))
    # values (1 + u)/u of these are dyadic, several exactly 0.5 apart
    atoms = [0.0, -0.0, 1e-13, -1.0, 1.0, 0.5, -0.5, -2.0, 2.0, 4.0, -4.0, 0.25]
    for size in (1, block - 1, block, block + 1, 3 * block + 2, 400):
        yield rng.choice(atoms, max(size, 1))
    # value ramps whose steps sit just below or just above the gap, in order
    # and shuffled
    steps = 0.01 * np.where(rng.random(300) < 0.7, 0.999, 1.001)
    u = 1.0 / (np.cumsum(steps) + 2.0 - 1.0)  # (1 + u)/u = 1 + 1/u runs along the ramp
    yield u
    yield rng.permutation(u)
    yield np.concatenate([u, -u, np.zeros(5), np.full(5, -0.0), u[::7]])


@pytest.mark.parametrize("block", [1, 7, _BLOCK])
def test_chunked_gap_scan_matches_full_diff(monkeypatch, block):
    # the hulls of the blocks, swept by start, are the hulls of the one
    # sorted value array, bit for bit, at any block size
    import lcsdyn.elastic as el

    monkeypatch.setattr(el, "_BLOCK", block)
    rng = np.random.default_rng(2)
    for u in _random_profiles(rng, block):
        for gap in (0.01, 0.5):
            es = elasticity_from_profile(_profile(u), gap_resolution=gap)
            assert repr(es.forbidden) == repr(_live_reference(u, gap))  # -0.0 is folded
        assert es.contains_zero_u == bool(np.any(np.abs(u) < 1e-12))


@pytest.mark.parametrize("block", [1, 7, _BLOCK])
def test_factored_profile_matches_its_array(monkeypatch, block):
    # a factored profile, never materialised, reduces to the numbers of the
    # out-of-place products u = -k / (s v + k) over the whole array
    import lcsdyn.elastic as el

    monkeypatch.setattr(el, "_BLOCK", block)
    rng = np.random.default_rng(3)
    for rows, cols, k in ((1, 1, 1.0), (9, 4, -1.5), (33, 7, 0.75), (200, 13, 2.0)):
        slopes = -rng.random(rows) * rng.choice([0.5, 1.0])
        values = np.round(rng.uniform(-1.0, 0.4, cols), 2)  # repeated products
        u = -k / (np.multiply.outer(slopes, values).ravel() + k)
        for gap in (1e-3, 0.05):
            fresh = _profile(factors=(slopes, values, k))
            assert repr(elasticity_from_profile(fresh, gap).forbidden) == repr(
                _live_reference(u, gap))
        fresh = _profile(factors=(slopes, values, k))
        assert fresh.size == u.size
        assert fresh.bounds == (float(u.min()), float(u.max()))
        assert first_kind_test(fresh) == bool(np.all(np.abs(u + 1.0) <= 1e-9))
        assert np.array_equal(fresh.samples, u)


def test_factored_profile_refuses_an_infinite_sample():
    # s v + k = 0 is a pole of u: it is refused when its block is built
    profile = _profile(factors=(np.array([1.0, 2.0]), np.array([-0.5, 0.25]), 1.0))
    with pytest.raises(ValidationError, match="finite"), np.errstate(divide="ignore"):
        elasticity_from_profile(profile)


def _pass_bounds(profile):
    """(min u, max u) reduced over every block, as the pass computes them."""
    lo, hi = zip(*((u.min(), u.max()) for u in profile.blocks()))
    return float(min(lo)), float(max(hi))


@pytest.mark.parametrize("seed", range(40))
def test_factored_bounds_from_four_corners_equal_the_pass(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    slopes = rng.normal(size=rng.integers(1, 40)) * rng.choice([1e-3, 1.0, 50.0])
    values = rng.normal(size=rng.integers(1, 40))
    if seed % 4 == 1:  # zero slopes, as chi' reads on its plateaus
        slopes[: slopes.size // 2 + 1] = 0.0
    if seed % 4 == 2:  # repeated values, one sign of v
        values = np.abs(np.repeat(values[:3], 5))
    if seed % 4 == 3:
        slopes, values = -np.abs(slopes), -np.abs(values)
    k = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)
    want = _pass_bounds(_profile(factors=(slopes, values, k)))
    built = []
    real = LiouvilleProfile.blocks
    monkeypatch.setattr(LiouvilleProfile, "blocks", lambda self: built.append(1) or real(self))
    got = _profile(factors=(slopes, values, k)).bounds
    assert got == want and all(type(v) is float for v in got)
    x = np.multiply.outer([slopes.min(), slopes.max()], [values.min(), values.max()]) + k
    assert built == ([] if np.all(x > 0) or np.all(x < 0) else [1])


def test_bounds_of_a_pole_profile_raise_alone():
    profile = _profile(factors=(np.array([1.0, 2.0]), np.array([-0.5, 0.25]), 1.0))
    with pytest.raises(ValidationError, match="finite"), np.errstate(divide="ignore"):
        profile.bounds


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nan_or_infinite_factor_is_refused_at_construction(bad):
    # inf * v + k = inf gave u = -0.0, a finite sample counted as a zero u
    # (bounds (-1.0, -0.0), a forbidden [0.0, 0.0]); an array profile with an
    # inf is refused, and so is a factored one, slope, value or k alike
    for factors in (([0, 0.5, bad], [0.25, 1], 2.0), ([0, 0.5, -bad], [0.25, 1], 2.0),
                    ([0, 0.5], [0.25, bad], 2.0), ([0, 0.5], [0.25, 1], bad)):
        with pytest.raises(ValidationError, match="^profile samples must be finite$"):
            _profile(factors=factors)


def _repeating_factors(rng):
    """Slopes as chi' reads them, each plateau value repeated hundreds of
    times and +0.0 mixed with -0.0, and values that repeat, in random order."""
    ramp = -0.9 * rng.random(12)
    slopes = np.concatenate([np.zeros(150), np.full(150, -0.0), np.repeat(ramp[:3], 100),
                             ramp, np.full(120, -0.9)])
    values = np.concatenate([np.repeat(rng.uniform(-1.0, 0.4, 4), 5), [0.0, -0.0, 0.4]])
    return rng.permutation(slopes), rng.permutation(values)


@pytest.mark.parametrize("block", [1, 7, _BLOCK])
def test_distinct_reductions_equal_the_full_array(monkeypatch, block):
    # a factored profile reduces its distinct slopes times its distinct
    # values; every reduction is a function of the set of samples, so it
    # equals the reduction of the whole slope-major array, bit for bit
    import lcsdyn.elastic as el

    slopes, values = _repeating_factors(np.random.default_rng(5))
    distinct = np.unique(slopes).size * np.unique(values).size
    assert distinct < slopes.size * values.size // 20
    gaps = (1e-3, 0.05)
    # k = -0.3 and -1e-13 change the sign of s v + k (bounds run the pass);
    # |k| = 1e-13 gives |u| < 1e-12, a zero u
    cases = []
    for k in (1.0, -1.5, -0.3, 1e-13, -1e-13):
        u = -k / (np.multiply.outer(slopes, values).ravel() + k)
        array = _profile(u)  # reduced at the default block size
        cases.append((k, u, [elasticity_from_profile(array, gap) for gap in gaps],
                      array.bounds))
    monkeypatch.setattr(el, "_BLOCK", block)
    for k, u, array_es, array_bounds in cases:
        def factored():
            return _profile(factors=(slopes, values, k))

        assert sum(b.size for b in factored().blocks()) == distinct
        for gap, want in zip(gaps, array_es):
            es = elasticity_from_profile(factored(), gap)
            assert repr(es.forbidden) == repr(_live_reference(u, gap)) == repr(want.forbidden)
            assert es.contains_zero_u == bool(np.any(np.abs(u) < 1e-12)) == want.contains_zero_u
        assert factored().bounds == (float(u.min()), float(u.max())) == array_bounds
        profile = factored()
        assert profile.size == slopes.size * values.size
        assert np.array_equal(profile.samples, u)
    assert any(es.contains_zero_u for case in cases for es in case[2])


def test_a_negative_gap_resolution_is_refused():
    # a negative gap would split repeated samples, and the set reduction of
    # a factored profile would no longer be that of its array
    with pytest.raises(ValidationError, match="gap_resolution"):
        elasticity_from_profile(_profile([0.5, 0.5]), gap_resolution=-1.0)
    with pytest.raises(ValidationError, match="gap_resolution"):
        elasticity_from_profile(_profile([0.5]), gap_resolution=np.nan)


def test_the_profile_draws_no_cocycle_samples(monkeypatch, const_rotation, golden_cos):
    # the profile is g's dt_attainable at the first usable order; it builds
    # no mu, so mu's sampled residual is never drawn
    from lcsdyn import torus

    cases = [(const_rotation, 1.0, (-10, 10)), (golden_cos, -1.5, (-2, 2))]
    want = [torus.build_mu(sys, k, window).gcons.dt_attainable()
            for sys, k, window in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the profile drew cocycle samples")

    monkeypatch.setattr(torus.MuConstruction, "mu_cocycle_residual", refuse)
    for (sys, k, window), (slopes, values) in zip(cases, want):
        profile = mapping_torus_profile(sys, k, window)
        assert np.array_equal(profile._slopes, slopes)
        assert np.array_equal(profile._values, values)
        assert profile._k == k


def test_construction_profile_memory_peaks():
    # golden cos at the benchmark's construction size: 4097 cutoff slopes
    # times 512 factor values give a 16 MiB profile, which is kept as its
    # two factors; every reduction builds it one block at a time
    import tracemalloc

    def cos(grid):
        return rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]},
                               grid_resolution=grid)

    # first use imports and caches outside the measured window
    mapping_torus_profile(cos(64), -1.5, (-2, 2))
    sys = cos(1024)
    tracemalloc.start()
    try:
        profile = mapping_torus_profile(sys, -1.5, (-2, 2))
        profile_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        es = elasticity_from_profile(profile)
        elasticity_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        bounds, first_kind = profile.bounds, first_kind_test(profile)
        summary_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.size == 4097 * 512
    assert profile_peak <= 6 * 2**20
    assert elasticity_peak <= 4 * 2**20
    assert summary_peak <= 4 * 2**20
    # the same numbers as the out-of-place arithmetic on the whole array
    from lcsdyn.torus import build_mu

    gcons = build_mu(sys, -1.5, (-2, 2)).gcons
    dt = np.multiply.outer(*gcons.dt_attainable()).ravel()
    assert np.array_equal(profile.samples, -gcons.k / (dt + gcons.k))
    assert es.forbidden == _reference_forbidden(profile.samples, 1e-3)
    assert bounds == (float(profile.samples.min()), float(profile.samples.max()))
    assert not first_kind
