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
from lcsdyn.elastic import degeneracy_criterion, profile_from_csv


def in_intervals(intervals, c, slack=1e-12):
    return any(a - slack <= c <= b + slack for a, b in intervals)


def test_first_kind_profile():
    p = LiouvilleProfile(np.full(16, -1.0))
    es = elasticity_from_profile(p)
    assert es.forbidden == [(0.0, 0.0)]
    assert es.allows(1.0) and es.allows(-2.5) and not es.allows(0.0)
    assert first_kind_test(p)


def test_unit_profile():
    p = LiouvilleProfile(np.full(8, 1.0))
    es = elasticity_from_profile(p)
    assert es.forbidden == [(2.0, 2.0)]
    assert not first_kind_test(p)


def test_dense_interval_profile_against_scan():
    p = LiouvilleProfile(np.linspace(1.0, 2.0, 4001))
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
    p = LiouvilleProfile(np.concatenate([np.full(9, -1.0), [-0.5]]))
    assert not first_kind_test(p)
    es = elasticity_from_profile(p)
    assert not es.allows(0.0) and not es.allows(-1.0)  # (1-0.5)/(-0.5) = -1


def test_zero_samples_contribute_nothing():
    p = LiouvilleProfile(np.array([0.0, 1.0, 0.0]))
    es = elasticity_from_profile(p)
    assert es.contains_zero_u
    assert es.forbidden == [(2.0, 2.0)]
    all_zero = elasticity_from_profile(LiouvilleProfile(np.zeros(4)))
    assert all_zero.forbidden == []


def test_elasticity_open_complement():
    # reported forbidden sets are closed, so the complement is open
    p = LiouvilleProfile(np.array([0.5, 0.51, 0.52, 3.0]))
    es = elasticity_from_profile(p, gap_resolution=0.05)
    for a, b in es.forbidden:
        assert not es.allows(a) and not es.allows(b)
    assert es.allows(a - 1e-9) or in_intervals(es.forbidden, a - 1e-9)


def test_profile_validation():
    with pytest.raises(ValidationError):
        LiouvilleProfile(np.array([]))
    with pytest.raises(ValidationError):
        LiouvilleProfile(np.array([1.0, np.inf]))


def test_profile_csv_roundtrip(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("u\n-1.0\n-1.0\n-1.0\n")
    p = profile_from_csv(path)
    assert first_kind_test(p)
    bare = tmp_path / "bare.csv"
    bare.write_text("0.5\n1.5\n")
    assert profile_from_csv(bare).samples.tolist() == [0.5, 1.5]


def test_mapping_torus_profile_constant(const_rotation):
    prof = mapping_torus_profile(const_rotation, 1.0, (-10, 10), rng=0)
    es = elasticity_from_profile(prof, gap_resolution=5e-3)
    # slopes stay in [-a, 0] with a < 1, so the forbidden set sits in [0, a]
    lo = min(a for a, _ in es.forbidden)
    hi = max(b for _, b in es.forbidden)
    assert lo >= -1e-12
    assert hi < 1.0
    assert es.allows(1.0)
    assert es.equality and not es.contains_zero_u


def test_mapping_torus_profile_strict_mu(golden_strict):
    prof = mapping_torus_profile(golden_strict, 1.0, (-10, 10), strict_mu=True)
    assert first_kind_test(prof)
    es = elasticity_from_profile(prof)
    assert es.forbidden == [(0.0, 0.0)]


def test_mapping_torus_profile_links_to_gap(const_rotation):
    # sizes ck with c in the computed elasticity avoid the average gap {0.2}
    prof = mapping_torus_profile(const_rotation, 1.0, (-10, 10), rng=0)
    es = elasticity_from_profile(prof, gap_resolution=5e-3)
    for c in np.arange(-3, 3, 0.01):
        if es.allows(c) and not in_intervals(es.forbidden, c, slack=1e-3):
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


def test_rank_parse_errors():
    with pytest.raises(ValidationError):
        PeriodGroup.parse(["sqrt2"])
    with pytest.raises(ValidationError):
        PeriodGroup.parse([1.5])  # floats are not exact


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


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
def test_chunked_gap_scan_matches_full_diff(monkeypatch, chunk):
    import lcsdyn.elastic as el

    monkeypatch.setattr(el, "_GAP_CHUNK", chunk)
    rng = np.random.default_rng(2)
    for size in (1, 2, 7, 8, 50, 1000):
        u = -rng.choice([0.3, 0.5, 2.0, 5.0], size) * (1.0 + 0.01 * rng.random(size))
        es = elasticity_from_profile(LiouvilleProfile(u), gap_resolution=0.01)
        assert es.forbidden == _reference_forbidden(u, 0.01)


def test_construction_profile_memory_peaks():
    # golden cos at the benchmark's construction size: 4097 cutoff slopes
    # times 512 factor values give a 16 MiB profile; u is built in place of
    # the slope products, and the elasticity set sorts one value array
    import tracemalloc

    def cos(grid):
        return rotation_system("golden", {"type": "trig", "cos": [[1, 1.0]]},
                               grid_resolution=grid)

    # first use imports and caches outside the measured window
    mapping_torus_profile(cos(64), -1.5, (-2, 2), rng=1, s_count=65)
    sys = cos(1024)
    tracemalloc.start()
    try:
        profile = mapping_torus_profile(sys, -1.5, (-2, 2), rng=1)
        profile_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        es = elasticity_from_profile(profile)
        elasticity_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.samples.size == 4097 * 512
    assert profile_peak <= 20 * 2**20
    assert elasticity_peak <= 36 * 2**20
    # the same numbers as the out-of-place arithmetic
    from lcsdyn.torus import build_mu

    mu = build_mu(sys, -1.5, (-2, 2), rng=1, samples=128)
    dt = mu.gcons.dt_attainable()
    assert np.array_equal(profile.samples, -mu.k / (dt + mu.k))
    assert es.forbidden == _reference_forbidden(profile.samples, 1e-3)
