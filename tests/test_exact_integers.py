"""Exact finite arithmetic on scaled integers against plain-Fraction oracles.

Exact systems keep their factor table as the integers h * D (D the common
denominator) and build Fractions only at the boundary.  Every oracle here
walks the permutation with Fractions (or, for float tables, with the float
formulas of the generic code) and shares no code with the library.
"""

import csv
import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lcsdyn import birkhoff, cli
from lcsdyn.birkhoff import (
    birkhoff_extrema,
    birkhoff_table,
    coboundary_residual_curve,
    limit_estimates,
    table_to_csv,
)
from lcsdyn.core import (
    MAX_SCALED_BITS,
    BudgetError,
    as_rational,
    eval_factor,
    finite_permutation_system,
    int_dtype,
    integer_array,
    orbit_array,
    scaled_floats,
    sum_dtype,
)
from lcsdyn.ergopt import coboundary_optima, cycle_mean_extrema, is_strict_finite
from lcsdyn.birkhoff import transfer_potential_values
from lcsdyn.torus import _averaged_tables

from conftest import cycle_pairs

# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------


def _primes(lo, hi):
    return [p for p in range(max(lo, 2), hi) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _coprime_system(rng, primes, m, h_bound=3):
    """Random permutation of m states whose factor denominators are distinct
    primes (pairwise coprime), numerators in [-h_bound q, h_bound q]."""
    q = [int(v) for v in rng.choice(primes, size=m, replace=False)]
    vals = [Fraction(int(rng.integers(-h_bound * d, h_bound * d + 1)), d) for d in q]
    return finite_permutation_system(rng.permutation(m).tolist(), vals)


def _cycles(table):
    """Cycles of a permutation, each listed from its least state in map order."""
    seen, out = set(), []
    for s in range(len(table)):
        cyc, x = [], s
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = table[x]
        if cyc:
            out.append(cyc)
    return out


def _potential(table, h, level):
    """h + f o psi - f = level along every non-closing cycle edge, min f = 0."""
    f = [None] * len(table)
    for cyc in _cycles(table):
        f[cyc[0]] = h[cyc[0]] * 0
        for a, b in zip(cyc, cyc[1:]):
            f[b] = f[a] - (h[a] - level)
    low = min(f)
    return [v - low for v in f]


def _oracle_minmax(table, h):
    """(value, potential, certificate) of inf_f max (h + f o psi - f)."""
    means = [sum(h[x] for x in c) / (len(c) if isinstance(h[0], Fraction) else float(len(c)))
             for c in _cycles(table)]
    M = max(means)
    f = _potential(table, h, M)
    return M, f, max(h[x] + f[table[x]] - f[x] for x in range(len(table))) - M


def _oracle_maxmin(table, h):
    M, f, cert = _oracle_minmax(table, [-v for v in h])
    neg = [-v for v in f]
    low = min(neg)
    return -M, [v - low for v in neg], cert


def _oracle_residual_bound(table, h):
    """sup |S_n(x) - n mean| over every start and 0 < n < L, walked one step at a time."""
    R = 0
    for cyc in _cycles(table):
        mean = sum(h[x] for x in cyc) / len(cyc)
        for start in cyc:
            s, x = 0, start
            for n in range(1, len(cyc)):
                s += h[x]
                x = table[x]
                R = max(R, abs(s - n * mean))
    return R


def _oracle_averages(sys, n_max):
    """A_n(p) for every state p and n = 1..n_max, as Fractions."""
    h, table = sys.factor_table, sys.perm_table
    A, S, cur = [], [Fraction(0)] * len(table), list(range(len(table)))
    for n in range(1, n_max + 1):
        S = [s + h[c] for s, c in zip(S, cur)]
        cur = [table[c] for c in cur]
        A.append([s / n for s in S])
    return A


# --------------------------------------------------------------------------
# systems: int64 sums, object-int sums (rows fit int64, sums do not), object rows
# --------------------------------------------------------------------------

N_MAX = 16
SMALL_PRIMES = _primes(100, 400)
BIG_PRIMES = _primes(2**20 - 400, 2**20)  # D of 3 of them is about 2^60
HUGE_PRIMES = _primes(10**6, 10**6 + 400)


def _case(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "int64":
        return _coprime_system(rng, SMALL_PRIMES, int(rng.integers(1, 7)))
    if kind == "object-sums":
        return _coprime_system(rng, BIG_PRIMES, 3, h_bound=1)
    return _coprime_system(rng, HUGE_PRIMES, int(rng.integers(8, 14)))


CASES = [(kind, seed) for kind in ("int64", "object-sums", "object-rows") for seed in range(4)]


def test_cases_cover_each_integer_path():
    assert all(sum_dtype(_case("int64", s), N_MAX) is np.int64 for s in range(4))
    for s in range(4):
        sys = _case("object-sums", s)
        big = max(abs(v) for v in sys.scaled_table.tolist())
        assert big < 2**63 <= big * N_MAX  # D * max|h| * n_max exceeds 2^63
        assert sum_dtype(sys, 1) is np.int64 and sum_dtype(sys, N_MAX) is object
    assert all(sum_dtype(_case("object-rows", s), 1) is object for s in range(4))
    # the record of the cycle walk keeps each path: its values are int64 while
    # 8 max|h * scale| L^2 < 2^63
    for kind, dtype in (("int64", np.int64), ("object-sums", object), ("object-rows", object)):
        assert all(cycle_mean_extrema(_case(kind, s)).vals.dtype == dtype for s in range(4))
    assert all(_case("object-rows", s).scaled_table.dtype == object for s in range(4))


def test_the_width_rule_flips_at_two_to_the_63():
    for bound, terms in ((2**63 - 1, 1), (2**62 - 1, 2), (2**60, 7), (1, 2**63 - 1)):
        assert int_dtype(bound, terms) is np.int64
    for bound, terms in ((2**63, 1), (2**62, 2), (2**60, 8), (1, 2**63)):
        assert int_dtype(bound, terms) is object
    # sums of a system's integers, and the cycle walk's 8 L^2 terms
    sys = finite_permutation_system([1, 0], [Fraction(2**61), Fraction(-1)])
    assert sys.scaled_bound == 2**61
    assert sum_dtype(sys, 3) is np.int64 and sum_dtype(sys, 4) is object
    for h, dtype in ((2**58 - 1, np.int64), (2**58, object)):  # L = 2: 32 terms
        swap = finite_permutation_system([1, 0], [h, -h])
        dec = cycle_mean_extrema(swap)
        assert dec.vals.dtype == dtype and dec.vals.tolist() == [h, -h] and dec.means == [0]
        assert coboundary_optima(swap)[1].potential_table == [h, 0]


@pytest.mark.parametrize("kind,seed", CASES)
def test_scaled_table_is_h_times_the_common_denominator(kind, seed):
    sys = _case(kind, seed)
    assert sys.exact
    assert sys.scale == math.lcm(*(v.denominator for v in sys.factor_table))
    assert sys.scaled_table.tolist() == [v * sys.scale for v in sys.factor_table]
    assert all(type(v) is int for v in sys.scaled_table.tolist())


@pytest.mark.parametrize("kind,seed", CASES)
def test_cycle_optima_match_the_fraction_oracle(kind, seed):
    sys = _case(kind, seed)
    table, h = sys.perm_table, sys.factor_table
    dec = cycle_mean_extrema(sys)
    want = {tuple(c): sum(h[x] for x in c) / len(c) for c in _cycles(table)}
    assert dict(cycle_pairs(dec)) == want
    assert dec.max_mean == max(want.values()) and dec.min_mean == min(want.values())
    lo, hi = coboundary_optima(sys)
    for res, (value, f, cert) in ((hi, _oracle_minmax(table, h)),
                                  (lo, _oracle_maxmin(table, h))):
        assert res.value == value and res.certificate == cert == 0
        assert res.potential_table == f
        assert all(isinstance(v, Fraction) for v in res.potential_table)
        assert [res.potential(i) for i in range(len(table))] == f
    est = limit_estimates(birkhoff_extrema(sys, n_max=2))
    assert (est.L_minus, est.L_plus) == (min(want.values()), max(want.values()))


@pytest.mark.parametrize("kind,seed", CASES)
def test_cycle_residual_bound_matches_the_fraction_oracle(kind, seed):
    sys = _case(kind, seed)
    dec = cycle_mean_extrema(sys)
    want = _oracle_residual_bound(sys.perm_table, sys.factor_table)
    assert dec.drift_span == want
    assert isinstance(dec.drift_span, Fraction)


@pytest.mark.parametrize("kind,seed", CASES)
def test_is_strict_finite_matches_the_fraction_oracle(kind, seed):
    sys = _case(kind, seed)
    table, h = sys.perm_table, sys.factor_table
    strict = all(sum(h[x] for x in c) == 0 for c in _cycles(table))
    assert is_strict_finite(sys) == (strict, _potential(table, h, 0) if strict else None)
    # the coboundary of a random f (mean zero on every cycle) is strict
    f = [Fraction(int(v), d.denominator) for v, d in zip(range(-3, len(h) - 3), h)]
    cob = finite_permutation_system(table, [f[x] - f[table[x]] for x in range(len(table))])
    flag, g = is_strict_finite(cob)
    assert flag and g == _potential(table, cob.factor_table, 0)
    assert all(cob.factor_table[x] == g[x] - g[table[x]] for x in range(len(table)))


@pytest.mark.parametrize("kind,seed", CASES)
def test_birkhoff_extrema_and_table_match_the_fraction_oracle(kind, seed, tmp_path):
    sys = _case(kind, seed)
    A = _oracle_averages(sys, N_MAX)
    ext = birkhoff_extrema(sys, n_max=N_MAX).extrema_per_n
    assert list(ext["min_avg"]) == [min(r) for r in A]
    assert list(ext["max_avg"]) == [max(r) for r in A]
    assert list(ext["inf_env_minus"]) == [min(min(r) for r in A[n:]) for n in range(N_MAX)]
    assert list(ext["sup_env_plus"]) == [max(max(r) for r in A[n:]) for n in range(N_MAX)]
    t = birkhoff_table(sys, n_max=N_MAX)
    env_minus = [[min(A[i][p] for i in range(n, N_MAX)) for p in range(len(A[0]))]
                 for n in range(N_MAX)]
    env_plus = [[max(A[i][p] for i in range(n, N_MAX)) for p in range(len(A[0]))]
                for n in range(N_MAX)]
    sums = [[a * (n + 1) for a in row] for n, row in enumerate(A)]
    for mine, want in ((t.sums, sums), (t.averages, A), (t.env_minus, env_minus),
                       (t.env_plus, env_plus)):
        assert mine.tolist() == want
        assert all(isinstance(v, Fraction) for v in mine.flat)
    path = tmp_path / "birkhoff.csv"
    table_to_csv(t, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [[str(p), str(n + 1), str(sums[n][p]), str(A[n][p]), str(env_minus[n][p]),
                     str(env_plus[n][p])] for p in range(len(A[0])) for n in range(N_MAX)]


def _ratio_strings(a, q):
    """str(Fraction(a, q)) of integers broadcast together, in C order."""
    a, q = np.broadcast_arrays(np.asarray(a, dtype=object), np.asarray(q, dtype=object))
    return [str(Fraction(x, d)) for x, d in zip(a.ravel().tolist(), q.ravel().tolist())]


def _per_block_csv(table, path):
    """birkhoff.csv of an exact table as written before one envelope pass
    covered the whole table: ``_suffix_rows`` ran on each block's own sums,
    and every cell is the str of its Fraction."""
    sys, n_max = table.system, table.n_max
    orders = integer_array([n * sys.scale for n in range(1, n_max + 1)])[:, None]
    labels = [str(int(p)) for p in table.points]
    ns = [f",{n}," for n in range(1, n_max + 1)]
    step = max(1, birkhoff.CSV_CHUNK_ROWS // n_max)
    with open(path, "w", newline="") as fh:
        fh.write("point,n,S_n,A_n,env_minus,env_plus\r\n")
        for lo in range(0, len(labels), step):
            block = slice(lo, lo + step)
            S = table.running_sums[:, block]
            averages = np.array(_ratio_strings(S, orders), dtype=object).reshape(S.shape)
            cols = [_ratio_strings(S.T, sys.scale), averages.T.ravel().tolist(),
                    *(np.take_along_axis(averages, birkhoff._suffix_rows(S, better), axis=0)
                      .T.ravel().tolist() for better in (np.less, np.greater))]
            heads = [label + n for label in labels[block] for n in ns]
            fh.write("".join([f"{h}{s},{a},{e},{E}\r\n"
                              for h, s, a, e, E in zip(heads, *cols)]))


def _fraction_system(m, seed):
    rng = np.random.default_rng(seed)
    return finite_permutation_system(
        rng.permutation(m).tolist(),
        [Fraction(int(a), int(q)) for a, q in zip(rng.integers(-30, 31, size=m),
                                                 rng.integers(1, 9, size=m))])


@pytest.mark.parametrize("chunk", [None, 40])
@pytest.mark.parametrize("case", ["41x200", "200x200", "41x1", "200x1", "object-sums-0",
                                  "object-sums-1"])
def test_table_csv_equals_the_per_block_writer(case, chunk, tmp_path, monkeypatch):
    # 41 and 200 points are not multiples of the 40-point blocks at n_max = 200;
    # a chunk of 40 rows puts the object-sums table's 3 points in 3 blocks
    if chunk is not None:
        monkeypatch.setattr(birkhoff, "CSV_CHUNK_ROWS", chunk)
    if case.startswith("object-sums"):
        sys, n_max = _case("object-sums", int(case[-1])), N_MAX
    else:
        m, n_max = map(int, case.split("x"))
        sys = _fraction_system(m, m + n_max)
    table = birkhoff_table(sys, n_max=n_max)
    assert table.exact
    if case.startswith("object-sums"):
        assert table.running_sums.dtype == object
    table_to_csv(table, tmp_path / "mine.csv")
    _per_block_csv(table, tmp_path / "ref.csv")
    assert (tmp_path / "mine.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("kind,seed", CASES)
def test_residual_curve_is_exactly_zero(kind, seed):
    curve = coboundary_residual_curve(_case(kind, seed), N_MAX)
    assert curve.shape == (N_MAX,)
    assert all(isinstance(v, Fraction) and v == 0 for v in curve)


def test_residual_curve_on_the_swap_pair():
    # crashed with numpy's UFuncOutputCastingError (float sums += Fraction rows)
    sys = finite_permutation_system([1, 0, 2], [0, 4, 1])
    assert list(coboundary_residual_curve(sys, 7)) == [0] * 7


def test_float_table_keeps_the_float_path():
    rng = np.random.default_rng(3)
    m = 40
    table = rng.permutation(m).tolist()
    h = rng.uniform(-2.0, 2.0, size=m).tolist()
    sys = finite_permutation_system(table, h)
    assert not sys.exact and sys.scale is None and sys.scaled_table.tolist() == h
    dec = cycle_mean_extrema(sys)
    assert dict(cycle_pairs(dec)) == {tuple(c): sum(h[x] for x in c) / float(len(c))
                                for c in _cycles(table)}
    lo, hi = coboundary_optima(sys)
    for res, (value, f, cert) in ((hi, _oracle_minmax(table, h)),
                                  (lo, _oracle_maxmin(table, h))):
        assert (res.value, res.potential_table, res.certificate) == (value, f, cert)
    dec_mean = dict(cycle_pairs(dec))
    R = 0
    for cyc in _cycles(table):
        d = lo = hi = 0
        for x in cyc[:-1]:
            d += h[x] - dec_mean[tuple(cyc)]
            lo, hi = min(lo, d), max(hi, d)
        R = max(R, hi - lo)
    assert dec.drift_span == R
    n_max = 30
    H = np.array([[h[x] for x in _walk(table, i)] for i in range(n_max)])
    S = np.cumsum(H, axis=0)
    want = S / np.arange(1, n_max + 1, dtype=float)[:, None]
    ext = birkhoff_extrema(sys, n_max=n_max).extrema_per_n
    assert np.array_equal(ext["min_avg"], want.min(axis=1))
    assert np.array_equal(ext["sup_env_plus"],
                          np.maximum.accumulate(want.max(axis=1)[::-1])[::-1])
    assert coboundary_residual_curve(sys, n_max).dtype == float


def _walk(table, i):
    """psi^i of every state."""
    cur = list(range(len(table)))
    for _ in range(i):
        cur = [table[c] for c in cur]
    return cur


@pytest.mark.parametrize("kind,seed", CASES)
def test_orbit_tables_round_the_exact_values(kind, seed):
    sys = _case(kind, seed)
    table, h = sys.perm_table, sys.factor_table
    pts = sys.space.sample_points()
    rows = [[h[x] for x in _walk(table, i)] for i in range(N_MAX)]
    # exact rows are the integers h * scale
    scaled = [[v * sys.scale for v in r] for r in rows]
    assert orbit_array(sys, pts, N_MAX).tolist() == scaled
    floats = [[float(v) for v in r] for r in rows]
    assert scaled_floats(orbit_array(sys, pts, N_MAX), sys.scale).tolist() == floats
    assert _averaged_tables(sys, 1, pts, N_MAX, 0).tolist() == floats
    assert coboundary_residual_curve(sys, N_MAX)[-1] == 0
    for n in (1, 2, N_MAX):
        here, there = transfer_potential_values(sys, pts, n)
        f_n = [sum((n - 1 - j) * rows[j][p] for j in range(n - 1)) / n for p in pts]
        f_next = [sum((n - 1 - j) * rows[j + 1][p] for j in range(n - 1)) / n for p in pts]
        assert here.dtype == there.dtype == float
        assert here.tolist() == [float(v) for v in f_n]
        assert there.tolist() == [float(v) for v in f_next]
        exact_here, exact_there = transfer_potential_values(sys, pts, n, exact=True)
        assert exact_here.tolist() == f_n and exact_there.tolist() == f_next


def test_scaled_floats_round_as_fractions_do():
    rng = np.random.default_rng(7)
    for bits in (20, 52, 53, 60, 62):
        ints = rng.integers(-2**bits, 2**bits, size=200)
        for D in (1, 3, 10**6 + 3, 2**53 - 1, 2**53 + 1, 3**40):
            want = [float(Fraction(int(i), D)) for i in ints]
            assert scaled_floats(ints, D).tolist() == want
            assert scaled_floats(ints.astype(object) * 3**30, D).tolist() == \
                [float(Fraction(int(i) * 3**30, D)) for i in ints]
    assert scaled_floats(np.zeros((0, 4), np.int64), 7).shape == (0, 4)


def test_table_over_the_scaled_size_budget_is_a_budget_error(tmp_path):
    # 1/p for 2000 primes above 10^4: D has about 28000 bits, so the integers
    # h * D would take 2000 times that where the Fractions take some 100 kB
    primes = _primes(10**4, 30000)[:2000]
    assert len(primes) == 2000
    table = list(range(1, 2000)) + [0]
    values = [f"1/{p}" for p in primes]
    sys = finite_permutation_system(table, values)
    assert sys.exact
    assert 2000 * math.lcm(*primes).bit_length() > MAX_SCALED_BITS
    # building, copying and float evaluation never scale the table
    for s in (sys, replace(sys)):
        assert eval_factor(s, np.arange(2000)).shape == (2000,)
    for consumer in (cycle_mean_extrema, lambda s: birkhoff_extrema(s, n_max=2),
                     lambda s: orbit_array(s, s.space.sample_points(), 2)):
        with pytest.raises(BudgetError, match="exact factor table too large"):
            consumer(sys)
    config = cli.RunConfig(command="analyze", n_max=4, out=str(tmp_path / "out"),
                           cache_dir=str(tmp_path / "cache"),
                           system={"space": {"kind": "finite", "size": 2000},
                                   "map": {"type": "permutation", "table": table},
                                   "factor": {"type": "table", "values": values}})
    report, code = cli.run(config)
    assert code == 3 and "exact factor table too large" in report["error"]
    # the same primes in one short cycle stay within budget
    small = finite_permutation_system([1, 2, 0], [f"1/{p}" for p in primes[:3]])
    assert cycle_mean_extrema(small).max_mean == sum(Fraction(1, p) for p in primes[:3]) / 3


# --------------------------------------------------------------------------
# "p/q" parsing
# --------------------------------------------------------------------------


def _reference(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


@pytest.mark.parametrize("s", ["3_000/4", " 3/4", "+2/4", "1.5", "3/0", "-0/5", "3/00",
                               "--3/4", "-/4", "3/", "/4", "3/4/5", "3/-4", "٣/4",
                               "12", "-7", "", "abc", "3 /4", "0007/0008"])
def test_as_rational_matches_fraction_parsing(s):
    got = as_rational(s)
    want = _reference(s)
    assert got == want and type(got) is type(want)


def test_as_rational_fast_path_on_random_ratios():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        p = int(rng.integers(-10**12, 10**12))
        q = int(rng.integers(1, 10**12))
        s = f"{p}/{q}"
        got = as_rational(s)
        assert got == Fraction(s) == Fraction(p, q)
        assert (got.numerator, got.denominator) == (Fraction(s).numerator, Fraction(s).denominator)


# --------------------------------------------------------------------------
# config echo and cache key
# --------------------------------------------------------------------------


def test_config_echo_and_cache_key_serialise_like_plain_json(tmp_path):
    odd = {
        "tuple": (1, 2.5, (3, "x")),
        "np_int": np.int64(3),
        "np_float": np.float32(0.25),
        "np_float64": np.float64(0.1),
        "np_bool": np.bool_(True),
        "array": np.arange(3),
        "float_array": np.array([[0.5, -1.0]]),
        "fraction": Fraction(-2, 6),
        "fractions": [Fraction(1, 3), {"nested": Fraction(5)}],
    }
    plain = {
        "tuple": [1, 2.5, [3, "x"]],
        "np_int": 3,
        "np_float": 0.25,
        "np_float64": 0.1,
        "np_bool": True,
        "array": [0, 1, 2],
        "float_array": [[0.5, -1.0]],
        "fraction": "-1/3",
        "fractions": ["1/3", {"nested": "5"}],
    }

    def encoded(params, system):
        # rank reads neither system nor k_range nor params.method, so no run
        # takes these values: the key and the echo hash what the config holds
        config = cli.RunConfig(command="rank", system=system, k_range=(0.0, 1.0, 0.5),
                               params={"generators": ["1", "s"], "method": params})
        return cli.cache_key(config.canonical()), cli._compact(config.canonical())

    assert (encoded(odd, {"factor": odd["fractions"], "map": odd})
            == encoded(plain, {"factor": plain["fractions"], "map": plain}))
    # report.json echoes the text the key hashes
    report, code = cli.run(cli.RunConfig(command="rank", params={"generators": (Fraction(1),)},
                                         out=str(tmp_path / "r")))
    assert code == 0 and report["config"]["params"] == {"generators": (Fraction(1),)}
    with open(tmp_path / "r" / "report.json") as fh:
        assert fh.read().startswith('{"config":' + cli._compact(report["config"]) + ",")


def test_canonical_config_shares_the_declaration():
    system = {"map": {"table": list(range(5))}}
    config = cli.RunConfig(command="analyze", system=system)
    canonical = config.canonical()
    assert canonical["system"] is system
    assert set(canonical) == {"command", "system", "n_max", "grid", "k", "k_range", "seed",
                              "tolerances", "params"}
    with pytest.raises(TypeError):
        cli.cache_key({**canonical, "params": {"bad": {1, 2}}})
