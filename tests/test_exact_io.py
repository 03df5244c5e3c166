"""Exact finite systems at the boundary: ingest of factor tables, the integer
cell writer, and the CSV artifacts written from integers.

The oracles are the Fraction-based code this integer path replaced: parsing
every entry with ``as_rational``, formatting every cell as ``str(Fraction)``
and writing rows with the csv module.
"""

import csv
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lcsdyn import cli
from lcsdyn.birkhoff import birkhoff_table, extrema_to_csv, table_to_csv
from lcsdyn.core import (
    GOLDEN_ANGLE,
    BudgetError,
    RationalTable,
    ValidationError,
    _lowest_terms,
    as_rational,
    cat_map_system,
    decimal_bytes,
    eval_factor,
    finite_permutation_system,
    fraction_bytes,
    join_rows,
    rotation_system,
    sum_dtype,
)
from lcsdyn.ergopt import coboundary_optima

from conftest import scalar_factor

# --------------------------------------------------------------------------
# oracles: the Fraction-based ingest and writers
# --------------------------------------------------------------------------


def _old_table(values):
    """The factor table as every entry's as_rational, or floats."""
    rationals = [as_rational(v) for v in values]
    if all(r is not None for r in rationals):
        return tuple(rationals)
    return tuple(float(v) for v in values)


def _old_exact(values):
    """(exact, scale, scaled_table) of a factor table, from its Fractions."""
    vals = _old_table(values)
    if not all(isinstance(v, Fraction) for v in vals):
        return False, None, vals
    D = math.lcm(*(v.denominator for v in vals))
    return True, D, tuple(v.numerator * (D // v.denominator) for v in vals)


def _old_columns(table):
    """(S_n, A_n, env-, env+) as (n_max, P) arrays: Fractions or floats."""
    S, scale = table.running_sums, table.system.scale
    ns = np.arange(1, table.n_max + 1)[:, None]
    if scale is None:
        A = S / ns
    else:
        frac = np.frompyfunc(Fraction, 2, 1)
        A = frac(S.astype(object), ns.astype(object) * scale)
        S = frac(S.astype(object), scale)
    return (S, A, np.minimum.accumulate(A[::-1], axis=0)[::-1],
            np.maximum.accumulate(A[::-1], axis=0)[::-1])


def _old_cells(a):
    a = np.asarray(a)
    return list(map(str if a.dtype == object else repr, a.tolist()))


def _old_table_to_csv(table, path):
    def fmt_point(p):
        if table.system.space.kind == "finite":
            return str(int(p))
        if np.ndim(p):  # a torus point: its coordinates joined by ":"
            return ":".join(repr(float(c)) for c in p)
        return repr(float(p))

    n_max = table.n_max
    labels = (label for label in map(fmt_point, table.points) for _ in range(n_max))
    cols = [_old_cells(a.T.ravel()) for a in _old_columns(table)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["point", "n", "S_n", "A_n", "env_minus", "env_plus"])
        w.writerows(zip(labels, itertools.cycle(range(1, n_max + 1)), *cols))


def _old_extrema_to_csv(table, path):
    ex = table.extrema_per_n
    cols = [_old_cells(ex[key]) for key in
            ("min_avg", "max_avg", "inf_env_minus", "sup_env_plus")]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "min_avg", "max_avg", "inf_env_minus", "sup_env_plus"])
        w.writerows(zip(range(1, table.n_max + 1), *cols))


def _old_potential_csv(result, path):
    cells = map(str, np.asarray(list(result.potential_table)
                                if isinstance(result.potential_table, RationalTable)
                                else result.potential_table).tolist())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "f"])
        w.writerows(enumerate(cells))


# --------------------------------------------------------------------------
# the cell writer
# --------------------------------------------------------------------------


def _want(a, q):
    a, q = np.broadcast_arrays(np.asarray(a, dtype=object), np.asarray(q, dtype=object))
    return [str(Fraction(int(x), int(d))) for x, d in zip(a.ravel(), q.ravel())]


def _cells(block):
    """The text of a byte block's cells, NULs dropped."""
    assert block.dtype == np.uint8 and block.ndim == 2
    return [bytes(row).replace(b"\0", b"").decode() for row in block]


def _right_aligned(block):
    """Every cell of a decimal_bytes block is its text after NUL padding."""
    return all(b"\0" not in bytes(row).lstrip(b"\0") for row in block)


def _ratio_cells(a, q):
    """The cells of a / q in lowest terms, as table_to_csv writes them."""
    return _cells(fraction_bytes(*_lowest_terms(a, q)))


@pytest.mark.parametrize("bits", [8, 31, 62])
def test_fraction_bytes_match_str_fraction_on_int64(bits):
    rng = np.random.default_rng(bits)
    # denominators: products of two large primes, so most cells stay unreduced
    q = (rng.choice([1_000_003, 999_983, 1_000_033], size=400)
         * rng.choice([7, 11, 13, 1], size=400))
    a = rng.integers(-2**bits, 2**bits, size=400)
    a[:40] = 0
    a[40:80] = -3 * q[40:80]  # integer-valued, negative
    a[80:100] = q[80:100]  # exactly 1
    assert _ratio_cells(a, q) == _want(a, q)
    # broadcasting, in C order: a (n, P) table over per-row denominators
    table = a.reshape(20, 20)
    rows = np.arange(1, 21)[:, None] * 840
    assert _ratio_cells(table, rows) == _want(table, rows)
    assert _ratio_cells(table.T, 840) == _want(table.T, 840)
    assert _ratio_cells(np.zeros((0, 3), np.int64), 7) == []


def test_fraction_bytes_match_str_fraction_past_int64():
    rng = np.random.default_rng(5)
    big_q = [2**63 + 25, 3**41, (2**61 - 1) * 7]
    for q in big_q:
        a = [int(v) * 2**40 + int(w) for v, w in zip(rng.integers(-2**40, 2**40, size=200),
                                                     rng.integers(0, 2**40, size=200))]
        a[:10] = [0, q, -q, 2 * q, -5 * q, 1, -1, q // 3, -(q // 7), 2**64]
        want = [str(Fraction(x, q)) for x in a]
        assert _ratio_cells(np.array(a, dtype=object), q) == want
        assert _ratio_cells(a, q) == want
    # numerators past int64 over int64 denominators, and -2^63 (|-2^63| overflows int64)
    a = [2**64 + 3, -(2**70), 2**63, -(2**63), 6]
    q = np.array([3, 6, 2, 3, 4], dtype=np.int64)
    assert _ratio_cells(a, q) == _want(a, q)
    assert _ratio_cells(np.array([-(2**63), 4], dtype=np.int64), 6) == ["-4611686018427387904/3",
                                                                         "2/3"]


# every edge of the digit count: 9, 10, 99, 100, ... up to 10^18 and int64's ends
EDGES = [0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63)] + [
    v for k in range(1, 19) for v in (10**k - 1, 10**k, -(10**k - 1), -(10**k))]


def test_decimal_bytes_match_str_at_every_digit_edge():
    # -2^63 sends an int64 array through str; without it the digit passes run
    for ints in (np.array(EDGES, dtype=np.int64), np.array(EDGES[:5] + EDGES[6:], np.int64),
                 np.array(EDGES, dtype=object)):
        block = decimal_bytes(ints)
        assert _cells(block) == list(map(str, ints.tolist())) and _right_aligned(block)
    for v in EDGES:  # one value alone sets the width
        assert _cells(decimal_bytes(np.array([v], dtype=np.int64))) == [str(v)]
    # a (n, P) array is written in C order
    grid = np.array(EDGES[6:30], dtype=np.int64).reshape(4, 6)
    assert _cells(decimal_bytes(grid)) == list(map(str, grid.ravel().tolist()))


def test_fraction_bytes_match_str_fraction_at_the_edges():
    # (10^k - 1) / 10^k from 9/10 to (10^18 - 1) / 10^18, in lowest terms
    a = np.array([10**k - 1 for k in range(1, 19)], dtype=np.int64)
    q = np.array([10**k for k in range(1, 19)], dtype=np.int64)
    for sign in (1, -1):
        assert _cells(fraction_bytes(sign * a, q)) == _want(sign * a, q)
    # q == 1 writes the numerator alone, at every width; the even values
    # here are +-10^k, which 3 does not divide
    ints = np.array(EDGES, dtype=np.int64)
    assert _cells(fraction_bytes(ints, 1)) == list(map(str, EDGES))
    assert _cells(fraction_bytes(ints[6:], np.where(ints[6:] % 2, 1, 3))) == _want(
        ints[6:], np.where(ints[6:] % 2, 1, 3))
    # object ints past int64, whole and not
    big = np.array([2**70, -(2**64) - 1, 3**50, 0], dtype=object)
    den = np.array([1, 2**65 + 1, 7, 1], dtype=object)
    assert _cells(fraction_bytes(big, den)) == _want(big, den)


def test_the_writer_takes_an_empty_input():
    for dtype in (np.int64, object):
        empty = np.zeros(0, dtype=dtype)
        assert decimal_bytes(empty).shape[0] == 0 and fraction_bytes(empty, empty).shape[0] == 0
        assert join_rows([decimal_bytes(empty), fraction_bytes(empty, 1)]) == b""


def test_join_rows_is_csv_writer_output(tmp_path):
    ints = np.array(EDGES, dtype=np.int64)
    q = np.where(ints % 3 == 0, 1, 7)
    a, q = _lowest_terms(ints, q)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(zip(range(len(ints)), _want(a, q), map(str, EDGES)))
    got = join_rows([decimal_bytes(np.arange(len(ints))), fraction_bytes(a, q),
                     decimal_bytes(ints)])
    assert got == (tmp_path / "want.csv").read_bytes()


# --------------------------------------------------------------------------
# ingest
# --------------------------------------------------------------------------


INGEST_TABLES = [
    ["3", "-0/5", "007/3", " 1/2", "1.5", "1e3"],
    ["1/2", "-3/4", "0/9", "-0/1", "6/4", "007/3"],  # the one-pass "p/q" parse
    ["123456789012345678/7", "-999999999999999999/999999999999999998", "5/1"],
    [f"{2**70}/3", "1/2", f"-{2**64}/{2**65 + 1}"],  # numerators past int64
    ["1234567890123456789/2", "1/3"],  # 19 digits: entry by entry
    [3, -7, 0, 12],
    [Fraction(1, 3), Fraction(-5, 7), 2, np.int64(4)],
    [Fraction(2**80, 3), "1/2", 7],
    [0.5, -1.25, 3, Fraction(1, 4)],  # a float table
]


@pytest.mark.parametrize("values", INGEST_TABLES)
def test_ingest_matches_the_fraction_path(values):
    m = len(values)
    sys = finite_permutation_system(list(range(1, m)) + [0], values)
    exact, scale, scaled = _old_exact(values)
    assert sys.exact == exact and sys.scale == scale
    assert isinstance(sys.factor_table, RationalTable) == exact
    mine = sys.scaled_table.tolist()
    assert mine == list(scaled) and all(type(v) is type(w) for v, w in zip(mine, scaled))
    old = _old_table(values)
    assert tuple(sys.factor_table) == old and sys.factor_table == old
    assert [type(v) for v in sys.factor_table] == [type(v) for v in old]
    assert eval_factor(sys, np.arange(m)).tolist() == [float(v) for v in old]
    assert [scalar_factor(sys)(i) for i in range(m)] == list(old)


@pytest.mark.parametrize("values", [
    ["3/2", "-1/4", "2/1", "0/7"],  # the one-pass "p/q" parse
    ["1.5", "-0.25", "2", "0"],
    [Fraction(3, 2), Fraction(-1, 4), 2, 0],
    [Fraction(6, 4), "-1/4", np.int64(2), "0.0"],
])
def test_every_spelling_of_a_rational_table_gives_one_rational_table(values):
    sys = finite_permutation_system([1, 2, 3, 0], values)
    table = sys.factor_table
    assert isinstance(table, RationalTable) and sys.exact
    assert table == RationalTable([3, -1, 2, 0], [2, 4, 1, 1])
    assert (table.numerators.tolist(), table.denominators.tolist()) == ([3, -1, 2, 0],
                                                                        [2, 4, 1, 1])
    assert sys.scale == 4 and sys.scaled_table.dtype == np.int64
    assert sys.scaled_table.tolist() == [6, -1, 8, 0]


def test_p_q_tables_parse_in_one_pass_and_keep_their_fractions_lazy():
    rng = np.random.default_rng(2)
    q = rng.integers(1, 10**6, size=500)
    p = rng.integers(-10**12, 10**12, size=500)
    values = [f"{a}/{b}" for a, b in zip(p.tolist(), q.tolist())]
    sys = finite_permutation_system(rng.permutation(500).tolist(), values)
    table = sys.factor_table
    assert isinstance(table, RationalTable)
    exact, scale, scaled = _old_exact(values)
    eval_factor(sys, np.arange(500))  # array evaluation reads the integers only
    assert (sys.exact, sys.scale, tuple(sys.scaled_table.tolist())) == (exact, scale, scaled)
    assert table._fractions is None  # no Fraction built yet
    cells = _cells(fraction_bytes(table.numerators, table.denominators))
    assert table._fractions is None  # the cell writer reads the integers only
    assert cells == [str(v) for v in _old_table(values)]
    assert list(table) == list(_old_table(values))


def test_over_budget_p_q_table_parses_and_raises_on_scale():
    # the table of tests/test_exact_integers.py: 1/p over 2000 primes above 10^4
    primes = [p for p in range(10**4, 30000)
              if all(p % d for d in range(2, math.isqrt(p) + 1))][:2000]
    sys = finite_permutation_system(list(range(1, 2000)) + [0], [f"1/{p}" for p in primes])
    assert isinstance(sys.factor_table, RationalTable) and sys.exact
    with pytest.raises(BudgetError, match="exact factor table too large"):
        sys.scale  # noqa: B018


def test_rational_table_compares_as_its_fractions():
    t = RationalTable([2, -3, 0], [4, 9, 5])
    assert t == (Fraction(1, 2), Fraction(-1, 3), 0) and t == [Fraction(1, 2), Fraction(-1, 3), 0]
    assert t != [Fraction(1, 2)] and t != "x"
    assert (t.numerators.tolist(), t.denominators.tolist()) == ([1, -1, 0], [2, 3, 1])
    assert t.floats().tolist() == [0.5, -1 / 3, 0.0]
    big = RationalTable([2**70, 3], 2**66)
    assert big.numerators.dtype == object and list(big) == [16, Fraction(3, 2**66)]


# --------------------------------------------------------------------------
# malformed tables exit 2
# --------------------------------------------------------------------------


def _finite(values):
    return {"space": {"kind": "finite"}, "map": {"type": "permutation", "table": [1, 2, 0]},
            "factor": {"type": "table", "values": values}}


BAD_TABLES = [
    (["1/0", "1/2", "1/3"], 0, "neither a number nor a rational"),  # was a ValueError
    (["1/2", "abc", "1/3"], 1, "neither a number nor a rational"),  # was a ValueError
    ([1, 2, None], 2, "neither a number nor a rational"),  # was a TypeError
    ([1, [1], 2], 1, "neither a number nor a rational"),  # was a TypeError
    (["1/-2", "1/2", "1/3"], 0, "neither a number nor a rational"),  # was a ValueError
    (["1/2", 0.5, "1/3"], 0, "is a string, but values[1] = 0.5"),  # was a ValueError
    ([True, 1, 2], 0, "neither a number nor a rational"),  # was read as 1.0
    (["1/2", "1/3", False], 2, "neither a number nor a rational"),  # was read as 0.0
    ([float("nan"), 1, 2], 0, "is not a finite number"),  # gave L_minus: nan, exact
    ([1, float("inf"), 0.5], 1, "is not a finite number"),
    ([1, 0.5, float("-inf")], 2, "is not a finite number"),
    ([Fraction(10**400), 0.5, 1], 0, "is not a finite number"),  # float() overflows
]


@pytest.mark.parametrize("values,index,reason", BAD_TABLES)
@pytest.mark.parametrize("command", ["analyze", "optimize"])
def test_malformed_factor_entries_exit_2(tmp_path, capsys, values, index, reason, command):
    config = cli.RunConfig(command=command, system=_finite(values), n_max=4,
                           out=str(tmp_path / "run"), cache_dir=str(tmp_path / "c"))
    report, code = cli.run(config)
    assert code == 2
    assert report["error"].startswith(f"factor values[{index}] = ") and reason in report["error"]
    with pytest.raises(ValidationError, match=rf"values\[{index}\]"):
        finite_permutation_system([1, 2, 0], values)
    if any(isinstance(v, Fraction) for v in values):
        return  # not JSON
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"command": command, "system": _finite(values), "n_max": 4}))
    capsys.readouterr()
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "main")]) == 2
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "ValidationError" and f"values[{index}]" in diag["message"]


# --------------------------------------------------------------------------
# artifacts are byte-identical to the Fraction writers
# --------------------------------------------------------------------------


def _primes(lo, hi):
    return [p for p in range(lo, hi) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _int64_perm():
    rng = np.random.default_rng(4)
    q = rng.integers(1, 9, size=40)
    values = [f"{int(a)}/{int(b)}" for a, b in zip(rng.integers(-2 * q, 2 * q + 1), q)]
    return finite_permutation_system(rng.permutation(40).tolist(), values)


def _object_perm():
    # three denominators near 2^20 make D about 2^60: sums of n_max^2 terms
    # overflow int64, and so do the potentials' denominators L * D
    q = _primes(2**20 - 200, 2**20)[-3:]
    rng = np.random.default_rng(8)
    values = [f"{int(rng.integers(-d, d + 1))}/{d}" for d in q * 4]
    return finite_permutation_system(np.roll(np.arange(12), 1).tolist(), values)


def _float_perm():
    rng = np.random.default_rng(6)
    return finite_permutation_system(rng.permutation(30).tolist(),
                                     rng.uniform(-2, 2, size=30).tolist())


def _strict_golden():
    f = {"type": "trig", "sin": [[1, 1.0]]}
    return rotation_system(GOLDEN_ANGLE, {"type": "coboundary", "f": f}, grid_resolution=64)


def _cat_8x8():
    return cat_map_system({"type": "trig2", "terms": [[1, 0, 0.4, 0.0], [1, 1, 0.0, -0.3]]},
                          grid_resolution=8)


@pytest.mark.parametrize("make,n_max", [(_int64_perm, 25), (_object_perm, 20),
                                        (_float_perm, 25), (_strict_golden, 40),
                                        (_cat_8x8, 20)])
def test_artifacts_are_byte_identical_to_the_fraction_writers(tmp_path, make, n_max):
    sys = make()
    table = birkhoff_table(sys, None, n_max)
    if make is _int64_perm:
        assert sys.exact and sum_dtype(sys, n_max * n_max) is np.int64
    if make is _object_perm:
        assert sys.exact and sum_dtype(sys, n_max * n_max) is object
        assert table.running_sums.dtype == object
    for new, old, name in ((table_to_csv, _old_table_to_csv, "birkhoff.csv"),
                           (extrema_to_csv, _old_extrema_to_csv, "envelopes.csv")):
        new(table, tmp_path / f"new-{name}")
        old(table, tmp_path / f"old-{name}")
        assert (tmp_path / f"new-{name}").read_bytes() == (tmp_path / f"old-{name}").read_bytes()
    if sys.space.kind != "finite":  # the grid potential is a float array, not a list
        result = coboundary_optima(sys, method="grid_descent")[1]
        assert isinstance(result.potential_table, np.ndarray)
    else:
        result = coboundary_optima(sys)[1]
    if sys.exact:
        assert isinstance(result.potential_table, RationalTable)
        if make is _object_perm:
            assert result.potential_table.denominators.dtype == object
    cli._write_potential_csv(sys, result, tmp_path / "new-potential.csv")
    _old_potential_csv(result, tmp_path / "old-potential.csv")
    assert (tmp_path / "new-potential.csv").read_bytes() == \
        (tmp_path / "old-potential.csv").read_bytes()


def test_birkhoff_csv_writes_in_blocks(tmp_path, monkeypatch):
    # a block boundary inside the table changes no byte
    import lcsdyn.birkhoff as birkhoff

    sys = _int64_perm()
    table = birkhoff_table(sys, None, 25)
    table_to_csv(table, tmp_path / "one.csv")
    monkeypatch.setattr(birkhoff, "CSV_CHUNK_ROWS", 60)  # 2 points a block, 40 points
    table_to_csv(table, tmp_path / "blocks.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "blocks.csv").read_bytes()


def _one_state():
    return finite_permutation_system([0], ["-7/3"])


@pytest.mark.parametrize("make,points,n_max,chunk_rows", [
    (_int64_perm, None, 25, 75),  # 3 points a block: the last block holds 1 point
    (_int64_perm, None, 25, 7),  # n_max > CSV_CHUNK_ROWS: one point a block
    (_int64_perm, [7], 25, None),  # a single point
    (_one_state, None, 30, None),  # a single state: one point, one potential
    (_object_perm, None, 20, 45),  # object running sums, 2 points a block
])
def test_exact_files_are_the_csv_writer_files_at_the_chunk_edges(tmp_path, monkeypatch, make,
                                                                 points, n_max, chunk_rows):
    import lcsdyn.birkhoff as birkhoff

    if chunk_rows is not None:
        monkeypatch.setattr(birkhoff, "CSV_CHUNK_ROWS", chunk_rows)
    sys = make()
    table = birkhoff_table(sys, points, n_max)
    assert sys.exact and (len(table.points) * n_max) % birkhoff.CSV_CHUNK_ROWS != 0
    if make is _object_perm:
        assert table.running_sums.dtype == object
    table_to_csv(table, tmp_path / "new-birkhoff.csv")
    _old_table_to_csv(table, tmp_path / "old-birkhoff.csv")
    assert (tmp_path / "new-birkhoff.csv").read_bytes() == \
        (tmp_path / "old-birkhoff.csv").read_bytes()
    result = coboundary_optima(sys)[1]
    assert isinstance(result.potential_table, RationalTable)
    cli._write_potential_csv(sys, result, tmp_path / "new-potential.csv")
    _old_potential_csv(result, tmp_path / "old-potential.csv")
    assert (tmp_path / "new-potential.csv").read_bytes() == \
        (tmp_path / "old-potential.csv").read_bytes()


def test_exact_birkhoff_csv_memory_peak(tmp_path):
    # a 200 x 200 exact table: the per-cell string writer this replaced
    # peaked at 3.8 MiB here, the byte blocks at 2.0 MiB
    rng = np.random.default_rng(9)
    q = rng.integers(1, 9, size=2000)
    values = [f"{int(a)}/{int(b)}" for a, b in zip(rng.integers(-2 * q, 2 * q + 1), q)]
    sys = finite_permutation_system(rng.permutation(2000).tolist(), values)
    table = birkhoff_table(sys, np.arange(0, 2000, 10), 200)
    table_to_csv(table, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        table_to_csv(table, tmp_path / "birkhoff.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
