"""The cycle record and its cumsum consumers against the per-state loops.

The reference below is the cycle code before it read one record of index
arrays: a walk that returns (state tuple, mean) pairs, and a potential,
optimum, drift bound and rounding bound that each loop over the states of
every cycle.  Like the library's, the reference record carries the values
it was walked with, and every consumer reads the record alone.  The
reference optimum walks once per sign; the library's two optima share one
walk.  The library must agree with it exactly: the same cycles in the same
order, the same Fractions, and floats equal bit for bit (signed zeros
included, compared through repr).
"""

import json
import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

from lcsdyn import birkhoff, cli, ergopt, finite_permutation_system, torus
from lcsdyn.core import RationalTable, sum_dtype
from lcsdyn.ergopt import (
    _cycle_optimum,
    _cycle_potential,
    _functional_cycles,
    cycle_mean_extrema,
    is_strict_finite,
)

from conftest import cycle_pairs
from test_exact_integers import CASES, _case

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# --------------------------------------------------------------------------
# reference: the per-state loops
# --------------------------------------------------------------------------


@dataclass
class RefDecomposition:
    cycles: list  # (state tuple, mean)
    max_mean: object
    min_mean: object
    tree: list
    succ: list
    vals: list  # the values walked: floats, or the integers h * scale
    scale: object = None

    # what the library's callers (probe_sweep, is_strict_finite) read
    @property
    def means(self):
        return [m for _c, m in self.cycles]

    @property
    def order(self):
        return np.array([x for c, _m in self.cycles for x in c], dtype=np.int64)

    @property
    def bounds(self):
        return np.cumsum([0] + [len(c) for c, _m in self.cycles])


def _plain(a):
    """Python numbers from a list or an array."""
    return a.tolist() if isinstance(a, np.ndarray) else list(a)


def ref_functional_cycles(succ, hv, scale=None):
    succ, hv = _plain(succ), _plain(hv)
    walk = [-1] * len(succ)
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
    return RefDecomposition(cycles, max(means), min(means), tree, succ, hv, scale)


def ref_cycle_potential(dec, level, weight=1):
    hv, succ = [v * weight for v in dec.vals], dec.succ
    f = [None] * len(hv)
    for cyc, _mean in dec.cycles:
        f[cyc[0]] = hv[cyc[0]] * 0
        for j in range(len(cyc) - 1):
            f[cyc[j + 1]] = f[cyc[j]] - (hv[cyc[j]] - level)
    for x in dec.tree:
        f[x] = hv[x] + f[succ[x]] - level
    fmin = min(f)
    return [v - fmin for v in f]


def ref_cycle_optimum(dec, sign, method):
    succ, scale = dec.succ, dec.scale
    if sign < 0:
        dec = ref_functional_cycles(succ, [-v for v in dec.vals], scale)
    M = dec.max_mean
    if scale is None:
        L, level = 1, M
    else:
        L = next(len(cyc) for cyc, mean in dec.cycles if mean == M)
        level = int(M * L * scale)
    F = ref_cycle_potential(dec, level, L)
    hv = [v * L for v in dec.vals]
    excess = max(hv[i] + F[succ[i]] - F[i] for i in range(len(succ))) - level
    if sign < 0:
        top = max(F)
        F = [top - v for v in F]
    if scale is not None:
        F, excess = RationalTable(F, L * scale), Fraction(excess, L * scale)
    if method == "exact_finite":
        return ergopt.OptimizationResult(sign * M, lambda x: F[int(x)], F, excess, method)
    return ergopt.OptimizationResult(
        sign * M, None, np.asarray(F), excess,
        "grid_descent (exact cycle mean of the snapped dynamics; snapping is heuristic)")


def ref_cycle_optima(succ, hv, scale, method, signs):
    return [ref_cycle_optimum(ref_functional_cycles(succ, hv, scale), sign, method)
            for sign in signs]


def _optima(succ, hv, scale, method, signs):
    """The library's optimum of each sign, from one walk."""
    dec = _functional_cycles(succ, hv, scale)
    return [_cycle_optimum(dec, sign, method) for sign in signs]


def _one_sign(succ, hv, scale, sign, method):
    """The library's optimum of one sign, from its own walk."""
    return _optima(succ, hv, scale, method, (sign,))[0]


def ref_cycle_residual_bound(dec):
    R, scale = 0, dec.scale
    for cyc, mean in dec.cycles:
        L = len(cyc)
        w, level = (1, mean) if scale is None else (L, int(mean * L * scale))
        d = lo = hi = 0
        for x in cyc[:-1]:
            d += w * dec.vals[x] - level
            lo, hi = min(lo, d), max(hi, d)
        R = max(R, hi - lo if scale is None else Fraction(hi - lo, L * scale))
    return R


def ref_cycle_mean_rounding(dec):
    h = dec.vals
    eps = np.finfo(float).eps
    return max(eps * (len(cyc) + 1) * math.fsum(abs(h[i]) for i in cyc) / len(cyc)
               for cyc, _mean in dec.cycles)


# --------------------------------------------------------------------------
# cases
# --------------------------------------------------------------------------


def _tree_graph():
    """0 -> 3 -> 4 -> 2 -> 3: the walk from 0 enters the cycle {2, 3, 4} at 3,
    not at its least state 2; 1, 5 .. 9 hang off it at depths up to 5, and
    10 <-> 11 is a second cycle with a tree node 12."""
    succ = [3, 5, 3, 4, 2, 6, 7, 8, 9, 0, 11, 10, 10]
    return succ, [0.5, -1.25, 2.0, -0.0, 0.75, -3.0, 1.5, 0.0, -0.5, 2.5, 1.0, -1.0, 0.25]


def _random_graph(seed, m=300):
    """A random functional graph: many trees, entering their cycles anywhere."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, m, size=m).tolist(), rng.uniform(-2.0, 2.0, size=m).tolist()


def _systems():
    rng = np.random.default_rng(11)
    m = 2000
    yield "identity-2000", finite_permutation_system(list(range(m)),
                                                     rng.integers(-9, 10, size=m).tolist())
    yield "cycle-2000", finite_permutation_system(list(range(1, m)) + [0],
                                                  [Fraction(int(p), 7) for p in
                                                   rng.integers(-20, 21, size=m)])
    table = rng.permutation(500).tolist()
    yield "float", finite_permutation_system(table, rng.uniform(-2.0, 2.0, size=500).tolist())
    yield "float-identity", finite_permutation_system(
        list(range(200)), np.round(rng.uniform(-2.0, 2.0, size=200), 1).tolist())
    for kind, seed in CASES:
        yield f"{kind}-{seed}", _case(kind, seed)


SYSTEMS = dict(_systems())


def _strings(values):
    if isinstance(values, RationalTable):
        return values.strings()
    return [repr(v) for v in np.asarray(values, dtype=object).tolist()]


def _same_result(mine, ref):
    assert repr(mine.value) == repr(ref.value)
    assert repr(mine.certificate) == repr(ref.certificate)
    assert mine.method == ref.method
    assert type(mine.potential_table) is type(ref.potential_table)
    assert _strings(mine.potential_table) == _strings(ref.potential_table)


def test_the_cases_cover_each_integer_path():
    assert sum_dtype(SYSTEMS["int64-0"], 2) is np.int64
    assert sum_dtype(SYSTEMS["object-sums-0"], 1) is np.int64
    assert sum_dtype(SYSTEMS["object-sums-0"], 16) is object
    assert sum_dtype(SYSTEMS["object-rows-0"], 1) is object
    # the record's values: int64 while 8 max|h * scale| L^2 < 2^63
    for name, dtype in (("int64-0", np.int64), ("object-sums-0", object),
                        ("object-rows-0", object)):
        assert cycle_mean_extrema(SYSTEMS[name]).vals.dtype == dtype


# --------------------------------------------------------------------------
# the record and its consumers against the reference, exactly
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", SYSTEMS)
def test_cycles_potentials_and_bounds_equal_the_per_state_loops(name):
    sys_ = SYSTEMS[name]
    succ, hv, scale = sys_.perm_table.tolist(), sys_.scaled_table.tolist(), sys_.scale
    dec, ref = cycle_mean_extrema(sys_), ref_functional_cycles(succ, hv, scale)
    assert cycle_pairs(dec) == ref.cycles
    assert [repr(m) for m in dec.means] == [repr(m) for _c, m in ref.cycles]
    assert (dec.max_mean, dec.min_mean) == (ref.max_mean, ref.min_mean)
    assert dec.tree.tolist() == ref.tree == []
    if name == "identity-2000":
        assert len(dec.means) == 2000
    if name == "cycle-2000":
        assert dec.bounds.tolist() == [0, 2000]
    for mine, ref_opt in zip(_optima(succ, hv, scale, "exact_finite", (-1, 1)),
                             ref_cycle_optima(succ, hv, scale, "exact_finite", (-1, 1))):
        _same_result(mine, ref_opt)
    R = torus._cycle_residual_bound(dec)
    assert repr(R) == repr(ref_cycle_residual_bound(ref))
    # the same bound from the table's own values (Fractions when exact)
    assert R == ref_cycle_residual_bound(replace(ref, vals=list(sys_.factor_table), scale=None))
    level = dec.means[len(dec.means) // 2]
    if scale is None:
        F = _cycle_potential(dec, level)
        assert _strings(F) == _strings(ref_cycle_potential(ref, level))
        assert repr(birkhoff._cycle_mean_rounding(dec)) == repr(ref_cycle_mean_rounding(ref))


@pytest.mark.parametrize("name", SYSTEMS)
def test_is_strict_finite_rebuilds_the_reference_potential(name):
    sys_ = SYSTEMS[name]
    table, h = sys_.perm_table.tolist(), sys_.factor_table
    # the coboundary of f: every cycle mean vanishes
    f = [v * 3 - 1 for v in h]
    cob = finite_permutation_system(table, [f[x] - f[table[x]] for x in range(len(table))])
    ref = ref_functional_cycles(table, cob.scaled_table, cob.scale)
    if any(abs(m) > (0 if cob.exact else 1e-12) for m in ref.means):
        assert is_strict_finite(cob) == (False, None)  # float cancellation left a mean
        return
    want = ref_cycle_potential(ref, 0)
    if cob.exact:
        want = [Fraction(v, cob.scale) for v in want]
    flag, g = is_strict_finite(cob)
    assert flag and _strings(g) == _strings(want)


@pytest.mark.parametrize("graph", ["tree", "random-0", "random-1", "random-2"])
@pytest.mark.parametrize("sign", [1, -1])
def test_functional_graphs_with_trees_equal_the_reference(graph, sign):
    succ, hv = _tree_graph() if graph == "tree" else _random_graph(int(graph[-1]))
    dec, ref = _functional_cycles(succ, hv), ref_functional_cycles(succ, hv)
    assert cycle_pairs(dec) == ref.cycles and dec.tree.tolist() == ref.tree
    if graph == "tree":
        assert cycle_pairs(dec)[0][0] == (3, 4, 2)
    _same_result(_one_sign(succ, hv, None, sign, "grid_descent"),
                 ref_cycle_optimum(ref, sign, "grid_descent"))
    # the same graph on exact integers (a scale of 4 makes h * 4 integral)
    ints = [int(v * 4) for v in hv]
    _same_result(_one_sign(succ, ints, 4, sign, "exact_finite"),
                 ref_cycle_optimum(ref_functional_cycles(succ, ints, 4), sign, "exact_finite"))
    R = torus._cycle_residual_bound(_functional_cycles(succ, ints, 4))
    assert R == ref_cycle_residual_bound(ref_functional_cycles(succ, ints, 4))


@pytest.mark.parametrize("seed", range(40))
def test_signed_zeros_fall_as_in_the_reference(seed):
    # dyadic values add exactly, so cycle sums, potentials and edges cancel to
    # zeros of both signs, and the first least potential and the first largest
    # edge must be picked as min() and max() pick them, not as np.min does
    rng = np.random.default_rng(seed)
    m = int(rng.integers(17, 60))
    succ = [np.arange(m), rng.permutation(m), rng.integers(0, m, size=m)][seed % 3].tolist()
    hv = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=m).tolist()
    for mine, ref in zip(_optima(succ, hv, None, "exact_finite", (-1, 1)),
                         ref_cycle_optima(succ, hv, None, "exact_finite", (-1, 1))):
        _same_result(mine, ref)


@pytest.mark.parametrize("succ,hv", [
    ([0, 2, 6, 5, 4, 7, 3, 1], [0.0, -0.0, 0.0, -0.0, -0.5, -0.0, -0.0, -0.0]),
    ([1, 2, 1], [-0.0, 0.0, 0.0]),
])
def test_a_zero_certificate_is_the_first_largest_edge(succ, hv):
    # edges of 0.0 and -0.0 tie for the largest: np.max may return either
    for mine, ref in zip(_optima(succ, hv, None, "exact_finite", (-1, 1)),
                         ref_cycle_optima(succ, hv, None, "exact_finite", (-1, 1))):
        _same_result(mine, ref)


@pytest.mark.parametrize("system,method,grid", [
    ({"space": {"kind": "finite"}, "map": {"type": "permutation", "table": [1, 2, 0, 4, 3, 5]},
      "factor": ["1/3", "-2/5", "0", "7/2", "-1", "1/9"]}, "exact_finite", None),
    ({"space": {"kind": "finite"}, "map": {"type": "permutation", "table": [1, 0, 2]},
      "factor": [0.5, -0.25, 2.0]}, "exact_finite", None),
    ({"space": {"kind": "circle", "grid_resolution": 64},
      "map": {"type": "rotation", "angle": "golden"},
      "factor": {"type": "trig", "cos": [[1, 1.0]]}}, "grid_descent", 16),
    ({"space": {"kind": "torus2", "grid_resolution": 8},
      "map": {"type": "torus_linear", "matrix": [[2, 1], [1, 1]]},
      "factor": {"type": "trig2", "terms": [[1, 0, 0.4, 0.0]]}}, "grid_descent", 16),
])
def test_optimize_walks_the_states_once(tmp_path, monkeypatch, system, method, grid):
    # the max-min and the min-max read one cycle record, and equal the
    # one-sign functions, which walk once each
    sys_ = cli.system_from_config(system)
    lo, hi = (solve(sys_, method=method, points=grid)
              for solve in (ergopt.maxmin_coboundary, ergopt.minmax_coboundary))
    calls, walk = [], ergopt._functional_cycles

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(ergopt, "_functional_cycles", counted)
    report, code = cli.run(cli.RunConfig(command="optimize", system=system, grid=grid,
                                         params={"method": method}, out=str(tmp_path / "r")))
    assert code == 0 and len(calls) == 1
    assert report["payload"]["minmax"] == json.loads(json.dumps(hi.to_json()))
    assert report["payload"]["maxmin"] == json.loads(json.dumps(lo.to_json()))


# --------------------------------------------------------------------------
# the cycles workload, end to end, with the reference patched in
# --------------------------------------------------------------------------


def _cycles_steps():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    steps = [(s.label, s.config) for s in workloads.build("cycles", 1, "tiny")]
    # the same finite steps on float factor tables: float means, signed zeros
    # and the rounding bound
    for name, cfg in list(steps):
        factor = (cfg.get("system") or {}).get("factor", {})
        if factor.get("type") == "table":
            floats = [float(Fraction(v)) for v in factor["values"]]
            system = dict(cfg["system"], factor={"type": "table", "values": floats})
            steps.append((name + "-float", dict(cfg, system=system)))
    return steps


def _run_all(steps, out):
    results = {}
    for name, cfg in steps:
        report, code = cli.run(cli.RunConfig(**cfg, out=str(out / name)))
        files = {}
        for f in ("potential.csv", "birkhoff.csv", "envelopes.csv"):
            path = out / name / f
            if path.is_file():
                files[f] = path.read_bytes()
        results[name] = (code, json.dumps(report["payload"], sort_keys=True), files)
    return results


def test_cycles_workload_is_byte_identical_to_the_reference(tmp_path, monkeypatch):
    steps = _cycles_steps()
    mine = _run_all(steps, tmp_path / "mine")
    for module, name, fn in ((ergopt, "_functional_cycles", ref_functional_cycles),
                             (ergopt, "_cycle_potential", ref_cycle_potential),
                             (ergopt, "_cycle_optimum", ref_cycle_optimum),
                             (torus, "_cycle_residual_bound", ref_cycle_residual_bound),
                             (birkhoff, "_cycle_mean_rounding", ref_cycle_mean_rounding)):
        monkeypatch.setattr(module, name, fn)
    ref = _run_all(steps, tmp_path / "ref")
    assert set(mine) == set(ref)
    assert {"optimize-exact-perm", "grid-descent-cos", "grid-descent-cat"} <= set(mine)
    assert any(files for _c, _p, files in mine.values())
    for name in mine:
        assert mine[name] == ref[name], name
