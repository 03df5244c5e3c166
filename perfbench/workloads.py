"""The benchmark's workloads: command lists built from a seed, with checks.

Each workload is a list of steps.  A step is one `lcsdyn.cli.run` call, given
as RunConfig fields, or one library call, given as a dict with a "library"
key.  Every step carries a check that compares its output with an independent
oracle (see oracles.py).  The seed changes only generated inputs (permutation
tables, rational factor tables and RunConfig.seed), never sizes, and no
check depends on it.  README.md says why each workload exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("float-orbits", "construction", "cycles")

# "full" is what the benchmark measures; "tiny" keeps the smoke test fast.
SIZES = {
    "full": {
        "strict_grid": 4096, "strict_n": 2000,
        "cos_grid": 1024, "cos_n": 2000,
        "cat_grid": 64, "cat_n": 200,
        "construct_grid": 1024, "construct_params": {"t_window": [-2, 2]},
        "perm_big": 20000, "perm_points": 200, "perm_n": 200, "perm_small": 2000,
        "descent_grid": 1024, "descent_cat": 32,
    },
    "tiny": {
        "strict_grid": 256, "strict_n": 100,
        "cos_grid": 64, "cos_n": 100,
        "cat_grid": 8, "cat_n": 24,
        "construct_grid": 64, "construct_params": {"t_window": [-3, 3], "n_scan": 8},
        "perm_big": 300, "perm_points": 20, "perm_n": 20, "perm_small": 60,
        "descent_grid": 64, "descent_cat": 8,
    },
}

K_SWEEP = (-1.5, 1.5, 0.5)
CAT_K_SWEEP = (-2.0, 2.0, 0.5)
PERM_K_SWEEP = (-1.0, 1.0, 0.5)
CAT_MATRIX = [[2, 1], [1, 1]]
CAT_TERMS = [[1, 0, 1.0, 0.0], [0, 1, 0.0, 0.5]]  # cos(2 pi x) + 0.5 sin(2 pi y)
RANK_GENERATORS = ["1", "s", "2/3", "3/4s"]
PROBE_STARTS = 64  # properness_probe samples a 64-point grid per dimension by default

MU_RESIDUAL_MAX = 1e-7
G_RESIDUAL_MAX = 1e-9
CURVE_RESIDUAL_MAX = 1e-8  # transfer identity in float64 over n <= 2000
LATTICE_TOL = 1e-12  # float orbit versus integer orbit sums on a dyadic grid
DESCENT_TOL = 1e-9  # bisection stops at float resolution; sweeps add rounding
ESCAPE = "EscapeCertified"
RECURRENT = "RecurrentEvidence"


@dataclass
class Outcome:
    """What one step produced in one pass."""

    report: dict | None  # CLI report (None for library steps)
    code: int | None  # CLI exit code
    result: object  # library result
    out_dir: str

    @property
    def payload(self):
        return self.report["payload"]


@dataclass
class Step:
    label: str
    config: dict
    check: Callable[[Outcome], list]  # -> [(check name, passed)]


def build(workload: str, seed: int, size: str = "full") -> list:
    """The step list of a workload; the same seed gives the same inputs."""
    s = SIZES[size]
    if workload == "float-orbits":
        return _float_orbits(seed, s)
    if workload == "construction":
        return _construction(seed, s)
    if workload == "cycles":
        return _cycles(seed, s)
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


# --------------------------------------------------------------------------
# systems and generated inputs
# --------------------------------------------------------------------------


def _circle(grid, factor):
    return {"space": {"kind": "circle", "grid_resolution": grid},
            "map": {"type": "rotation", "angle": "golden"}, "factor": factor}


def _strict_golden(grid):
    return _circle(grid, {"type": "coboundary", "f": {"type": "trig", "sin": [[1, 1.0]]}})


def _golden_cos(grid):
    return _circle(grid, {"type": "trig", "cos": [[1, 1.0]]})


def _cat(grid):
    return {"space": {"kind": "torus2", "grid_resolution": grid},
            "map": {"type": "torus_linear", "matrix": CAT_MATRIX},
            "factor": {"type": "trig2", "terms": CAT_TERMS}}


def halving_cycle_lengths(m: int) -> list:
    """m, m/2, m/4, ... down to fixed points: one long cycle plus a tail.

    The cycle type is fixed so that the seed never changes the amount of
    work (the probe's residual bound costs sum L^2 over cycle lengths L).
    """
    lengths, rem = [], m
    while rem > 0:
        length = max(1, rem // 2)
        lengths.append(length)
        rem -= length
    return lengths


def seeded_permutation(m: int, rng) -> list:
    """Permutation of m states with the halving cycle type and seeded labels."""
    labels = [int(v) for v in rng.permutation(m)]
    table = [0] * m
    pos = 0
    for length in halving_cycle_lengths(m):
        cyc = labels[pos:pos + length]
        for j in range(length):
            table[cyc[j]] = cyc[(j + 1) % length]
        pos += length
    return table


def seeded_rationals(m: int, rng) -> list:
    """Exact factor values p/q in [-2, 2] with q in 1..8, as "p/q" strings."""
    q = rng.integers(1, 9, size=m)
    p = rng.integers(-2 * q, 2 * q + 1)
    return [f"{int(a)}/{int(b)}" for a, b in zip(p, q)]


def _finite(table, values):
    return {"space": {"kind": "finite"},
            "map": {"type": "permutation", "table": table},
            "factor": {"type": "table", "values": values}}


# --------------------------------------------------------------------------
# shared checks
# --------------------------------------------------------------------------


def _listed_files_exist(o: Outcome):
    files = o.payload.get("csv_files", [])
    return all(os.path.isfile(os.path.join(o.out_dir, f)) for f in files)


def _file_rows(path):
    with open(path) as fh:
        return sum(1 for _ in fh)


def _verdicts(o: Outcome):
    return [(float(r["k"]), r["verdict"]) for r in o.payload["reports"]]


def _construct_checks(o: Outcome, mirrored: bool):
    p = o.payload
    return [
        ("construct: mu_residual <= 1e-7", p["mu_residual"] <= MU_RESIDUAL_MAX),
        ("construct: g_residual <= 1e-9", p["g_residual"] <= G_RESIDUAL_MAX),
        ("construct: slope_margin > 0", p["slope_margin"] > 0.0),
        ("construct: branch", p["mirrored"] is mirrored),
    ]


def _elasticity_checks(o: Outcome):
    # u = -k / (dt g + k) with dt g + k one-signed (sign k): u < 0 everywhere,
    # so every forbidden value (1 + u)/u = 1 + 1/u lies below 1, and the flat
    # part of the cutoff (dt g = 0, u = -1) forbids 0.
    p = o.payload
    forbidden = p["elasticity"]["forbidden"]
    summary = p["profile_summary"]
    return [
        ("elasticity: u < 0 on the profile", summary["max_u"] < 0.0),
        ("elasticity: forbidden values below 1", all(b < 1.0 for _, b in forbidden)),
        ("elasticity: 0 is forbidden", any(a <= 0.0 <= b for a, b in forbidden)),
        ("elasticity: form never vanishes",
         p["elasticity"]["equality"] is True and p["elasticity"]["contains_zero_u"] is False),
    ]


def _descent_checks(o: Outcome, succ, h):
    # min-max of the snapped problem is the largest cycle mean of its
    # functional graph; max-min is the smallest.
    means = oracles.functional_graph_cycle_means(succ, h)
    p = o.payload
    return [
        ("grid_descent: minmax = max cycle mean",
         abs(p["minmax"]["value"] - max(means)) <= DESCENT_TOL),
        ("grid_descent: maxmin = min cycle mean",
         abs(p["maxmin"]["value"] - min(means)) <= DESCENT_TOL),
    ]


# --------------------------------------------------------------------------
# float-orbits
# --------------------------------------------------------------------------


def _float_orbits(seed, s):
    P, n = s["strict_grid"], s["strict_n"]
    strict_cfg = {"command": "analyze", "system": _strict_golden(P), "n_max": n,
                  "grid": P, "seed": seed}
    cos_sys = _golden_cos(s["cos_grid"])
    cos_n = s["cos_n"]
    cos_bound = oracles.golden_cos_gap_bound(cos_n)
    N, cat_n = s["cat_grid"], s["cat_n"]
    cat_h = oracles.lattice_factor(N, CAT_TERMS)
    cat_avg = oracles.orbit_averages(oracles.lattice_successors(N, CAT_MATRIX), cat_h, cat_n)
    # the probe starts from its default 64 x 64 grid whatever the grid size
    probe_h = oracles.lattice_factor(PROBE_STARTS, CAT_TERMS)
    probe_avg = oracles.orbit_averages(
        oracles.lattice_successors(PROBE_STARTS, CAT_MATRIX), probe_h, cat_n)

    def check_strict(o):
        # A_n = (f - f o psi^n) / n, so |L+-| <= V / n_max <= 2 V / n_max
        bound = 2.0 * oracles.sine_oscillation(P) / n
        est = o.payload["limit_estimate"]
        return [
            ("strict gap: |L+-| <= 2V/n_max",
             abs(est["L_minus"]) <= bound and abs(est["L_plus"]) <= bound),
            ("analyze: csv_files exist", _listed_files_exist(o)),
        ]

    def check_curve(o):
        curve = np.asarray(o.result)
        return [("residual curve: transfer identity holds for n <= n_max",
                 curve.shape == (n,) and float(curve.max()) <= CURVE_RESIDUAL_MAX)]

    def check_admissible(o):
        est = o.payload["limit_estimate"]
        checks = [("golden cos: |L+-| <= 1/(n |sin(pi a)|)",
                   abs(est["L_minus"]) <= cos_bound and abs(est["L_plus"]) <= cos_bound)]
        for c in o.payload["classifications"]:
            k, verdict = c["k"], c["verdict"]
            want = "excluded_zero" if k == 0 else "admissible" if abs(k) > cos_bound else None
            if want is not None:
                checks.append((f"admissible: k={k:g} is {want}", verdict == want))
        return checks

    def cos_probe_rules(o):
        # |k| beyond the closed-form gap bound: the envelope certifies escape.
        # k = 0: symmetric starts keep 0 inside every A_n range, no escape.
        checks = []
        for k, verdict in _verdicts(o):
            if abs(k) > cos_bound:
                checks.append((f"probe cos: k={k:g} escapes", verdict == ESCAPE))
            elif k == 0:
                checks.append((f"probe cos: k={k:g} does not escape", verdict != ESCAPE))
        return checks

    def check_probe_single(o):
        path = os.path.join(o.out_dir, "trace.csv")
        rows = min(cos_n, 2000) + 2  # header plus n = 0..min(n_max, 2000)
        return cos_probe_rules(o) + [
            ("probe: trace.csv written", os.path.isfile(path) and _file_rows(path) == rows)]

    def check_cat_analyze(o):
        est = o.payload["limit_estimate"]
        return [
            ("cat map: L- = min A_n of the integer orbit",
             abs(est["L_minus"] - float(cat_avg.min())) <= LATTICE_TOL),
            ("cat map: L+ = max A_n of the integer orbit",
             abs(est["L_plus"] - float(cat_avg.max())) <= LATTICE_TOL),
            ("analyze: csv_files exist", _listed_files_exist(o)),
        ]

    def check_cat_probe(o):
        # k outside the factor range escapes at n = 1; k inside the range of
        # A_{n_max} over all lattice starts meets every envelope, no escape
        checks = []
        for k, verdict in _verdicts(o):
            if k > probe_h.max() or k < probe_h.min():
                checks.append((f"probe cat: k={k:g} escapes", verdict == ESCAPE))
            elif probe_avg.min() <= k <= probe_avg.max():
                checks.append((f"probe cat: k={k:g} does not escape", verdict != ESCAPE))
        return checks

    return [
        Step("analyze-strict", strict_cfg, check_strict),
        Step("residual-curve-strict",
             {"library": "coboundary_residual_curve", "system": _strict_golden(P),
              "n_max": n, "grid": P}, check_curve),
        Step("admissible-cos", {"command": "admissible", "system": cos_sys, "n_max": cos_n,
                                "grid": s["cos_grid"], "k_range": K_SWEEP, "seed": seed},
             check_admissible),
        Step("probe-sweep-cos", {"command": "probe", "system": cos_sys, "n_max": cos_n,
                                 "k_range": K_SWEEP, "seed": seed}, cos_probe_rules),
        Step("probe-k-cos", {"command": "probe", "system": cos_sys, "n_max": cos_n,
                             "k": 0.5, "seed": seed}, check_probe_single),
        Step("analyze-cat", {"command": "analyze", "system": _cat(N), "n_max": cat_n,
                             "grid": N, "seed": seed}, check_cat_analyze),
        Step("probe-sweep-cat", {"command": "probe", "system": _cat(N), "n_max": cat_n,
                                 "k_range": CAT_K_SWEEP, "seed": seed}, check_cat_probe),
    ]


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------


def _construction(seed, s):
    grid, params = s["construct_grid"], s["construct_params"]
    strict = _strict_golden(grid)
    const = _circle(grid, {"type": "constant", "value": 0.5})
    cos = _golden_cos(grid)

    def cfg(command, system, k):
        return {"command": command, "system": system, "k": k, "seed": seed,
                "params": dict(params)}

    def check_const(o):
        # a constant factor 0.5 already lies below k = 1 at order 1
        return _construct_checks(o, False) + [
            ("construct: constant factor uses n = 1", o.payload["n_used"] == 1)]

    return [
        Step("construct-strict", cfg("construct", strict, 1.0),
             lambda o: _construct_checks(o, False)),
        Step("construct-const", cfg("construct", const, 1.0), check_const),
        Step("construct-cos-mirrored", cfg("construct", cos, -1.5),
             lambda o: _construct_checks(o, True)),
        Step("elasticity-strict", cfg("elasticity", strict, 1.0), _elasticity_checks),
        Step("elasticity-cos-mirrored", cfg("elasticity", cos, -1.5), _elasticity_checks),
        Step("rank", {"command": "rank", "seed": seed,
                      "params": {"generators": RANK_GENERATORS}},
             lambda o: [("rank == 2", o.payload["rank"] == 2)]),
    ]


# --------------------------------------------------------------------------
# cycles
# --------------------------------------------------------------------------


def _cycles(seed, s):
    rng = np.random.default_rng(seed)
    m = s["perm_big"]
    big_table, big_values = seeded_permutation(m, rng), seeded_rationals(m, rng)
    small_table = seeded_permutation(s["perm_small"], rng)
    small_values = seeded_rationals(s["perm_small"], rng)
    big = _finite(big_table, big_values)
    small = _finite(small_table, small_values)
    memo = {}

    def big_means():
        if "big" not in memo:
            memo["big"] = oracles.exact_cycle_means(big_table, big_values)
        return memo["big"]

    def check_analyze(o):
        est = o.payload["limit_estimate"]
        means = big_means()
        return [
            ("exact L- = min cycle mean", Fraction(est["L_minus"]) == min(means)),
            ("exact L+ = max cycle mean", Fraction(est["L_plus"]) == max(means)),
            ("analyze: csv_files exist", _listed_files_exist(o)),
        ]

    def check_admissible(o):
        means = big_means()
        lo, hi = min(means), max(means)
        gap = [Fraction(v) for v in o.payload["admissible_set"]["gap"]]
        checks = [("exact gap = [min, max] cycle mean", gap == [lo, hi])]
        for c in o.payload["classifications"]:
            k = Fraction(c["k"])
            want = ("excluded_zero" if k == 0 else
                    "admissible" if k < lo or k > hi else "not_admissible")
            checks.append((f"admissible: k={float(k):g} is {want}", c["verdict"] == want))
        return checks

    def check_optimize(o):
        means = big_means()
        p = o.payload
        return [
            ("exact_finite: minmax = max cycle mean", Fraction(p["minmax"]["value"]) == max(means)),
            ("exact_finite: maxmin = min cycle mean", Fraction(p["maxmin"]["value"]) == min(means)),
            ("exact_finite: certificates are 0",
             p["minmax"]["certificate"] == "0" and p["maxmin"]["certificate"] == "0"),
        ]

    def check_probe(o):
        # a finite orbit drifts by L (k - mean) per turn of its cycle: it
        # escapes unless k equals some cycle mean
        means = set(oracles.exact_cycle_means(small_table, small_values))
        checks = []
        for r in o.payload["reports"]:
            want = RECURRENT if Fraction(r["k"]) in means else ESCAPE
            checks.append((f"probe perm: k={r['k']:g} is {want}",
                           r["verdict"] == want and r["certificate"] == "cycle-exact"))
        return checks

    descent_grid, descent_cat = s["descent_grid"], s["descent_cat"]
    rot_succ = oracles.snapped_rotation_successors(descent_grid, oracles.GOLDEN)
    rot_h = np.cos(2.0 * np.pi * np.arange(descent_grid) / descent_grid)
    cat_succ = oracles.lattice_successors(descent_cat, CAT_MATRIX)
    cat_h = oracles.lattice_factor(descent_cat, CAT_TERMS)
    exact_cfg = {"system": big, "n_max": s["perm_n"], "grid": s["perm_points"], "seed": seed}
    descent = {"method": "grid_descent"}

    return [
        Step("analyze-perm", {"command": "analyze", **exact_cfg}, check_analyze),
        Step("admissible-perm", {"command": "admissible", "k_range": PERM_K_SWEEP, **exact_cfg},
             check_admissible),
        Step("optimize-exact-perm", {"command": "optimize", "system": big, "seed": seed},
             check_optimize),
        Step("probe-sweep-perm", {"command": "probe", "system": small, "n_max": s["perm_n"],
                                  "k_range": PERM_K_SWEEP, "seed": seed}, check_probe),
        Step("grid-descent-cos", {"command": "optimize", "system": _golden_cos(descent_grid),
                                  "grid": descent_grid, "params": descent, "seed": seed},
             lambda o: _descent_checks(o, rot_succ, rot_h)),
        Step("grid-descent-cat", {"command": "optimize", "system": _cat(descent_cat),
                                  "grid": descent_cat, "params": descent, "seed": seed},
             lambda o: _descent_checks(o, cat_succ, cat_h)),
    ]


# Named single operations whose time later changes cite (ROADMAP item 1):
# metric name -> (step label, span name).  The shallowest span of that name
# inside the step is timed, children included.
OPERATIONS = {
    "op.birkhoff_table_strict_4096x2000_s": ("analyze-strict", "birkhoff.table"),
    "op.residual_curve_strict_4096x2000_s": ("residual-curve-strict", "birkhoff.residual_curve"),
    "op.build_mu_strict_k1_s": ("construct-strict", "torus.build_mu"),
    "op.grid_descent_minmax_cos1024_s": ("grid-descent-cos", "ergopt.minmax"),
    "op.exact_table_20000x200x200_s": ("analyze-perm", "birkhoff.table"),
}
