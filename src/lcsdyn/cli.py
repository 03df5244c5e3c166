"""Command-line frontend: config ingestion, pipeline orchestration, reports.

One JSON config (plus flag overrides) drives one command; results land in an
output directory as report.json and CSV files.  Identical config + seed give
byte-identical report payloads, and finished payloads are cached under a hash
of the canonicalized config and of the package's source.

A handler returns its payload with the library's records in it as they are;
one JSON hook (``_json_default``) encodes them, and the run keeps the
normalised payload.  The warnings and the exit code are read off that
payload (``_warnings``, ``_exit_code``), on a miss and on a cache hit alike,
so a cache entry holds only the payload.

Exit codes: 0 success, 2 validation error, 3 budget/NotFound, 4 an
inconclusive verdict under --strict-verdict.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import math
import numbers
import os
import sys as _sys
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction

import numpy as np

from . import __version__, birkhoff, elastic, ergopt, torus
from .core import (
    BudgetError,
    DomainError,
    RationalTable,
    ValidationError,
    _factor_record,
    cat_map_system,
    check_keys,
    decimal_bytes,
    finite_permutation_system,
    finite_size,
    float_cells,
    fraction_bytes,
    point_cells,
    rotation_system,
    write_csv,
)

COMMANDS = ("analyze", "admissible", "probe", "optimize", "construct",
            "elasticity", "rank")

MAX_TABLE_CSV_ROWS = 200_000
MAX_K_VALUES = 10_000

#: the params and tolerances keys that some command reads (one file serves all)
PARAMS_KEYS = ("starts", "method", "n", "t_window", "n_scan", "profile_csv", "strict_mu",
               "generators")
TOLERANCES_KEYS = ("tol_inverse", "gap_resolution")


@dataclass
class RunConfig:
    command: str
    system: dict | None = None
    n_max: int = 200
    grid: int | None = None
    k: float | None = None
    k_range: tuple | None = None
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    out: str = "out"
    strict_verdict: bool = False
    cache_dir: str | None = None

    def canonical(self) -> dict:
        """The config without where and how it runs (out, cache_dir,
        strict_verdict): what the cache key hashes and report.json echoes.

        A shallow dict: its values are the config's own objects, not copies,
        and are serialised through ``_json_default``.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("out", "cache_dir", "strict_verdict")}


def _compact(obj) -> str:
    """obj as compact JSON with sorted keys: the encoding of the cache key
    and of report.json."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


def _config_first(config_text: str, rest: dict) -> str:
    """``_compact({"config": config, **rest})`` from the config's own text:
    every key of the non-empty ``rest`` sorts after "config"."""
    return '{"config":' + config_text + "," + _compact(rest)[1:]


@functools.cache
def _code_digest(package: str = os.path.dirname(os.path.abspath(__file__))) -> str:
    """sha256 of the package's *.py files, sorted by name: each name, its
    length and its bytes.  Read once per process, on the first cache key."""
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            data = fh.read()
        h.update(b"%s\0%d\0" % (name.encode(), len(data)) + data)
    return h.hexdigest()


def cache_key(canonical: dict | str, profile_sha256: str | None = None) -> str:
    """Hash of the canonical config (a dict, or its ``_compact`` text) and
    of the package's source (``_code_digest``), so results cached by other
    code are never served; with ``profile_sha256``, also of the profile
    file's bytes, so a rewritten profile is a miss.

    The blob is the ``_compact`` encoding of {"config", ["profile_sha256",]
    "source_sha256"}, with the config's text spliced in."""
    text = canonical if isinstance(canonical, str) else _compact(canonical)
    rest = {"source_sha256": _code_digest()}
    if profile_sha256 is not None:
        rest["profile_sha256"] = profile_sha256
    blob = _config_first(text, rest)
    return hashlib.sha256(blob.encode()).hexdigest()


def _field(obj: dict, key: str, what: str):
    if key not in obj:
        raise ValidationError(f"{what} misses {key!r}")
    return obj[key]


def _number(value, what: str):
    """A real number, not a bool or a string, as a float; else a ValidationError."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ValidationError(f"{what} must be a number, got {value!r}")


def _positive(value, what: str) -> float:
    """A positive finite number; anything else is a ValidationError."""
    v = _number(value, what)
    if not (math.isfinite(v) and v > 0):
        raise ValidationError(f"{what} must be a positive finite number, got {value!r}")
    return v


def _integer(value, what: str, minimum=None) -> int:
    """An int config value (not a bool, not a float) of at least ``minimum``;
    anything else is a ValidationError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{what} must be an integer{at_least}, got {value!r}")
    return int(value)


def _boolean(value, what: str) -> bool:
    """A JSON boolean; anything else is a ValidationError."""
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false, got {value!r}")
    return value


#: the keys of the space and map specs of each space kind
SPACE_KEYS = {"circle": ("kind", "grid_resolution"), "torus2": ("kind", "grid_resolution"),
              "finite": ("kind", "size")}
MAP_KEYS = {"circle": ("type", "angle"), "torus2": ("type", "matrix"),
            "finite": ("type", "table")}


def system_from_config(decl: dict, tolerances: dict | None = None):
    """Build a system from the JSON declaration {"space":, "map":, "factor":}.

    Every key is checked by the kind of the space: an unknown key is a
    ValidationError that names its path, such as ``system.space.gird`` or
    ``system.factor.f.terms``."""
    if not isinstance(decl, dict):
        raise ValidationError("system declaration must be an object")
    check_keys(decl, ("space", "map", "factor"), "system")
    space, mp, factor = (_field(decl, key, "system declaration")
                         for key in ("space", "map", "factor"))
    for key, part in (("space", space), ("map", mp)):
        if not isinstance(part, dict):
            raise ValidationError(f"system {key} must be an object, got {part!r}")
    kind = space.get("kind")
    if kind not in SPACE_KEYS:
        raise ValidationError(f"unknown space kind {kind!r}")
    check_keys(space, SPACE_KEYS[kind], "system.space")
    check_keys(mp, MAP_KEYS[kind], "system.map")
    opts = {"grid_resolution": _integer(space.get("grid_resolution", 256),
                                        "space.grid_resolution"),
            "tol_inverse": _positive((tolerances or {}).get("tol_inverse", 1e-9),
                                     "tolerances.tol_inverse")}
    mtype = mp.get("type")
    if kind == "finite":
        if mtype != "permutation":
            raise ValidationError(f"finite supports map type 'permutation', got {mtype!r}")
        table = _field(mp, "table", "permutation map")
        values = factor
        if isinstance(factor, dict):
            check_keys(factor, ("type", "values"), "system.factor")
            if factor.get("type", "table") != "table":
                raise ValidationError(f"a finite space takes a factor of type 'table', got "
                                      f"{factor['type']!r} at system.factor.type")
            values = _field(factor, "values", "table factor")
        for what, seq in (("permutation table", table), ("factor values", values)):
            if not isinstance(seq, list):
                raise ValidationError(f"{what} must be a list, got {seq!r}")
        if "size" in space and space["size"] != len(table):
            raise ValidationError(f"system.space.size = {space['size']!r} is not the "
                                  f"{len(table)} states of the permutation table")
        return finite_permutation_system(table, values)
    factor = _factor_record(kind, factor, "system.factor")
    if kind == "circle":
        if mtype != "rotation":
            raise ValidationError(f"circle supports map type 'rotation', got {mtype!r}")
        return rotation_system(mp.get("angle", 0.0), factor, **opts)
    if mtype not in ("torus_linear", "cat"):
        raise ValidationError(f"torus2 supports map type 'torus_linear', got {mtype!r}")
    return cat_map_system(factor, matrix=mp.get("matrix", ((2, 1), (1, 1))), **opts)


def _json_default(v):
    """json's hook for the values it cannot encode itself: a record (a
    dataclass instance) as the object of its fields, Fractions as "p/q",
    NumPy arrays as lists and NumPy scalars as Python numbers."""
    if is_dataclass(v):
        return {f.name: getattr(v, f.name) for f in fields(v)}
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _diag(kind: str, message: str):
    print(json.dumps({"error": kind, "message": message}), file=_sys.stderr)


# --------------------------------------------------------------------------
# command payloads
# --------------------------------------------------------------------------


def _is_count(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v > 0


def _count(value, what: str) -> int:
    """A positive int config value; anything else is a ValidationError."""
    if not _is_count(value):
        raise ValidationError(f"{what} must be a positive int, got {value!r}")
    return int(value)


def _points_spec(value, what: str):
    """A sample grid given as config field ``what``: None (the space's
    default), a positive int, a non-empty list of points, or
    {"grid": int or None, "seeds": [points]}."""
    if value is None or _is_count(value) or isinstance(value, (list, tuple)) and value:
        return value
    if (isinstance(value, dict) and set(value) <= {"grid", "seeds"}
            and (value.get("grid") is None or _is_count(value["grid"]))
            and isinstance(value.get("seeds", []), (list, tuple))):
        return value
    raise ValidationError(f"{what} must be a positive int, a non-empty list of points or "
                          f'{{"grid": n, "seeds": [points]}}, got {value!r}')


def _k_values(config: RunConfig):
    ks = []
    if config.k is not None:
        ks.append(finite_size(config.k, "k"))
    if config.k_range is not None:
        if not isinstance(config.k_range, (list, tuple)) or len(config.k_range) != 3:
            raise ValidationError("k_range expects [a, b, step]")
        a, b, step = (_number(v, "k_range entry") for v in config.k_range)
        stop = b + 0.5 * step
        if not all(map(math.isfinite, (a, b, step, stop))):
            raise ValidationError("k_range [a, b, step] must be finite, b + step/2 "
                                  f"included, got {list(config.k_range)!r}")
        if step <= 0:
            raise ValidationError("k-range step must be positive")
        # floor((b - a)/step) + 1 sizes a + i * step (-0.5:0.5:0.1 meets 0.0
        # and 0.5), counted before any is built; 1e-9 absorbs the rounding of
        # the quotient (0.3/0.1 < 3), and the count keeps the last size from
        # passing b (0:0.7:1 gives [0.0])
        span = (b - a) / step
        if span + 1 > MAX_K_VALUES:
            raise BudgetError(f"k_range [{a}, {b}, {step}] spans more than "
                              f"{MAX_K_VALUES} sizes")
        count = max(math.floor(span + 1e-9) + 1, 0)
        ks.extend(a + i * step for i in range(count))
    return ks


def _cmd_analyze(config, sys_, out_dir):
    # the full per-point table is built only when birkhoff.csv is written
    points = _points_spec(config.grid, "grid")
    n_rows = len(sys_.space.sample_points(points)) * config.n_max
    reduce = birkhoff.birkhoff_table if n_rows <= MAX_TABLE_CSV_ROWS else birkhoff.birkhoff_extrema
    table = reduce(sys_, points, config.n_max)
    est = birkhoff.limit_estimates(table)
    birkhoff.extrema_to_csv(table, os.path.join(out_dir, "envelopes.csv"))
    files = ["envelopes.csv"]
    if n_rows <= MAX_TABLE_CSV_ROWS:
        birkhoff.table_to_csv(table, os.path.join(out_dir, "birkhoff.csv"))
        files.append("birkhoff.csv")
    return {
        "limit_estimate": est,
        "table_summary": {
            "points": len(table.points),
            "n_max": table.n_max,
            "exact": table.exact,
        },
        "csv_files": files,
    }


def _cmd_admissible(config, sys_, out_dir):
    table = birkhoff.birkhoff_extrema(sys_, _points_spec(config.grid, "grid"), config.n_max)
    est = birkhoff.limit_estimates(table)
    classifications = [{"k": k, "verdict": est.classify(k)} for k in _k_values(config)]
    birkhoff.extrema_to_csv(table, os.path.join(out_dir, "envelopes.csv"))
    return {
        "admissible_set": {
            "gap": [est.L_minus, est.L_plus],
            "rays": [["-inf", est.L_minus], [est.L_plus, "+inf"]],
            "excludes_zero": True,
            "exact": est.exact,
            "tolerance": est.tolerance,
        },
        "limit_estimate": est,
        "classifications": classifications,
    }


def _cmd_probe(config, sys_, out_dir):
    ks = _k_values(config)
    if not ks:
        raise ValidationError("probe needs --k or --k-range")
    starts = _points_spec(config.params.get("starts"), "params.starts")
    reports = torus.probe_sweep(sys_, ks, n_max=config.n_max, starts=starts)
    if len(ks) == 1 and config.k is not None:
        _write_probe_trace(sys_, reports[0], config, out_dir)
    _write_phase_table(reports, os.path.join(out_dir, "phase.csv"))
    return {
        "reports": reports,
        "phase_table": [[r.k, r.verdict] for r in reports],
    }


def _t_window(config):
    window = config.params.get("t_window", (-10.0, 10.0))
    if not isinstance(window, (list, tuple)) or len(window) != 2:
        raise ValidationError(f"params.t_window must be a pair [lo, hi], got {window!r}")
    lo, hi = (_number(v, "params.t_window entry") for v in window)
    if not -math.inf < lo < hi < math.inf:  # NaN fails every comparison
        raise ValidationError(f"params.t_window must be finite with lo < hi, got {window!r}")
    return lo, hi


def _n_scan(config):
    return _count(config.params.get("n_scan", 64), "params.n_scan")


def _profile_csv(config):
    """params.profile_csv of an elasticity run, or None when it is absent.

    Only a non-empty string is a path: open() takes an int or a bool as a
    file descriptor, and would read (and close) the process's own stdout.
    """
    path = config.params.get("profile_csv")
    if path is not None and not (isinstance(path, str) and path):
        raise ValidationError(f"params.profile_csv must be a non-empty path string, "
                              f"got {path!r}")
    return path


def _strict_mu(config):
    return _boolean(config.params.get("strict_mu", False), "params.strict_mu")


def _write_probe_trace(sys_, report, config, out_dir):
    # the action's orbit from the witness start (else the first sample point)
    start = report.witness.start if report.witness else sys_.space.sample_points(1)[0]
    xs, ts = torus.action_orbit(sys_, start, 0.0, report.k, min(config.n_max, 2000))
    write_csv(os.path.join(out_dir, "trace.csv"), "n,x,t",
              [[decimal_bytes(np.arange(len(ts))), point_cells(sys_.space, xs),
                float_cells(ts)]])


def _write_phase_table(reports, path):
    write_csv(path, "k,verdict,escape_bound",
              [[float_cells([r.k for r in reports]), [r.verdict for r in reports],
                ["" if r.escape_bound is None else str(r.escape_bound) for r in reports]]])


def _cmd_optimize(config, sys_, out_dir):
    method = config.params.get("method")
    if method is None:
        method = "exact_finite" if sys_.space.kind == "finite" else "birkhoff_fn"
    n = config.params.get("n")
    n = min(config.n_max, 64) if n is None else _count(n, "params.n")
    points = _points_spec(config.grid, "grid")
    lo, hi = ergopt.coboundary_optima(sys_, method=method, n=n, points=points)
    _write_potential_csv(hi, os.path.join(out_dir, "potential.csv"))

    def optimum(r):  # the record without its potentials
        return {"value": r.value, "certificate": r.certificate, "method": r.method}

    return {"minmax": optimum(hi), "maxmin": optimum(lo), "gap": [lo.value, hi.value]}


def _write_potential_csv(result, path):
    table = result.potential_table
    if table is None:
        return
    if isinstance(table, RationalTable):  # its integers are in lowest terms
        cells = fraction_bytes(table.numerators, table.denominators)
    else:
        cells = float_cells(table)
    write_csv(path, "index,f", [[decimal_bytes(np.arange(len(table))), cells]])


def _cmd_construct(config, sys_, out_dir):
    if config.k is None:
        raise ValidationError("construct needs --k")
    mu = torus.build_mu(sys_, finite_size(config.k, "k"), _t_window(config),
                        n_scan=_n_scan(config), points=_points_spec(config.grid, "grid"))
    g = mu.gcons
    # the margin and the mu residual first: a failing check raises as before
    slope_margin = g.slope_margin()
    if not slope_margin > 0:
        raise torus.InfeasibleError(
            f"dt g + k does not carry the sign of k = {g.k} on the reference sample "
            f"(slope margin {slope_margin:.3g}), so sigma is not invertible: g was "
            "built from the averaged factor on the grid alone")
    mu_residual = mu.mu_cocycle_residual(rng=config.seed)
    return {
        "n_used": g.order,
        "cutoff": {
            "mollifier_width": g.cutoff.mollifier_width,
            "derivative_sup": g.cutoff.derivative_sup,
        },
        "g_residual": g.functional_residual(),
        "slope_margin": slope_margin,
        "mu_residual": mu_residual,
        "mirrored": g.mirrored,
    }


def _cmd_elasticity(config, sys_, out_dir):
    gap_resolution = _positive(config.tolerances.get("gap_resolution", 1e-3),
                               "tolerances.gap_resolution")
    profile_csv = _profile_csv(config)
    if profile_csv is not None:
        profile = elastic.profile_from_csv(profile_csv)
    else:
        if sys_ is None:
            raise ValidationError("elasticity needs a system or params.profile_csv")
        if config.k is None:
            raise ValidationError("elasticity from a system needs --k")
        profile = elastic.mapping_torus_profile(
            sys_, finite_size(config.k, "k"), _t_window(config),
            n_scan=_n_scan(config),
            points=_points_spec(config.grid, "grid"),
            strict_mu=_strict_mu(config),
        )
    es = elastic.elasticity_from_profile(profile, gap_resolution=gap_resolution)
    min_u, max_u = profile.bounds
    return {
        "elasticity": es,
        "profile_summary": {
            "samples": profile.size,
            "min_u": min_u,
            "max_u": max_u,
            "first_kind": elastic.first_kind_test(profile),
        },
    }


def _cmd_rank(config, sys_, out_dir):
    gens = config.params.get("generators")
    if not isinstance(gens, (list, tuple)):
        raise ValidationError("rank needs params.generators as a list")
    group = elastic.PeriodGroup.parse(gens)
    return {
        "rank": elastic.lcs_rank(group),
        "generators": [[str(a), str(b)] for a, b in group.generators],
    }


_HANDLERS = {
    "analyze": _cmd_analyze,
    "admissible": _cmd_admissible,
    "probe": _cmd_probe,
    "optimize": _cmd_optimize,
    "construct": _cmd_construct,
    "elasticity": _cmd_elasticity,
    "rank": _cmd_rank,
}

_NEEDS_SYSTEM = {"analyze", "admissible", "probe", "optimize", "construct"}


_ROUNDED = "float factor table: the cycle means carry a rounding error of at most error_bound"
_SAMPLED = {
    "analyze": "limit estimate on a sampled grid is a lower/upper approximation, "
               "not a certified bound",
    "admissible": "gap endpoints are grid estimates; classifications near the "
                  "boundary are not certified",
}


def _warnings(config: RunConfig, payload: dict) -> list:
    """Every warning of a run, read off its config and its normalised
    payload, so that a cache hit reports what the miss did."""
    command, warnings = config.command, []
    if command in _SAMPLED and not payload["limit_estimate"]["exact"]:
        finite = config.system["space"]["kind"] == "finite"
        warnings.append(_ROUNDED if finite else _SAMPLED[command])
    if command == "analyze":
        if payload["limit_estimate"]["error_bound"] == "heuristic":
            warnings.append("no telescoping bound available: error_bound is heuristic")
        if "birkhoff.csv" not in payload["csv_files"]:
            summary = payload["table_summary"]
            warnings.append(f"full table CSV skipped ({summary['points'] * summary['n_max']} "
                            "rows); envelopes.csv kept")
    elif command == "probe" and any(r["heuristic"] for r in payload["reports"]):
        warnings.append("probe verdicts on continuous systems are evidence, not proof")
    elif command == "optimize":
        method = payload["minmax"]["method"]
        if method.startswith("grid_descent"):
            warnings.append("method 'grid_descent' is exact for the snapped grid map, "
                            "which only approximates psi")
        elif method.startswith("birkhoff_fn"):
            warnings.append("method 'birkhoff_fn' yields sampled bounds, not exact optima")
    elif command == "construct":
        warnings.append("construction residuals are sampled; smallness is evidence, "
                        "not a certified bound")
    elif command == "elasticity" and not payload["elasticity"]["equality"]:
        warnings.append("form may vanish: reported complement is a superset of "
                        "the true elasticity set")
    return warnings


def _exit_code(config: RunConfig, payload: dict) -> int:
    """4 when a probe verdict is Inconclusive under strict_verdict, else 0."""
    inconclusive = config.command == "probe" and any(
        r["verdict"] == torus.VERDICT_INCONCLUSIVE for r in payload["reports"])
    return 4 if inconclusive and config.strict_verdict else 0


# --------------------------------------------------------------------------
# cache
# --------------------------------------------------------------------------


def cache_path(config: RunConfig, canonical: dict | str) -> str:
    base = config.cache_dir or os.environ.get("CACHE_DIR") or os.path.join(
        config.out, ".cache")
    profile = _profile_csv(config) if config.command == "elasticity" else None
    digest = None if profile is None else _file_sha256(profile)
    return os.path.join(base, cache_key(canonical, digest) + ".json")


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise ValidationError(f"cannot read profile {path}: {exc}") from None
    return h.hexdigest()


def cache_lookup(path: str, warnings: list):
    """The payload stored at the config's cache path, or None.

    An entry is the object {"payload": payload object}; any other key (the
    warnings that older entries kept) is ignored.  An entry that is not such
    an object is corrupt: it adds a warning and reads as a miss.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except (ValueError, OSError) as exc:  # ValueError: bad JSON or bad UTF-8
        reason = exc
    else:
        if isinstance(stored, dict) and isinstance(stored.get("payload"), dict):
            return stored["payload"]
        reason = "not an object with a payload object"
    warnings.append(f"ignoring corrupt cache entry {os.path.basename(path)}: {reason}")
    return None


def cache_store(path: str, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # one json.dumps: json.dump would run the pure-Python encoder
    with open(path, "w") as fh:
        fh.write(json.dumps({"payload": payload}, sort_keys=True))


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------


def run(config: RunConfig):
    """Execute one command; returns (report dict, exit code).

    The fields the handlers trust (the params and tolerances keys, n_max,
    seed, strict_verdict) are checked before the cache lookup.  The
    warnings and the exit code are read off the normalised payload, the one
    a miss computes or a hit reads from the cache.
    """
    warnings: list = []
    try:
        if config.command not in COMMANDS:
            raise ValidationError(f"unknown command {config.command!r}")
        for name, known in (("params", PARAMS_KEYS), ("tolerances", TOLERANCES_KEYS)):
            if not isinstance(getattr(config, name), dict):
                raise ValidationError(f"{name} must be an object, got {getattr(config, name)!r}")
            check_keys(getattr(config, name), known, name)
        _integer(config.n_max, "n_max")
        _integer(config.seed, "seed", 0)
        _boolean(config.strict_verdict, "strict_verdict")
        os.makedirs(config.out, exist_ok=True)
        canonical = config.canonical()
        config_text = _compact(canonical)  # encoded once: for the key and the echo
        path = cache_path(config, config_text)
        payload = cache_lookup(path, warnings)
        cache_hit = payload is not None
        if not cache_hit:
            sys_ = system_from_config(config.system, config.tolerances) \
                if config.command in _NEEDS_SYSTEM \
                or (config.command == "elasticity" and config.system) else None
            payload = _HANDLERS[config.command](config, sys_, config.out)
            payload = json.loads(json.dumps(payload, default=_json_default))
            cache_store(path, payload)
    except (ValidationError, DomainError) as exc:
        _diag(type(exc).__name__, str(exc))
        return {"error": str(exc)}, 2
    except (BudgetError, torus.NotFoundError, torus.InfeasibleError) as exc:
        _diag(type(exc).__name__, str(exc))
        return {"error": str(exc)}, 3

    warnings += _warnings(config, payload)
    rest = {
        "payload": payload,
        "provenance": {
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="microseconds"),
            "seed": config.seed,
            "cache_hit": cache_hit,
        },
        "warnings": warnings,
    }
    with open(os.path.join(config.out, "report.json"), "w") as fh:
        fh.write(_config_first(config_text, rest))
    return {"config": canonical, **rest}, _exit_code(config, payload)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lcsdyn",
        description="Birkhoff averages, admissible mapping-torus sizes, "
                    "coboundary optima and elasticity sets",
    )
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--command", choices=COMMANDS, help="command to run")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="RNG seed (fixed seed => reproducible payload)")
    p.add_argument("--n-max", type=int, dest="n_max", help="orbit length budget")
    p.add_argument("--grid", type=int, help="sample grid size per dimension")
    p.add_argument("--k", type=float, help="mapping-torus size")
    p.add_argument("--k-range", dest="k_range", help="size sweep a:b:step")
    p.add_argument("--strict-verdict", action="store_true", dest="strict_verdict",
                   help="exit 4 when a probe verdict is Inconclusive")
    return p


def config_from_args(args) -> RunConfig:
    """The config file merged with the flags; ``run`` checks the values."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object, "
                                  f"got {type(data).__name__}")
        check_keys(data, [f.name for f in fields(RunConfig)])
    command = args.command or data.get("command")
    if not command:
        raise ValidationError("no command given (flag --command or config)")
    k_range = data.get("k_range")
    if args.k_range:
        parts = args.k_range.split(":")
        if len(parts) != 3:
            raise ValidationError("--k-range expects a:b:step")
        try:
            k_range = [float(v) for v in parts]
        except ValueError:
            raise ValidationError(f"--k-range has non-numeric parts: {args.k_range!r}") from None
    strict_verdict = data.get("strict_verdict", False)
    return RunConfig(
        command=command,
        system=data.get("system"),
        n_max=args.n_max if args.n_max is not None else data.get("n_max", 200),
        grid=args.grid if args.grid is not None else data.get("grid"),
        k=args.k if args.k is not None else data.get("k"),
        k_range=tuple(k_range) if k_range else None,
        seed=args.seed if args.seed is not None else data.get("seed", 0),
        tolerances=data.get("tolerances", {}),
        params=data.get("params", {}),
        out=args.out or data.get("out", "out"),
        strict_verdict=True if args.strict_verdict and strict_verdict is False
        else strict_verdict,  # a file value other than false is left for run to check
        cache_dir=data.get("cache_dir"),
    )


def _normalize_argv(argv) -> list:
    """Glue values onto --k-range/--k so negative numbers survive argparse."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--k-range", "--k") and tok.startswith("-"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _normalize_argv(argv if argv is not None else _sys.argv[1:])
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        _diag(type(exc).__name__, str(exc))
        return 2
    report, code = run(config)
    if "payload" in report:
        print(json.dumps(report["payload"], sort_keys=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
