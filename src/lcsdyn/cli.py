"""Command-line frontend: config ingestion, pipeline orchestration, reports.

One JSON config (plus flag overrides) drives one command; results land in an
output directory as report.json and CSV files.  Identical config + seed give
byte-identical report payloads, and finished payloads are cached under a hash
of the canonicalized config and of the package's source.

``COMMAND_KEYS`` lists the keys that each command reads besides n_max, seed
and strict_verdict, each with its reader and its default.  ``run`` reads each
given key through its reader once, before the cache lookup, and hands the
handler the values; a key that the command does not read is a validation
error ("params.t_window is not read by analyze"), so a file serves one command.

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
import os
import sys as _sys
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction

import numpy as np

from . import __version__, birkhoff, elastic, ergopt, torus
from .core import (
    DEFAULT_TOL_INVERSE,
    BudgetError,
    DomainError,
    RationalTable,
    ValidationError,
    _factor_record,
    _is_integer,
    cat_map_system,
    check_keys,
    check_order,
    decimal_bytes,
    finite_permutation_system,
    finite_size,
    float_cells,
    fraction_bytes,
    point_cells,
    positive_number,
    rotation_system,
    write_csv,
)


MAX_TABLE_CSV_ROWS = 200_000
MAX_K_VALUES = 10_000


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


def _flag(value, path: str) -> bool:
    """A JSON boolean; anything else is a ValidationError."""
    if not isinstance(value, bool):
        raise ValidationError(f"{path} must be true or false, got {value!r}")
    return value


#: the keys of the space and map specs of each space kind
SPACE_KEYS = {"circle": ("kind", "grid_resolution"), "torus2": ("kind", "grid_resolution"),
              "finite": ("kind", "size")}
MAP_KEYS = {"circle": ("type", "angle"), "torus2": ("type", "matrix"),
            "finite": ("type", "table")}


def system_from_config(decl: dict, tol_inverse: float = DEFAULT_TOL_INVERSE):
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
    opts = {"grid_resolution": check_order(space.get("grid_resolution", 256),
                                           "space.grid_resolution", 2, budget=math.inf),
            "tol_inverse": tol_inverse}
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


def _points_spec(value, path: str):
    """A sample grid given as config key ``path``: a positive int, a
    non-empty list of points, or {"grid": int or None, "seeds": [points]}.
    A count is not an orbit order, so no iteration budget bounds it."""
    if _is_integer(value) and value > 0 or isinstance(value, (list, tuple)) and value:
        return value
    if (isinstance(value, dict) and set(value) <= {"grid", "seeds"}
            and (value.get("grid") is None or _is_integer(value["grid"]) and value["grid"] > 0)
            and isinstance(value.get("seeds", []), (list, tuple))):
        return value
    raise ValidationError(f"{path} must be a positive int, a non-empty list of points or "
                          f'{{"grid": n, "seeds": [points]}}, got {value!r}')


def _k_range(value, path: str) -> list:
    """The sizes a + i * step of [a, b, step], b included."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValidationError(f"{path} expects [a, b, step]")
    a, b, step = (finite_size(v, f"{path} entry") for v in value)
    if not math.isfinite(b + 0.5 * step):
        raise ValidationError(f"{path} [a, b, step] must be finite, b + step/2 "
                              f"included, got {list(value)!r}")
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
    return [a + i * step for i in range(count)]


def _t_window(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"{path} must be a pair [lo, hi], got {value!r}")
    lo, hi = (finite_size(v, f"{path} entry") for v in value)
    if not lo < hi:
        raise ValidationError(f"{path} must have lo < hi, got {value!r}")
    return lo, hi


def _path(value, path: str) -> str:
    """Only a non-empty string is a path: open() takes an int or a bool as a
    file descriptor, and would read (and close) the process's own stdout."""
    if not (isinstance(value, str) and value):
        raise ValidationError(f"{path} must be a non-empty path string, got {value!r}")
    return value


def _method(value, path: str) -> str:
    if not (isinstance(value, str) and value in ergopt.METHODS):
        raise ValidationError(f"{path} must be one of {', '.join(ergopt.METHODS)}, "
                              f"got {value!r}")
    return value


def _generators(value, path: str):
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{path} must be a list, got {value!r}")
    return elastic.PeriodGroup.parse(value)


#: the default of a key that its command cannot run without
_REQUIRED = object()

_SYSTEM = {"system": (None, _REQUIRED),
           "tolerances.tol_inverse": (positive_number, DEFAULT_TOL_INVERSE)}
_GRID = {"grid": (_points_spec, None)}
_SIZES = {"k": (lambda value, path: [finite_size(value, path)], []), "k_range": (_k_range, [])}
_TORUS = {**_SYSTEM, **_GRID, "k": (finite_size, _REQUIRED),
          "params.t_window": (_t_window, (-10.0, 10.0)), "params.n_scan": (check_order, 64)}
_GAP = {"tolerances.gap_resolution": (positive_number, 1e-3)}
PROFILE_ELASTICITY = "elasticity from params.profile_csv"

#: the keys that each command reads besides n_max, seed and strict_verdict,
#: by their paths in the config: each with its reader, which takes the value
#: and the path and returns what the handler gets (None: the value as given),
#: and its default.  An elasticity run given params.profile_csv reads the
#: profile alone (PROFILE_ELASTICITY); every other one builds its system.
COMMAND_KEYS = {
    "analyze": {**_SYSTEM, **_GRID},
    "admissible": {**_SYSTEM, **_GRID, **_SIZES},
    "probe": {**_SYSTEM, **_SIZES, "params.starts": (_points_spec, None)},
    "optimize": {**_SYSTEM, **_GRID, "params.method": (_method, None),
                 "params.n": (check_order, None)},
    "construct": _TORUS,
    "elasticity": {**_TORUS, "params.strict_mu": (_flag, False), **_GAP},
    PROFILE_ELASTICITY: {"params.profile_csv": (_path, _REQUIRED), **_GAP},
    "rank": {"params.generators": (_generators, _REQUIRED)},
}


def _read_keys(config: RunConfig) -> dict:
    """The values the command reads, by the last part of their paths: each
    key given in the config through its reader, each other key's default.
    A key the command does not read, or a required one that is missing, is
    a ValidationError."""
    given = {name: getattr(config, name) for name in ("system", "grid", "k", "k_range")}
    for name in ("params", "tolerances"):
        group = getattr(config, name)
        if not isinstance(group, dict):
            raise ValidationError(f"{name} must be an object, got {group!r}")
        given.update((f"{name}.{key}", value) for key, value in group.items())
    given = {path: value for path, value in given.items() if value is not None}
    command = config.command
    if command == "elasticity" and "params.profile_csv" in given:
        command = PROFILE_ELASTICITY
    keys = COMMAND_KEYS[command]
    for path in given:
        if path not in keys:
            raise ValidationError(f"{path} is not read by {command}, which reads "
                                  f"{', '.join(keys)}")
    values = {}
    for path, (reader, default) in keys.items():
        if path in given:
            value = given[path] if reader is None else reader(given[path], path)
        elif default is _REQUIRED:
            raise ValidationError(f"{command} needs {path}")
        else:
            value = default
        values[path.rpartition(".")[2]] = value
    return values


def _cmd_analyze(config, keys, out_dir):
    # the full per-point table is built only when birkhoff.csv is written
    sys_, points = keys["system"], keys["grid"]
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


def _cmd_admissible(config, keys, out_dir):
    table = birkhoff.birkhoff_extrema(keys["system"], keys["grid"], config.n_max)
    est = birkhoff.limit_estimates(table)
    classifications = [{"k": k, "verdict": est.classify(k)} for k in keys["k"] + keys["k_range"]]
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


def _cmd_probe(config, keys, out_dir):
    ks, sys_ = keys["k"] + keys["k_range"], keys["system"]
    if not ks:
        raise ValidationError("probe needs --k or --k-range")
    reports = torus.probe_sweep(sys_, ks, n_max=config.n_max, starts=keys["starts"])
    if len(ks) == 1 and keys["k"]:
        _write_probe_trace(sys_, reports[0], config, out_dir)
    _write_phase_table(reports, os.path.join(out_dir, "phase.csv"))
    return {
        "reports": reports,
        "phase_table": [[r.k, r.verdict] for r in reports],
    }


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


def _cmd_optimize(config, keys, out_dir):
    sys_ = keys["system"]
    method = keys["method"] or ("exact_finite" if sys_.space.kind == "finite" else "birkhoff_fn")
    lo, hi = ergopt.coboundary_optima(sys_, method=method, n=keys["n"] or min(config.n_max, 64),
                                      points=keys["grid"])
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


def _cmd_construct(config, keys, out_dir):
    mu = torus.build_mu(keys["system"], keys["k"], keys["t_window"], n_scan=keys["n_scan"],
                        points=keys["grid"])
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


def _cmd_elasticity(config, keys, out_dir):
    if "profile_csv" in keys:
        profile = elastic.profile_from_csv(keys["profile_csv"])
    else:
        profile = elastic.mapping_torus_profile(
            keys["system"], keys["k"], keys["t_window"], n_scan=keys["n_scan"],
            points=keys["grid"], strict_mu=keys["strict_mu"])
    es = elastic.elasticity_from_profile(profile, gap_resolution=keys["gap_resolution"])
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


def _cmd_rank(config, keys, out_dir):
    return {
        "rank": elastic.lcs_rank(keys["generators"]),
        "generators": [[str(a), str(b)] for a, b in keys["generators"].generators],
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
COMMANDS = tuple(_HANDLERS)


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


def cache_path(config: RunConfig, canonical: dict | str, profile: str | None = None) -> str:
    """The config's cache entry; the bytes of the ``profile`` file it reads are hashed too."""
    base = config.cache_dir or os.environ.get("CACHE_DIR") or os.path.join(
        config.out, ".cache")
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

    n_max, seed, strict_verdict, out and cache_dir (a path; cache_dir may be
    null), and then every key of COMMAND_KEYS that the config gives, are
    read before the cache lookup; the handlers get the values read.  The
    warnings and the exit code are read off the normalised payload, the one
    a miss computes or a hit reads from the cache.
    """
    warnings: list = []
    try:
        if config.command not in COMMANDS:
            raise ValidationError(f"unknown command {config.command!r}")
        check_order(config.n_max, "n_max")
        check_order(config.seed, "seed", 0, budget=math.inf)
        _flag(config.strict_verdict, "strict_verdict")
        _path(config.out, "out")
        if config.cache_dir is not None:
            _path(config.cache_dir, "cache_dir")
        keys = _read_keys(config)
        os.makedirs(config.out, exist_ok=True)
        canonical = config.canonical()
        config_text = _compact(canonical)  # encoded once: for the key and the echo
        path = cache_path(config, config_text, keys.get("profile_csv"))
        payload = cache_lookup(path, warnings)
        cache_hit = payload is not None
        if not cache_hit:
            if "system" in keys:
                keys["system"] = system_from_config(keys["system"], keys["tol_inverse"])
            payload = _HANDLERS[config.command](config, keys, config.out)
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
    """The config file with the flags over its values; ``run`` checks the values."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object, "
                                  f"got {type(data).__name__}")
        check_keys(data, [f.name for f in fields(RunConfig)])
    data.update((name, getattr(args, name)) for name in ("command", "out", "seed", "n_max",
                                                         "grid", "k")
                if getattr(args, name) not in (None, ""))
    if not data.get("command"):
        raise ValidationError("no command given (flag --command or config)")
    if args.k_range:
        parts = args.k_range.split(":")
        if len(parts) != 3:
            raise ValidationError("--k-range expects a:b:step")
        try:
            data["k_range"] = [float(v) for v in parts]
        except ValueError:
            raise ValidationError(f"--k-range has non-numeric parts: {args.k_range!r}") from None
    k_range = data.get("k_range")
    data["k_range"] = (tuple(k_range) if isinstance(k_range, list) else k_range) or None
    if args.strict_verdict and data.get("strict_verdict", False) is False:
        data["strict_verdict"] = True  # a file value other than false is left for run to check
    return RunConfig(**data)


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
