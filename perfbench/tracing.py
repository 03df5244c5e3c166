"""Spans and counters recorded around lcsdyn's public functions.

A traced pass rebinds public functions of the lcsdyn modules to wrappers that
record a span (name, start, end, parent) and update counters; src/lcsdyn is
not changed.  A function is rebound under every module-level name that refers
to it, because birkhoff, torus and ergopt import `eval_factor` and
`step_points` by name from core.  Spans stay in memory until the run ends.
A layer's time is its spans' self time: duration minus the time covered by
child spans.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from workloads import OPERATIONS

# (metric, unit) in the order printed; BENCHMARK.json lists the same names.
PER_LAYER = [
    ("core.build_s", "s"), ("core.step_points_s", "s"), ("core.step_points_calls", "count"),
    ("core.points_stepped", "count"), ("core.eval_factor_s", "s"),
    ("core.eval_factor_calls", "count"), ("core.points_evaluated", "count"),
    ("birkhoff.table_s", "s"), ("birkhoff.table_cells", "count"),
    ("birkhoff.table_bytes_computed", "B"), ("birkhoff.limit_s", "s"),
    ("birkhoff.residual_curve_s", "s"), ("birkhoff.potential_s", "s"),
    ("birkhoff.csv_s", "s"), ("birkhoff.csv_bytes", "B"),
    ("torus.probe_s", "s"), ("torus.probe_calls", "count"),
    ("torus.cert.cycle-exact", "count"), ("torus.cert.telescoping-bound", "count"),
    ("torus.cert.envelope", "count"), ("torus.cert.orbit-returns", "count"),
    ("torus.cert.none", "count"),
    ("torus.build_g_s", "s"), ("torus.cutoff_s", "s"), ("torus.build_mu_s", "s"),
    ("torus.mu_residual_s", "s"), ("torus.grid_eval_s", "s"), ("torus.dt_attainable_s", "s"),
    ("torus.invert_calls", "count"), ("torus.g_calls", "count"), ("torus.dt_calls", "count"),
    ("torus.g_calls_per_invert", "calls/invert"),
    ("ergopt.minmax_s", "s"), ("ergopt.maxmin_s", "s"), ("ergopt.cycle_mean_s", "s"),
    ("ergopt.cycle_mean_calls", "count"), ("ergopt.cycle_mean_states", "count"),
    ("elastic.profile_s", "s"), ("elastic.profile_samples", "count"),
    ("elastic.elasticity_s", "s"), ("elastic.rank_s", "s"),
    ("cli.self_s", "s"), ("cli.cache_lookup_s", "s"), ("cli.cache_store_s", "s"),
    ("cli.misses", "count"), ("cli.report_bytes", "B"), ("cli.artifact_bytes", "B"),
    ("op.birkhoff_table_strict_4096x2000_s", "s"), ("op.residual_curve_strict_4096x2000_s", "s"),
    ("op.build_mu_strict_k1_s", "s"), ("op.grid_descent_minmax_cos1024_s", "s"),
    ("op.exact_table_20000x200x200_s", "s"),
    ("setup.import_s", "s"), ("trace_overhead_ratio", "ratio"),
]

# time metric -> span name (self time summed over spans of that name)
SELF_TIMES = {
    "core.build_s": "core.build", "core.step_points_s": "core.step_points",
    "core.eval_factor_s": "core.eval_factor", "birkhoff.table_s": "birkhoff.table",
    "birkhoff.limit_s": "birkhoff.limit", "birkhoff.residual_curve_s": "birkhoff.residual_curve",
    "birkhoff.potential_s": "birkhoff.potential", "birkhoff.csv_s": "birkhoff.csv",
    "torus.probe_s": "torus.probe", "torus.build_g_s": "torus.build_g",
    "torus.cutoff_s": "torus.cutoff", "torus.build_mu_s": "torus.build_mu",
    "torus.mu_residual_s": "torus.mu_residual", "torus.grid_eval_s": "torus.grid_eval",
    "torus.dt_attainable_s": "torus.dt_attainable", "ergopt.minmax_s": "ergopt.minmax",
    "ergopt.maxmin_s": "ergopt.maxmin", "ergopt.cycle_mean_s": "ergopt.cycle_mean",
    "elastic.profile_s": "elastic.profile", "elastic.elasticity_s": "elastic.elasticity",
    "elastic.rank_s": "elastic.rank", "cli.self_s": "cli.run",
    "cli.cache_lookup_s": "cli.cache_lookup", "cli.cache_store_s": "cli.cache_store",
}


class Tracer:
    """Spans [name, start, end, parent index or -1] and counters of one pass."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._open = []

    def _begin(self, name):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _end(self, rec):
        rec[2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        rec = self._begin(name)
        try:
            yield rec
        finally:
            self._end(rec)

    def timed(self, name, fn, on_return=None):
        """fn wrapped in a span; on_return(counters, span, result, *args, **kw)."""

        def wrapper(*args, **kwargs):
            rec = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if on_return is not None:
                on_return(self.counters, rec, result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, fn, on_call):
        """fn with a counter update per call and no span (for hot scalar calls)."""

        def wrapper(*args, **kwargs):
            on_call(self.counters, *args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += end - start - covered[i]
        return totals

    def operation_time(self, step_span: str, name: str) -> float:
        """Inclusive time of the shallowest span `name` under the span `step_span`."""
        depth = {}
        best = None
        for i, (span_name, start, end, parent) in enumerate(self.spans):
            if span_name == step_span:
                depth[i] = 0
            elif parent in depth:
                depth[i] = depth[parent] + 1
                if span_name == name and (best is None or depth[i] < best[0]):
                    best = (depth[i], end - start)
        return 0.0 if best is None else best[1]


# --------------------------------------------------------------------------
# counters
# --------------------------------------------------------------------------


def _points(calls, points):
    def on_return(c, _rec, _result, _sys, pts, *args, **kwargs):
        c[calls] += 1
        c[points] += np.shape(pts)[0]

    return on_return


def _table(c, _rec, table, *args, **kwargs):
    cells = table.n_max * len(table.points)
    c["birkhoff.table_cells"] += cells
    if not table.exact:  # float64 H, S, A, env-, env+: 5 x 8 bytes per cell
        c["birkhoff.table_bytes_computed"] += 40 * cells


def _csv(c, _rec, _result, _table_arg, path, *args, **kwargs):
    c["birkhoff.csv_bytes"] += os.path.getsize(path)


def _probe(c, _rec, report, *args, **kwargs):
    c["torus.probe_calls"] += 1
    c[f"torus.cert.{report.certificate}"] += 1


def _cycle_mean(c, _rec, _result, sys_, *args, **kwargs):
    c["ergopt.cycle_mean_calls"] += 1
    c["ergopt.cycle_mean_states"] += len(sys_.perm_table)


def _profile(c, _rec, profile, *args, **kwargs):
    c["elastic.profile_samples"] += profile.samples.size


def _cli_run(c, _rec, result, config, *args, **kwargs):
    report, _code = result
    if "provenance" not in report:
        return
    if not report["provenance"]["cache_hit"]:
        c["cli.misses"] += 1
    for entry in os.scandir(config.out):
        if entry.is_file():
            key = "cli.report_bytes" if entry.name == "report.json" else "cli.artifact_bytes"
            c[key] += entry.stat().st_size


def _scalar_eval(name):
    # a mirrored construction delegates to its inner one: count the inner call
    def on_call(c, gcons, *args, **kwargs):
        if not gcons.mirrored:
            c[name] += 1

    return on_call


def _invert(c, *args, **kwargs):
    c["torus.invert_calls"] += 1


# --------------------------------------------------------------------------
# installation
# --------------------------------------------------------------------------


def _wrappers(tracer):
    """(owner, attribute, wrapper factory) for every traced function."""
    from lcsdyn import birkhoff, cli, core, elastic, ergopt, torus

    t, n = tracer.timed, tracer.counted
    G, Mu = torus.GConstruction, torus.MuConstruction
    stepped = _points("core.step_points_calls", "core.points_stepped")
    evaluated = _points("core.eval_factor_calls", "core.points_evaluated")
    return [
        (core, "step_points", lambda f: t("core.step_points", f, stepped)),
        (core, "eval_factor", lambda f: t("core.eval_factor", f, evaluated)),
        (cli, "system_from_config", lambda f: t("core.build", f)),
        (birkhoff, "birkhoff_table", lambda f: t("birkhoff.table", f, _table)),
        (birkhoff, "limit_estimates", lambda f: t("birkhoff.limit", f)),
        (birkhoff, "coboundary_residual_curve", lambda f: t("birkhoff.residual_curve", f)),
        (birkhoff, "transfer_potential", lambda f: t("birkhoff.potential", f)),
        (birkhoff, "transfer_potential_values", lambda f: t("birkhoff.potential", f)),
        (birkhoff, "table_to_csv", lambda f: t("birkhoff.csv", f, _csv)),
        (birkhoff, "extrema_to_csv", lambda f: t("birkhoff.csv", f, _csv)),
        (torus, "properness_probe", lambda f: t("torus.probe", f, _probe)),
        (torus, "build_g", lambda f: t("torus.build_g", f)),
        (torus, "build_cutoff", lambda f: t("torus.cutoff", f)),
        (torus, "build_mu", lambda f: t("torus.build_mu", f)),
        (Mu, "mu_cocycle_residual", lambda f: t("torus.mu_residual", f)),
        (Mu, "invert_sigma_t", lambda f: n(f, _invert)),
        (G, "g", lambda f: n(f, _scalar_eval("torus.g_calls"))),
        (G, "dt", lambda f: n(f, _scalar_eval("torus.dt_calls"))),
        (G, "g_grid", lambda f: t("torus.grid_eval", f)),
        (G, "dt_grid", lambda f: t("torus.grid_eval", f)),
        (G, "dt_attainable", lambda f: t("torus.dt_attainable", f)),
        (ergopt, "minmax_coboundary", lambda f: t("ergopt.minmax", f)),
        (ergopt, "maxmin_coboundary", lambda f: t("ergopt.maxmin", f)),
        (ergopt, "cycle_mean_extrema", lambda f: t("ergopt.cycle_mean", f, _cycle_mean)),
        (elastic, "mapping_torus_profile", lambda f: t("elastic.profile", f, _profile)),
        (elastic, "elasticity_from_profile", lambda f: t("elastic.elasticity", f)),
        (elastic, "lcs_rank", lambda f: t("elastic.rank", f)),
        (cli, "cache_lookup", lambda f: t("cli.cache_lookup", f)),
        (cli, "cache_store", lambda f: t("cli.cache_store", f)),
        (cli, "run", lambda f: t("cli.run", f, _cli_run)),
    ]


@contextmanager
def installed(tracer):
    """Rebind the traced functions for the duration of the block.

    A missing attribute (renamed by a later change) is reported on stderr and
    left untraced; its metrics then read 0.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "lcsdyn" or name.startswith("lcsdyn."))]
    saved = []
    try:
        for owner, attr, make in _wrappers(tracer):
            original = getattr(owner, attr, None)
            if original is None:
                print(f"perfbench: {owner.__name__}.{attr} not found, left untraced",
                      file=sys.stderr)
                continue
            wrapper = make(original)
            if isinstance(owner, type):
                targets = [(owner, attr)]
            else:
                targets = [(m, name) for m in modules
                           for name, value in list(vars(m).items()) if value is original]
            for target, name in targets:
                saved.append((target, name, original))
                setattr(target, name, wrapper)
        yield tracer
    finally:
        for target, name, original in reversed(saved):
            setattr(target, name, original)


def layer_metrics(tracers, untraced_walls, traced_walls, import_s) -> dict:
    """Per-layer metrics: median self times over traced passes, counts of the first."""
    def median(values):
        return float(np.median(values)) if len(values) else 0.0

    self_times = [t.self_times() for t in tracers]
    first = tracers[0].counters
    out = {}
    for name, unit in PER_LAYER:
        if name in SELF_TIMES:
            out[name] = median([st.get(SELF_TIMES[name], 0.0) for st in self_times])
        elif name in OPERATIONS:
            label, span = OPERATIONS[name]
            out[name] = median([t.operation_time("step:" + label, span) for t in tracers])
        elif name == "torus.g_calls_per_invert":
            inverts = first.get("torus.invert_calls", 0)
            out[name] = first.get("torus.g_calls", 0) / inverts if inverts else 0.0
        elif name == "setup.import_s":
            out[name] = import_s
        elif name == "trace_overhead_ratio":
            out[name] = median(traced_walls) / median(untraced_walls)
        else:
            out[name] = int(first.get(name, 0))
    return out


COUNT_NAMES = [name for name, unit in PER_LAYER if unit in ("count", "B")]
