"""One run of one workload, in a fresh process started by run.py.

Closed loop with a single client: each step calls `lcsdyn.cli.run` (or one
library function) once the previous step has returned.  The step list is run
as whole passes until the measuring time is used up.  Every pass gets its own
output and cache directories, so no pass is served from an earlier pass's
cache.  Checks run after each pass, outside the timed region.  With tracing,
untraced and traced passes alternate.  Each step's time is its median over
the untraced passes, rescaled to the reference speed of hostspeed.py; run_s
sums these and slowest_cmd_s is the largest.

Writes worker.json (timings, checks, payload digests, per-layer metrics) and,
with tracing, trace.json (every span) into the run directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext

_t0 = time.perf_counter()
import lcsdyn  # noqa: E402,F401  (timed: this is the set-up every CLI call pays)

IMPORT_S = time.perf_counter() - _t0
IMPORT_DONE = time.time()

import numpy as np  # noqa: E402
from lcsdyn import birkhoff, cli  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_REFERENCE_S = hostspeed.sample()  # host speed just after the timed import

MAX_MEASURE_S = 110.0  # stop starting passes after this, whatever --seconds says


def execute(config: dict, out_dir: str, cache_dir: str):
    """Run one step; returns (report, exit code, library result)."""
    if "library" in config:
        sys_ = cli.system_from_config(config["system"])
        curve = birkhoff.coboundary_residual_curve(sys_, config["n_max"], config["grid"])
        return None, None, curve
    report, code = cli.run(cli.RunConfig(**config, out=out_dir, cache_dir=cache_dir))
    return report, code, None


def digest(report, result) -> str:
    """sha256 of the payload as the CLI prints it, or of a library result's bytes."""
    if report is None and result is not None:
        blob = np.ascontiguousarray(result, dtype=float).tobytes()
    elif report is not None and "payload" in report:
        blob = json.dumps(report["payload"], sort_keys=True).encode()
    else:
        return "no-payload"
    return hashlib.sha256(blob).hexdigest()


def run_pass(steps, pass_dir: str, tracer):
    """Time one pass over the step list.

    Returns each step's wall seconds, the same rescaled to the reference speed
    (hostspeed.py, sampled between steps, outside the timed region), and the
    outcomes.
    """
    cache_dir = os.path.join(pass_dir, "cache")
    seconds, refs, outcomes = [], [], []
    with tracing.installed(tracer) if tracer else nullcontext():
        for idx, step in enumerate(steps):
            refs.append(hostspeed.sample())
            out_dir = os.path.join(pass_dir, f"{idx}-{step.label}")
            t = time.perf_counter()
            with tracer.span("step:" + step.label) if tracer else nullcontext():
                try:
                    outcome = workloads.Outcome(*execute(step.config, out_dir, cache_dir), out_dir)
                except Exception:  # a crashing step is a failed operation, not a harness error
                    traceback.print_exc()
                    outcome = None
            seconds.append(time.perf_counter() - t)
            outcomes.append(outcome)
        refs.append(hostspeed.sample())
    rescaled = [hostspeed.rescale(s, refs[i], refs[i + 1]) for i, s in enumerate(seconds)]
    return seconds, rescaled, outcomes


def check_pass(steps, outcomes) -> list:
    """(step label, check name, passed) for every check of one pass, and the digests."""
    digests = {s.label: digest(o.report, o.result) for s, o in zip(steps, outcomes) if o}
    results = []
    for step, o in zip(steps, outcomes):
        if o is None:
            results.append((step.label, "ran without an exception", False))
            continue
        if o.report is not None:
            results.append((step.label, "exit code 0", o.code == 0))
            if o.code != 0:
                continue
        try:
            results.extend((step.label, name, bool(ok)) for name, ok in step.check(o))
        except Exception as exc:  # a check that cannot read the output fails
            results.append((step.label, f"check raised {type(exc).__name__}: {exc}", False))
    return results, digests


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: str,
            size: str = "full") -> dict:
    steps = workloads.build(workload, seed, size)
    passes, checks, tracers = [], [], []
    first_digests = None
    start = time.perf_counter()
    while True:
        index = len(passes)
        tracer = tracing.Tracer() if trace and index % 2 == 1 else None
        pass_dir = os.path.join(run_dir, f"pass{index}")
        step_seconds, rescaled, outcomes = run_pass(steps, pass_dir, tracer)
        results, digests = check_pass(steps, outcomes)
        shutil.rmtree(pass_dir, ignore_errors=True)
        if first_digests is None:
            first_digests = digests
        else:  # same code, same inputs: every payload must repeat byte for byte
            results.extend((label, "payload digest repeats across passes",
                            digests.get(label) == first_digests.get(label))
                           for label in first_digests)
        if tracer is not None:
            if tracers:
                repeat = all(tracer.counters.get(n, 0) == tracers[0].counters.get(n, 0)
                             for n in tracing.COUNT_NAMES)
                results.append(("trace", "per-layer counts repeat across passes", repeat))
            tracers.append(tracer)
        checks.extend(results)
        labels = [s.label for s in steps]
        passes.append({"traced": tracer is not None, "wall": sum(step_seconds),
                       "steps": dict(zip(labels, step_seconds)),
                       "rescaled": dict(zip(labels, rescaled)), "digests": digests})
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and (not trace or len(passes) >= 2)
        if enough or elapsed >= MAX_MEASURE_S:
            break

    untraced = [p for p in passes if not p["traced"]]
    step_s = {s.label: float(np.median([p["rescaled"][s.label] for p in untraced]))
              for s in steps}
    result = {
        "workload": workload, "seed": seed, "passes": passes,
        "checks": [list(c) for c in checks],
        "digests": first_digests,
        "step_s": step_s,
        "run_s": sum(step_s.values()),
        "slowest_cmd_s": max(step_s.values()),
        "import_s": IMPORT_S, "import_done": IMPORT_DONE,
        "import_reference_s": IMPORT_REFERENCE_S,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        result["layers"] = tracing.layer_metrics(
            tracers, [p["wall"] for p in untraced],
            [p["wall"] for p in passes if p["traced"]], IMPORT_S)
        with open(os.path.join(run_dir, "trace.json"), "w") as fh:
            json.dump([{"pass": i, "spans": t.spans, "counters": t.counters}
                       for i, t in enumerate(tracers)], fh)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.run_dir)
    with open(os.path.join(args.run_dir, "worker.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
