#!/usr/bin/env python3
"""lcsdyn benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout (it imports lcsdyn from ./src).  Each run
starts one fresh worker process (worker.py) with BLAS/OpenMP threads capped at
THREADS; with --trace 0 it also starts SETUP_PROBES processes that only import
lcsdyn, and reports the median set-up time.  Every time metric is rescaled to
the reference speed of hostspeed.py.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count the oracle checks.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  Scratch output, payload
digests and the span trace go under .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREADS = "1"  # <= nproc; one thread keeps runs steady on a shared machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 4
PROBE_CODE = "import time, lcsdyn; print(repr(time.time()))"
DEADLINE_S = 170.0
OUT_ROOT = ".perfbench-out"

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("slowest_cmd_s", "s"), ("peak_rss_mib", "MiB")]


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("CACHE_DIR", None)  # every pass sets its own cache directory
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def setup_sample(env, deadline) -> float:
    """Seconds from process start to `import lcsdyn` done, in a fresh interpreter."""
    before = hostspeed.sample()
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", PROBE_CODE], env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"importing lcsdyn failed:\n{proc.stderr}")
    return hostspeed.rescale(float(proc.stdout.strip()) - t0, before, hostspeed.sample())


def run_worker(args, env, run_dir, deadline) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", run_dir]
    before = hostspeed.sample()
    t0 = time.time()
    try:
        proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    path = os.path.join(run_dir, "worker.json")
    if proc.returncode != 0 or not os.path.isfile(path):
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    with open(path) as fh:
        result = json.load(fh)
    setup = hostspeed.rescale(result["import_done"] - t0, before, result["import_reference_s"])
    return result, setup


def report(args, result, setups, run_dir) -> dict:
    checks = result["checks"]
    failed = [c for c in checks if not c[2]]
    untraced = sum(1 for p in result["passes"] if not p["traced"])
    print(f"workload {args.workload}, seed {args.seed}: {len(result['passes'])} passes "
          f"({untraced} untraced), closed loop, 1 client, {THREADS} BLAS thread")
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setups), "run_s": result["run_s"],
                  "slowest_cmd_s": result["slowest_cmd_s"],
                  "peak_rss_mib": result["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"  (times at the reference speed of hostspeed.py; setup_s: median of "
              f"{len(setups)} starts; run_s, slowest_cmd_s: sum and largest of the steps' "
              f"medians over {untraced} passes)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for label, step in result["step_s"].items():
        wall = statistics.median(p["steps"][label] for p in result["passes"] if not p["traced"])
        print(f"  step {label:35s} {step:>16.6g} s ({wall:.6g} s wall, median over passes)")
    print(f"  {'error_rate':40s} {len(failed) / len(checks):>16.6g} ratio "
          f"({len(failed)} failed of {len(checks)} checks)")
    for label, name in sorted({(c[0], c[1]) for c in failed}):
        times = sum(1 for c in failed if (c[0], c[1]) == (label, name))
        print(f"  FAILED {label}: {name} ({times} of {len(result['passes'])} passes)")
    mismatched = [c[0] for c in failed if c[1] == "payload digest repeats across passes"]
    for label, value in result["digests"].items():
        note = "  DIFFERS between passes" if label in mismatched else ""
        print(f"  payload sha256 {label:26s} {value}{note}")
    with open(os.path.join(run_dir, "digests.json"), "w") as fh:
        json.dump({"digests": result["digests"],
                   "per_pass": [p["digests"] for p in result["passes"]]}, fh, indent=1)
    return {"correct": not failed, "attempted": len(checks), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "lcsdyn", "__init__.py")):
            raise BenchError("run from the root of an lcsdyn checkout (src/lcsdyn not found)")
        run_dir = os.path.join(root, OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        env = child_env(root)
        setups = [] if args.trace else [setup_sample(env, deadline) for _ in range(SETUP_PROBES)]
        result, worker_setup = run_worker(args, env, run_dir, deadline)
        out = report(args, result, setups + [worker_setup], run_dir)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
