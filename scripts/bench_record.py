#!/usr/bin/env python3
"""Record benchmark runs into BENCH_<PR>.json.

    python3 scripts/bench_record.py --pr 26 --seed 7 --runs 5
    python3 scripts/bench_record.py --pr 26 --seed 7 --runs 5 \\
        --checkout parent=../lcsdyn-parent --checkout change=.

Runs ``perfbench/run.py --trace 0`` R times per workload at one seed, in each
named checkout (this one, as "change", by default).  A checkout is the root
of a tree with ``src/`` and ``perfbench/``, such as one made by ``git
worktree add`` or an unpacked ``git archive`` of another commit; its own
harness runs its own code.  Runs alternate between the checkouts, so that
each pair of runs meets the same phase of a shared machine, and each run
reverses which checkout goes first.  It reads the
workload names from perfbench/workloads.py and changes nothing there.

The JSON file holds, per checkout and workload: the median and quartiles of
the four end-to-end metrics over the runs (and every run's value), the
per-step medians of ``worker.json``'s ``step_s``, the payload digests, and
how many oracle checks ran and failed.  With two checkouts it then prints
one line per workload and metric, and per workload and step, comparing the
first checkout's median with the second's; a step's line also says whether
its payload digest differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS  # noqa: E402

END_TO_END = ("setup_s", "run_s", "slowest_cmd_s", "peak_rss_mib")


def spread(values) -> dict:
    """Median, quartiles and the values themselves."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in a checkout: its end-to-end
    metrics, checks, per-step times and payload digests."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(checkout, ".perfbench-out", f"{workload}-seed{seed}-trace0",
                        "worker.json")
    with open(path) as fh:
        worker = json.load(fh)
    return {"metrics": {name: summary["metrics"][name]["value"] for name in END_TO_END},
            "attempted": summary["attempted"], "failed": summary["failed"],
            "step_s": worker["step_s"], "digests": worker["digests"]}


def commit_of(checkout: str):
    """(HEAD commit, whether tracked files match it); (None, None) outside git."""
    git = ["git", "-C", checkout]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return None, None
    status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True)
    return head.stdout.strip(), status.returncode == 0 and not status.stdout.strip()


def summarize(runs: list) -> dict:
    """One workload of one checkout, from its runs."""
    steps = runs[0]["step_s"]
    return {
        "end_to_end": {name: spread([r["metrics"][name] for r in runs]) for name in END_TO_END},
        "step_s_median": {label: statistics.median(r["step_s"][label] for r in runs)
                          for label in steps},
        "digests": runs[0]["digests"],
        "digests_repeat": all(r["digests"] == runs[0]["digests"] for r in runs),
        "checks_attempted": sum(r["attempted"] for r in runs),
        "checks_failed": sum(r["failed"] for r in runs),
    }


def comparison(record: dict) -> list:
    """Lines comparing the medians of the first two checkouts of a record:
    ``<workload> <metric or step>: <a> <median>, <b> <median>, <change>%``,
    and for a step ``, digest same`` or ``, digest differs``."""
    (a, base), (b, other) = list(record["checkouts"].items())[:2]
    lines = []
    for w, mine in base["workloads"].items():
        theirs = other["workloads"][w]
        rows = [(name, mine["end_to_end"][name]["median"],
                 theirs["end_to_end"][name]["median"], None) for name in END_TO_END]
        rows += [(label, mine["step_s_median"][label], theirs["step_s_median"][label],
                  mine["digests"].get(label) == theirs["digests"].get(label))
                 for label in mine["step_s_median"]]
        for name, x, y, same in rows:
            line = f"{w} {name}: {a} {x:.4g}, {b} {y:.4g}, {100.0 * (y - x) / x:+.1f}%"
            if same is not None:
                line += ", digest " + ("same" if same else "differs")
            lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pr", type=int, required=True, help="the number in BENCH_<PR>.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--runs", type=int, default=5, help="runs per workload and checkout")
    ap.add_argument("--seconds", type=float, default=8.0, help="run.py --seconds")
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="a workload to run (repeatable); all of them by default")
    ap.add_argument("--checkout", action="append", metavar="NAME=DIR",
                    help="a named checkout to run (repeatable); change=<this checkout> "
                         "by default")
    ap.add_argument("--out", help="output file; BENCH_<PR>.json in this checkout by default")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    checkouts = {name: os.path.abspath(path) for name, path in
                 (c.split("=", 1) for c in args.checkout or [f"change={ROOT}"])}
    workloads = args.workload or list(WORKLOADS)
    runs = {name: {w: [] for w in workloads} for name in checkouts}
    for i in range(args.runs):
        for w in workloads:
            order = list(checkouts.items())
            for name, path in order[::-1] if i % 2 else order:
                runs[name][w].append(run_once(path, w, args.seed, args.seconds))
                print(f"run {i + 1}/{args.runs} {w} {name}: run_s "
                      f"{runs[name][w][-1]['metrics']['run_s']:.4f}", flush=True)
    record = {
        "pr": args.pr, "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "command": "perfbench/run.py --trace 0",
        "checkouts": {
            name: dict(zip(("commit", "clean"), commit_of(path)),
                       workloads={w: summarize(runs[name][w]) for w in workloads})
            for name, path in checkouts.items()},
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    if len(checkouts) > 1:
        print("\n".join(comparison(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
