#!/usr/bin/env python3
"""sha256 digests of every step of the benchmark's workloads at one seed.

    PYTHONPATH=src python3 scripts/payload_digests.py --seed 7
    PYTHONPATH=src python3 scripts/payload_digests.py --seed 7 --workload float-orbits

Builds each workload's steps with perfbench/workloads.py, which it imports and
does not change, and runs every step once in a fresh temporary directory
with its own cache: a CLI step through ``lcsdyn.cli.run``, a library step
through the ``lcsdyn.birkhoff`` function it names.  Prints one line per
step, ``<workload> <step> payload <sha256>``, hashed as the benchmark hashes
it (the payload as ``json.dumps(..., sort_keys=True)``, a library result as
its float64 bytes), then one ``<workload> <step> <file> <sha256>`` line per
CSV file the step wrote, by name.  Two checkouts that print the same lines
computed the same payloads and files byte for byte.

    PYTHONPATH=src python3 scripts/payload_digests.py --seed 7 > before.txt
    PYTHONPATH=src python3 scripts/payload_digests.py --seed 7 --against before.txt

``--against FILE`` compares the run with a saved listing of the workloads it
runs instead of printing it: it prints each line whose digest differs
(``differs``, the run's line and the saved digest), each saved line the run
did not make (``missing``) and each line of the run the listing lacks
(``added``), and exits 1 if there is any.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from lcsdyn import birkhoff, cli  # noqa: E402


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def step_digests(config: dict, out_dir: str) -> list:
    """[(name, sha256)] of one step run into out_dir: its payload, then every
    CSV file it wrote, by name."""
    if "library" in config:
        fn = getattr(birkhoff, config["library"])
        result = fn(cli.system_from_config(config["system"]), config["n_max"], config["grid"])
        return [("payload", _sha256(np.ascontiguousarray(result, dtype=float).tobytes()))]
    report, code = cli.run(cli.RunConfig(**config, out=out_dir,
                                         cache_dir=os.path.join(out_dir, "cache")))
    if code != 0:
        raise RuntimeError(f"exit code {code}: {report}")
    out = [("payload", _sha256(json.dumps(report["payload"], sort_keys=True).encode()))]
    for name in sorted(f for f in os.listdir(out_dir) if f.endswith(".csv")):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out.append((name, _sha256(fh.read())))
    return out


def differences(lines: list, saved: list) -> list:
    """The lines by which a run's listing differs from a saved one, both as
    ``<workload> <step> <file> <sha256>`` lines: ``differs <line> (saved
    <sha256>)``, ``missing <saved line>`` and ``added <line>``, in the saved
    listing's order and then the run's."""
    run, old = ({tuple(f[:3]): f[3] for f in map(str.split, listing)}
                for listing in (lines, saved))
    out = []
    for key, digest in old.items():
        if key not in run:
            out.append(f"missing {' '.join(key)} {digest}")
        elif run[key] != digest:
            out.append(f"differs {' '.join(key)} {run[key]} (saved {digest})")
    return out + [f"added {' '.join(key)} {digest}" for key, digest in run.items()
                  if key not in old]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, action="append",
                    help="a workload to run (repeatable); all of them by default")
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--against", metavar="FILE",
                    help="a saved listing to compare the run with (see above)")
    args = ap.parse_args(argv)
    names = args.workload or workloads.WORKLOADS
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in names:
            for i, step in enumerate(workloads.build(workload, args.seed, args.size)):
                out_dir = os.path.join(tmp, workload, f"{i}-{step.label}")
                os.makedirs(out_dir)
                for name, digest in step_digests(step.config, out_dir):
                    lines.append(f"{workload} {step.label} {name} {digest}")
                    if args.against is None:
                        print(lines[-1], flush=True)
    if args.against is None:
        return 0
    with open(args.against) as fh:  # the saved lines of the workloads run
        saved = [line for line in fh.read().splitlines() if line.partition(" ")[0] in names]
    diff = differences(lines, saved)
    print("\n".join(diff) if diff else f"all {len(lines)} lines match {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
