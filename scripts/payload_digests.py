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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, action="append",
                    help="a workload to run (repeatable); all of them by default")
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload or workloads.WORKLOADS:
            for i, step in enumerate(workloads.build(workload, args.seed, args.size)):
                out_dir = os.path.join(tmp, workload, f"{i}-{step.label}")
                os.makedirs(out_dir)
                for name, digest in step_digests(step.config, out_dir):
                    print(workload, step.label, name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
