#!/usr/bin/env python3
"""Forbidden homothety constants of a mapping torus as the size varies.

For a constant-factor rotation, sweeps admissible sizes k and records the
hull of the forbidden set of the derived Liouville profile together with the
scaled image {c*k}.  Output: elasticity_vs_k.csv.
"""

import argparse
import csv
import os

import numpy as np

from lcsdyn import (
    elasticity_from_profile,
    mapping_torus_profile,
    rotation_system,
)
from lcsdyn.torus import NotFoundError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/elasticity_sweep")
    ap.add_argument("--factor", type=float, default=0.2)
    ap.add_argument("--angle", type=float, default=0.5)
    ap.add_argument("--k-values", default="0.4,0.6,0.8,1.0,1.5,2.0,3.0")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    sys_ = rotation_system(args.angle, args.factor, grid_resolution=256)
    rows = []
    for k in (float(v) for v in args.k_values.split(",")):
        try:
            prof = mapping_torus_profile(sys_, k, (-10, 10))
        except NotFoundError as exc:
            print(f"k={k}: skipped ({exc})")
            continue
        es = elasticity_from_profile(prof, gap_resolution=5e-3)
        lo = min(a for a, _ in es.forbidden)
        hi = max(b for _, b in es.forbidden)
        rows.append([k, lo, hi, lo * k, hi * k])
        print(f"k={k}: forbidden hull [{lo:+.4f}, {hi:+.4f}], "
              f"scaled [{lo * k:+.4f}, {hi * k:+.4f}]")

    with open(os.path.join(args.out, "elasticity_vs_k.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "forbidden_lo", "forbidden_hi", "scaled_lo", "scaled_hi"])
        w.writerows(rows)


if __name__ == "__main__":
    main()
