#!/usr/bin/env python3
"""Study of the strict golden-rotation preset (factor = coboundary of sin).

Sweeps envelope extrema against the orbit length, probes a range of sizes k,
and records the size-1 construction residuals.  Writes envelopes.csv,
phase.csv and summary.json to the output directory.
"""

import argparse
import csv
import json
import math
import os

from lcsdyn import (
    birkhoff_extrema,
    build_mu,
    limit_estimates,
    probe_sweep,
    strict_rotation_system,
)
from lcsdyn.birkhoff import extrema_to_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/strict_study")
    ap.add_argument("--grid", type=int, default=1024)
    ap.add_argument("--n-max", type=int, default=2000)
    ap.add_argument("--k-max", type=float, default=2.0)
    ap.add_argument("--k-step", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    sys_ = strict_rotation_system("golden", {"type": "trig", "sin": [[1, 1.0]]},
                                  grid_resolution=args.grid)
    ext = birkhoff_extrema(sys_, args.grid, n_max=args.n_max)
    extrema_to_csv(ext, os.path.join(args.out, "envelopes.csv"))
    est = limit_estimates(ext)
    print(f"envelope gap at n={args.n_max}: [{est.L_minus:+.2e}, {est.L_plus:+.2e}]"
          f" (bound {est.error_bound:.2e})")

    # -k_max + i k_step, not a running sum, whose rounding turns k = 0 into
    # -2.8e-17 (0.1 steps); 1e-9 absorbs the rounding of the quotient
    count = math.floor(2 * args.k_max / args.k_step + 1e-9) + 1
    ks = [-args.k_max + i * args.k_step for i in range(count)]
    with open(os.path.join(args.out, "phase.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "verdict", "escape_bound", "witness_n"])
        for k, rep in zip(ks, probe_sweep(sys_, ks, n_max=5000, starts=64)):
            w.writerow([f"{k:.4f}", rep.verdict,
                        rep.escape_bound if rep.escape_bound is not None else "",
                        rep.witness.n if rep.witness else ""])
            print(f"k={k:+.2f}: {rep.verdict}")

    mu = build_mu(sys_, 1.0, (-10, 10), samples=500, rng=args.seed)
    summary = {
        "limit_estimate": est.to_json(),
        "construction_k1": {
            "n_used": mu.n_used,
            "mu_residual": mu.report.residual_max,
            "g_residual": mu.gcons.functional_residual(),
            "slope_margin": mu.report.slope_margin,
        },
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"size-1 construction: n={mu.n_used}, "
          f"mu residual {mu.report.residual_max:.2e}")


if __name__ == "__main__":
    main()
