#!/usr/bin/env python3
"""Run the full default sweep and render every chart into an output directory.

Usage: python scripts/run_full_sweep.py [outdir] [--samples N] [--seed S] [--workers W]

A flag left out takes `slicesec sweep`'s own default.
"""

import argparse
import os
import subprocess
import sys

CHARTS = [
    ("mi_vs_t", "direct", "mi_vs_t.svg"),
    ("delta_vs_t", "direct", "delta_direct.svg"),
    ("delta_vs_t", "reverse", "delta_reverse.svg"),
    ("best_vs_t", "direct", "best_direct.svg"),
    ("best_vs_t", "reverse", "best_reverse.svg"),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="sweep_out")
    ap.add_argument("--samples", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workers", type=int)
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, "sweep.csv")

    run = [sys.executable, "-m", "slicesec"]
    given = []
    for flag in ("samples", "seed", "workers"):
        if getattr(args, flag) is not None:
            given += [f"--{flag}", str(getattr(args, flag))]
    subprocess.run(run + ["sweep", *given, "--out", csv_path], check=True)

    for plot_mode, mode, name in CHARTS:
        subprocess.run(run + [
            "plot", csv_path, "--plot-mode", plot_mode, "--mode", mode,
            "--out", os.path.join(args.outdir, name),
        ], check=True)

    for mode in ("direct", "reverse"):
        subprocess.run(run + [
            "best", csv_path, "--mode", mode,
            "--out", os.path.join(args.outdir, f"best_{mode}.csv"),
        ], check=True)

    print(f"wrote sweep and charts to {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
