#!/usr/bin/env python3
"""Run the full default sweep and render every chart into an output directory.

Usage: python scripts/run_full_sweep.py [outdir] [--samples N] [--seed S] [--workers W]

A flag left out takes `slicesec sweep`'s own default. The five charts and
two `best` tables are the benchmark's report commands (`report_argvs` in
`bench/workloads.py`).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import CSV_NAME, report_argvs  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="sweep_out")
    ap.add_argument("--samples", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workers", type=int)
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, CSV_NAME)

    run = [sys.executable, "-m", "slicesec"]
    given = []
    for flag in ("samples", "seed", "workers"):
        if getattr(args, flag) is not None:
            given += [f"--{flag}", str(getattr(args, flag))]
    subprocess.run(run + ["sweep", *given, "--out", csv_path], check=True)

    for report in report_argvs(args.outdir):
        subprocess.run(run + report, check=True)

    print(f"wrote sweep and charts to {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
