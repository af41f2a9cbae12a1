#!/usr/bin/env python3
"""Time a benchmark workload's sweep in interleaved pairs: another checkout against this one.

    python scripts/ab_pairs.py PARENT_DIR --workload NAME --pairs K --seed S

Pair i runs the workload's `slicesec sweep` command (`bench/workloads.py`)
with seed S + i twice, each a fresh `python -m slicesec` process: once from
PARENT_DIR/src and once from this checkout's src, the parent first in even
pairs and the change first in odd ones, so that a drift in the machine's
speed falls on both sides alike. A run's time is the command's wall
seconds, interpreter start-up and import included. Each pair's line gives
both times and whether the two CSVs are byte-identical; the last line gives
the pairs the change won and both medians and, from 2 pairs on, each side's
quartiles (inclusive method) and the parent's interquartile range, the
spread a difference of the medians must exceed to count as a gain. The
script exits 1, after that line, when any pair's CSVs differ.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import CSV_NAME, WORKLOADS  # noqa: E402


def timed_sweep(src: Path, argv: list[str]) -> float:
    """Wall seconds of one `slicesec` command run from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "slicesec", *argv], env=env, check=True)
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error(f"--pairs must be >= 1, got {args.pairs}")
    if not (args.parent_dir / "src" / "slicesec").is_dir():
        ap.error(f"{args.parent_dir} has no src/slicesec")
    workload = WORKLOADS[args.workload]
    sides = {"parent": args.parent_dir.resolve() / "src", "change": ROOT / "src"}

    times = {side: [] for side in sides}
    differing = 0
    print("pair\tseed\tfirst\tparent_s\tchange_s\tsame_csv")
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            seed = args.seed + i
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                outdir = os.path.join(tmp, side)
                os.makedirs(outdir, exist_ok=True)
                times[side].append(timed_sweep(sides[side], workload.sweep_argv(seed, outdir)))
            same = len({Path(tmp, side, CSV_NAME).read_bytes() for side in sides}) == 1
            differing += not same
            print(f"{i}\t{seed}\t{order[0]}\t{times['parent'][i]:.3f}\t"
                  f"{times['change'][i]:.3f}\t{'yes' if same else 'NO'}", flush=True)

    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    parent, change = (statistics.median(times[side]) for side in sides)
    summary = (f"change won {won} of {args.pairs} pairs; median parent {parent:.3f} s, "
               f"change {change:.3f} s (ratio {change / parent:.3f})")
    if args.pairs >= 2:
        q1, _, q3 = statistics.quantiles(times["parent"], n=4, method="inclusive")
        c1, _, c3 = statistics.quantiles(times["change"], n=4, method="inclusive")
        summary += (f"; quartiles parent {q1:.3f}/{q3:.3f} s, change {c1:.3f}/{c3:.3f} s; "
                    f"parent IQR {q3 - q1:.3f} s")
    print(summary)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
