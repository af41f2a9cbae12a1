#!/usr/bin/env python3
"""Time a benchmark workload's sweep in interleaved pairs: another checkout against this one.

    python scripts/ab_pairs.py PARENT_DIR --workload NAME --pairs K --seed S

Pair i runs the workload's `slicesec sweep` command (`bench/workloads.py`)
with seed S + i twice, each a fresh `python -m slicesec` process: once from
PARENT_DIR/src and once from this checkout's src, the parent first in even
pairs and the change first in odd ones, so that a drift in the machine's
speed falls on both sides alike. A run's time is the command's wall
seconds, interpreter start-up and import included. Its peak RSS is the
command's ru_maxrss and its CPU seconds are ru_utime + ru_stime, as
`os.wait4` reports them, which cover the sweep workers the command waited
for. Each pair's line gives both sides' wall time, peak RSS and CPU time
and whether the two CSVs are byte-identical. Three summary lines follow, for
wall time, peak RSS and CPU time. Each gives the pairs the change won and
both medians and, from 2 pairs on, each side's quartiles (inclusive method)
and the parent's interquartile range, the spread a difference of the
medians must exceed to count as a gain. After each, a line says whether a
gain is shown: the change won at least 9 of every 10 pairs (ties count for
neither side), and its median is lower than the parent's by more than the
parent's IQR. The script exits 1, after those lines, when any pair's CSVs
differ.
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


def measured_sweep(src: Path, argv: list[str]) -> tuple[float, float, float]:
    """Wall seconds, peak RSS in MB and CPU seconds of one `slicesec` command run from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "slicesec", *argv], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    peak = usage.ru_maxrss / 1024.0  # Linux reports kilobytes
    return wall, peak, usage.ru_utime + usage.ru_stime


def summary(parent: list[float], change: list[float], unit: str, digits: int) -> str:
    """The pairs the change won (lower wins), both medians and, from 2 pairs on, the quartiles."""
    won = sum(c < p for p, c in zip(parent, change))
    mp, mc = statistics.median(parent), statistics.median(change)
    text = (f"change won {won} of {len(parent)} pairs; median parent {mp:.{digits}f} {unit}, "
            f"change {mc:.{digits}f} {unit} (ratio {mc / mp:.3f})")
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        c1, _, c3 = statistics.quantiles(change, n=4, method="inclusive")
        text += (f"; quartiles parent {q1:.{digits}f}/{q3:.{digits}f} {unit}, "
                 f"change {c1:.{digits}f}/{c3:.{digits}f} {unit}; "
                 f"parent IQR {q3 - q1:.{digits}f} {unit}")
    return text


def gain_shown(parent: list[float], change: list[float]) -> bool:
    """Whether the change won 9 of every 10 pairs and beat the parent's median by its IQR."""
    if len(parent) < 2:
        return False  # no spread to exceed
    won = sum(c < p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return (10 * won >= 9 * len(parent)
            and statistics.median(parent) - statistics.median(change) > q3 - q1)


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
    peaks = {side: [] for side in sides}
    cpus = {side: [] for side in sides}
    differing = 0
    print("pair\tseed\tfirst\t"
          + "".join(f"{side}_s\t{side}_mb\t{side}_cpu_s\t" for side in sides) + "same_csv")
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            seed = args.seed + i
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                outdir = os.path.join(tmp, side)
                os.makedirs(outdir, exist_ok=True)
                wall, peak, cpu = measured_sweep(sides[side], workload.sweep_argv(seed, outdir))
                times[side].append(wall)
                peaks[side].append(peak)
                cpus[side].append(cpu)
            same = len({Path(tmp, side, CSV_NAME).read_bytes() for side in sides}) == 1
            differing += not same
            print(f"{i}\t{seed}\t{order[0]}\t"
                  + "".join(f"{times[side][i]:.3f}\t{peaks[side][i]:.2f}\t{cpus[side][i]:.3f}\t"
                            for side in sides)
                  + ("yes" if same else "NO"), flush=True)

    for prefix, measure, unit, digits in (("", times, "s", 3), ("peak RSS: ", peaks, "MB", 2),
                                          ("CPU time: ", cpus, "s", 3)):
        print(prefix + summary(measure["parent"], measure["change"], unit, digits))
        shown = gain_shown(measure["parent"], measure["change"])
        print(f"{prefix}gain shown: {'yes' if shown else 'no'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
