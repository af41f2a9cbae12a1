#!/usr/bin/env python3
"""Run a benchmark workload in interleaved pairs: another checkout against this one.

    python scripts/ab_pairs.py PARENT_DIR --workload NAME --pairs K --seed S

PARENT_DIR is a whole checkout in a sibling directory whose name is as long as
this checkout's: from a checkout in `repo`, `git worktree add ../base HEAD~1`.
A sweep's peak RSS moves by a few tenths of a MB with the length of the path
it runs from (heap layout), so two names of one length keep `peak_rss_mb`
comparable; a PARENT_DIR whose resolved path differs in length from this
checkout's draws a warning on stderr, and the pairs run all the same. Pair i
runs each checkout's own `bench/rep.py` once, as `bench/run.py` runs it: from
the checkout's directory, with `--workload NAME --seed S+i --outdir DIR`. The
parent goes first in even pairs and the change in odd ones, so that a drift in
the machine's speed falls on both sides alike.
Every number is the one that side's `rep.py` printed: `setup_s`, `sweep_s`,
`cpu_s` and `peak_rss_mb`. The benchmark's fifth measure, `rows_per_s`, is the
workload's rows over `sweep_s`, so its verdict is `sweep_s`'s. Each pair's
line gives both sides' four measures and whether the two sweep CSVs are
byte-identical; the charts may differ. Then each measure gets a summary line:
the pairs the change won, both medians and, from 2 pairs on, each side's
quartiles (inclusive method) and the parent's interquartile range, the spread
a difference of the medians must exceed to count as a gain. A line follows it
saying whether a gain is shown: the change won at least 9 of every 10 pairs
(ties count for neither side), and its median is lower than the parent's by
more than the parent's IQR. Both lines start with the measure's name. The
script exits 1 at once, naming the side, the pair and the seed, when a side's
`rep.py` exits non-zero or reports a non-zero status; and after the summary
when any pair's CSVs differ.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import CSV_NAME, WORKLOADS  # noqa: E402


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
    if not (args.parent_dir / "bench" / "rep.py").is_file():
        ap.error(f"{args.parent_dir} has no bench/rep.py: give a whole checkout,"
                 " e.g. one made by `git worktree add ../base HEAD~1`")
    sides = {"parent": args.parent_dir.resolve(), "change": ROOT}
    if len(str(sides["parent"])) != len(str(ROOT)):
        print(f"warning: {sides['parent']} and {ROOT} differ in path length, so peak_rss_mb"
              " may differ by heap layout alone", file=sys.stderr)
    # Each measure `rep.py` prints, with its unit and printed decimals.
    measures = {"setup_s": ("s", 3), "sweep_s": ("s", 3), "cpu_s": ("s", 3),
                "peak_rss_mb": ("MB", 2)}

    values = {side: {m: [] for m in measures} for side in sides}
    differing = 0
    print("\t".join(["pair", "seed", "first", *(f"{side}_{m}" for side in sides for m in measures),
                     "same_csv"]))
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            seed = args.seed + i
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                proc = subprocess.run(
                    [sys.executable, "bench/rep.py", "--workload", args.workload,
                     "--seed", str(seed), "--outdir", str(Path(tmp, side))],
                    cwd=sides[side], stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
                if result.get("status", 1):
                    sys.exit(f"error: the {side}'s bench/rep.py failed in pair {i}, seed {seed}"
                             f" (exit status {proc.returncode})")
                for m in measures:
                    values[side][m].append(result[m])
            same = len({Path(tmp, side, CSV_NAME).read_bytes() for side in sides}) == 1
            differing += not same
            print("\t".join([str(i), str(seed), order[0],
                             *(f"{values[side][m][i]:.{digits}f}"
                               for side in sides for m, (_, digits) in measures.items()),
                             "yes" if same else "NO"]), flush=True)

    for m, (unit, digits) in measures.items():
        parent, change = values["parent"][m], values["change"][m]
        print(f"{m}: {summary(parent, change, unit, digits)}")
        print(f"{m}: gain shown: {'yes' if gain_shown(parent, change) else 'no'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
