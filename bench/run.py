"""The slicesec benchmark: one workload, measured from outside, with an output check.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh `rep.py` process that imports slicesec, runs the
workload's `sweep` and its seven report commands, and exits; its outputs are
then checked by `check.py`. Repetitions run until S seconds have passed, or
until the next one would end more than OVERRUN x S late; there is at least
one. Set-up time is measured separately in fresh processes that only import,
spread over the run. Every timing is the median over the run.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1, traced and untraced repetitions
alternate and the object holds the per-layer metrics of the traced ones.
The lines before it give the machine, the workload and every metric with
its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check import check_outputs  # noqa: E402
from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS  # noqa: E402

# Set-up is measured in fresh import-only processes, SETUP_PER_REP of them
# before each repetition and more after the last until there are SETUP_REPS,
# so that they sample the whole run rather than one moment of a shared CPU.
SETUP_PER_REP = 3
SETUP_REPS = 9
# A repetition is not started when it would end more than this share of
# --seconds late, so that a workload with long repetitions does not run twice.
OVERRUN = 0.25
# A run must end within 180 s; no repetition may start or run past this.
DEADLINE_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Spans recorded by tracing.installed; each gives <name>.self_s, and .calls where listed.
SPANS = {
    "channel.transmit": True,
    "slicing.compute_edges.eqwidth": False,
    "slicing.compute_edges.eqprob": False,
    "slicing.assign_bins": True,
    "slicing.slice_samples": False,
    "slicing.build_labels": True,
    "infotheory.mutual_information_bitwise": True,
    "infotheory.bit_error_rate": True,
    "infotheory.mutual_information_symbols": True,
    "infotheory.conditional_mi": True,
    "secrecy.evaluate_scheme": False,
    "secrecy.sweep": False,
    "cli.emit_csv": False,
    "cli.read_csv": True,
    "cli.best": False,
    "cli.emit_plot": False,
    "svgplot.Chart.render": False,
}
COUNTS = {
    "channel.normal_draws": "count",
    "slicing.bitmatrix_bytes": "bytes",
    "infotheory.conditional_mi.capacity_skips": "count",
    "infotheory.hist_cells": "count",
    "secrecy.result_bytes": "bytes",
    "cli.csv_bytes": "bytes",
    "svgplot.svg_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span, with_calls in SPANS.items():
        if with_calls:
            units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units["slicing.compute_edges.calls"] = "count"
    units.update(COUNTS)
    units.update({"trace.sweep_s": "s", "trace.remainder_s": "s", "trace.overhead_s": "s",
                  "trace.report_s": "s"})
    return units


PER_LAYER = per_layer_units()


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (trace.overhead_s is added later)."""
    totals = rep["trace"]
    self_s, calls, counts = totals["self_s"], totals["calls"], totals["counts"]
    out = {}
    for span, with_calls in SPANS.items():
        if with_calls:
            out[f"{span}.calls"] = calls.get(span, 0)
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    out["slicing.compute_edges.calls"] = sum(
        calls.get(f"slicing.compute_edges.{p}", 0) for p in ("eqwidth", "eqprob"))
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    out["trace.sweep_s"] = rep["sweep_s"]
    out["trace.report_s"] = rep["report_s"]
    out["trace.remainder_s"] = self_s.get("cli.main.sweep", 0.0)
    return out


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "platform": platform.platform()}


class RepFailed(Exception):
    pass


def run_rep(args: list[str], timeout: float) -> dict:
    """Run rep.py in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "rep.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"rep.py {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0:
        raise RepFailed(f"rep.py {' '.join(args)} exited {proc.returncode}: {stderr.strip()}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RepFailed(f"rep.py {' '.join(args)} printed no result") from None


def u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2^64), got {value}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=u64, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "slicesec" / "__init__.py").is_file():
        print(f"error: no slicesec package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    begin = time.perf_counter()
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    try:
        return measure(workload, args, begin, tmp)
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(workload, args, begin: float, tmp: str) -> int:
    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - begin)

    base = ["--workload", workload.name, "--seed", str(args.seed)]
    setups = []

    def set_up(times: int) -> None:
        for _ in range(times):
            setups.append(run_rep(base + ["--outdir", tmp, "--setup-only"], left()))

    attempted = failed = 0
    untraced, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        set_up(SETUP_PER_REP)
        trace = bool(args.trace) and len(traced) <= len(untraced)
        outdir = os.path.join(tmp, f"rep{len(untraced) + len(traced)}")
        t0 = time.perf_counter()
        rep = run_rep(base + ["--outdir", outdir] + (["--trace"] if trace else []), left())
        longest = max(longest, time.perf_counter() - t0)
        result = check_outputs(workload, args.seed, outdir)
        attempted += result.attempted
        failed += result.failed
        for problem in result.problems:
            print(f"check: {problem}", file=sys.stderr)
        shutil.rmtree(outdir, ignore_errors=True)
        (traced if trace else untraced).append(rep)

        elapsed = time.perf_counter() - start
        if longest > left():
            break
        if args.trace and not (traced and untraced):
            continue
        if elapsed + longest > args.seconds * (1 + OVERRUN) or elapsed >= args.seconds:
            break
    if args.trace and not (traced and untraced):
        raise RepFailed("no time left for both a traced and an untraced repetition")
    set_up(SETUP_REPS - len(setups))

    info = dict(machine(), **{k: setups[0][k] for k in ("python", "numpy", "start_method")})
    info.update(workload=workload.name, samples=workload.samples, seed=args.seed,
                workers=workload.workers(), rows=workload.rows,
                repetitions=len(untraced) + len(traced), setup_repetitions=len(setups))
    print("machine " + json.dumps(info))

    med = statistics.median
    if args.trace:
        layers = [layer_metrics(r) for r in traced]
        values = {name: med(layer[name] for layer in layers) for name in layers[0]}
        values["trace.overhead_s"] = (med(r["sweep_s"] for r in traced)
                                      - med(r["sweep_s"] for r in untraced))
        units = PER_LAYER
    else:
        values = {
            "setup_s": med(s["setup_s"] for s in setups),
            "sweep_s": med(r["sweep_s"] for r in untraced),
            "rows_per_s": med(workload.rows / r["sweep_s"] for r in untraced),
            "cpu_s": med(r["cpu_s"] for r in untraced),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>16.6f} {unit}")
    exited_ok = all(r["status"] == 0 for r in untraced + traced)
    if not exited_ok:
        print("error: the program exited with a failure status", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and exited_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
