"""One benchmark repetition in a fresh process: import, sweep, report phase.

Usage: python3 bench/rep.py --workload NAME --seed N --outdir DIR [--trace] [--setup-only]

Times the import of numpy and slicesec (set-up), the `sweep` command up to
its CSV being written, and the seven report commands, each through
`slicesec.cli.main` as the command line would run it. Prints one JSON object
as the last line of standard output. With --trace the layers are wrapped by
`tracing.installed` and their totals are added to the object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import SRC, WORKLOADS, report_argvs  # noqa: E402

sys.path.insert(0, str(SRC))


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    start = time.perf_counter()
    import numpy
    from slicesec import cli
    setup_s = time.perf_counter() - start

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"slicesec imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    if args.setup_only:
        import multiprocessing

        print(json.dumps({
            "setup_s": setup_s,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "start_method": multiprocessing.get_start_method(),
        }))
        return 0

    os.makedirs(args.outdir, exist_ok=True)
    out = {"setup_s": setup_s}
    out.update(run(WORKLOADS[args.workload], args.seed, args.outdir, args.trace))
    print(json.dumps(out))
    return 0


def run(workload, seed: int, outdir: str, trace: bool) -> dict:
    """Run the sweep and the report phase once; return timings (and trace totals)."""
    from slicesec import cli

    from tracing import Tracer, installed

    tracer = None
    if trace:
        worker_dir = os.path.join(outdir, "trace-workers")
        os.makedirs(worker_dir, exist_ok=True)
        tracer = Tracer(worker_dir)

    def span(name: str):
        return tracer.span(name) if tracer else nullcontext()

    with installed(tracer) if tracer else nullcontext():
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with span("cli.main.sweep"):
            status = cli.main(workload.sweep_argv(seed, outdir))
        sweep_s = time.perf_counter() - t0
        cpu_s = cpu_seconds() - cpu0

        t0 = time.perf_counter()
        for argv in report_argvs(outdir):
            with span(f"cli.{argv[0]}"):
                status |= cli.main(argv)
        report_s = time.perf_counter() - t0

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "status": status,
        "sweep_s": sweep_s,
        "cpu_s": cpu_s,
        "report_s": report_s,
        "peak_rss_mb": max(own, kids) / 1024.0,
    }
    if tracer:
        tracer.merge_workers()
        out["trace"] = tracer.totals()
    return out


if __name__ == "__main__":
    sys.exit(main())
