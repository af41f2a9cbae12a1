#!/usr/bin/env python3
"""Write the byte-identity gate's outputs and their SHA256SUMS into OUTDIR.

The gate is the set of outputs an engine change must leave byte-identical:
the paper grid (18 schemes x 19 transmissions) and the fine-slice grid
(b = 8, 10, 12 at T = 0.25, 0.5, 0.75) at N = 5e4 for seeds 1, 42 and
123456, the default N = 2e5 seed-42 sweep with one and with two workers,
the report phase of every sweep (its five `plot` charts and both `best`
tables), and the stdout of `slicesec selftest` and of `slicesec sweep
--help`. Every command runs with COLUMNS=80, so that argparse wraps the
help alike on every terminal. The grids and the report commands are the
benchmark's (`paper_grid`, `fine_slices` and `report_argvs` in
`bench/workloads.py`). The commands run the `slicesec` in this
checkout's `src/`, so running the script from two checkouts and diffing
their SHA256SUMS compares the two programs:

    python scripts/byte_gate.py OUTDIR

OUTDIR/runs.tsv, which SHA256SUMS does not cover, gives one line per
command: its argv, its wall seconds and its minor page faults (those of the
command and of the workers it waited for).
"""

import argparse
import hashlib
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import CSV_NAME, WORKLOADS, report_argvs  # noqa: E402

# Spelled out rather than left to `slicesec sweep`'s defaults, so the gate
# keeps pinning the N = 2e5 seed-42 sweep if a default ever moves.
DEFAULT_SWEEP = ["--t", "0.05:0.95:0.05", "--schemes", "all", "--samples", "200000",
                 "--seed", "42"]


def sweeps(out: Path):
    """(directory, `slicesec sweep` argv) of every gated sweep."""
    for seed in (1, 42, 123456):
        for name in ("paper_grid", "fine_slices"):  # both --workers 1
            outdir = out / f"{name}-{seed}"
            yield outdir, WORKLOADS[name].sweep_argv(seed, str(outdir))
    for workers in (1, 2):
        outdir = out / f"default-workers{workers}"
        yield outdir, ["sweep", *DEFAULT_SWEEP, "--workers", str(workers),
                       "--out", str(outdir / CSV_NAME)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir")
    out = Path(ap.parse_args().outdir)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")

    runs = ["argv\twall_s\tminor_faults\n"]

    def slicesec(*argv, stdout=None):
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "slicesec", *argv], env=env, check=True,
                       stdout=stdout)
        wall = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
        runs.append(f"{shlex.join(argv)}\t{wall:.3f}\t{faults}\n")

    written = []
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in (("selftest.txt", ["selftest"]), ("sweep-help.txt", ["sweep", "--help"])):
        with open(out / name, "wb") as fh:
            slicesec(*argv, stdout=fh)
        written.append(out / name)
    for outdir, argv in sweeps(out):
        outdir.mkdir(parents=True, exist_ok=True)
        slicesec(*argv)
        written.append(outdir / CSV_NAME)
        for report in report_argvs(str(outdir)):
            slicesec(*report)
            written.append(Path(report[-1]))  # each report ends "--out PATH"

    sums = "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}\n"
        for path in written
    )
    (out / "SHA256SUMS").write_text(sums)
    (out / "runs.tsv").write_text("".join(runs))
    sys.stdout.write(sums)
    return 0


if __name__ == "__main__":
    sys.exit(main())
