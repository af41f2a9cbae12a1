"""Workload definitions shared by run.py, rep.py, check.py and the tests.

Every workload is one `slicesec sweep` followed by the report phase that
`scripts/run_full_sweep.py` runs over the sweep's own CSV: five charts and
two `best` tables. The command lines are spelled out here rather than taken
from the program, so a change to the program's defaults cannot change what
the benchmark measures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Seed whose outputs are compared digit for digit against REFERENCE_DIR.
REFERENCE_SEED = 42

# Transmitted points per channel realization. The paper's N is 2e5; 5e4 keeps
# one sweep of the paper grid near 8 s on a 2-core box while slicing plus
# bitwise MI stay the majority of its time (about 77% traced).
SAMPLES = 50_000

POSITIONINGS = ("eqwidth", "eqprob")
NUMBERINGS = ("binary", "gray", "flfsr")

CHARTS = (
    ("mi_vs_t", "direct", "mi_vs_t.svg"),
    ("delta_vs_t", "direct", "delta_direct.svg"),
    ("delta_vs_t", "reverse", "delta_reverse.svg"),
    ("best_vs_t", "direct", "best_direct.svg"),
    ("best_vs_t", "reverse", "best_reverse.svg"),
)
BEST_MODES = ("direct", "reverse")
CSV_NAME = "sweep.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    t_grid: tuple[float, ...]
    bits: tuple[int, ...]
    parallel: bool  # False: --workers 1; True: --workers <cpus available>
    reference: str  # subdirectory of REFERENCE_DIR holding the seed-42 outputs
    samples: int = SAMPLES

    @property
    def schemes(self) -> tuple[tuple[str, str, int], ...]:
        """(positioning, numbering, bits) in the order the sweep writes rows."""
        return tuple(
            (pos, num, b) for pos in POSITIONINGS for num in NUMBERINGS for b in self.bits
        )

    @property
    def rows(self) -> int:
        return len(self.t_grid) * len(self.schemes)

    def workers(self) -> int:
        return len(os.sched_getaffinity(0)) if self.parallel else 1

    def sweep_argv(self, seed: int, outdir: str) -> list[str]:
        return [
            "sweep",
            "--seed", str(seed),
            "--samples", str(self.samples),
            "--t", ",".join(f"{t:.9g}" for t in self.t_grid),
            "--schemes", ",".join(f"{p}:{n}:{b}" for p, n, b in self.schemes),
            "--workers", str(self.workers()),
            "--out", os.path.join(outdir, CSV_NAME),
        ]


def report_argvs(outdir: str) -> list[list[str]]:
    """The seven report commands over the sweep CSV in ``outdir``."""
    csv_path = os.path.join(outdir, CSV_NAME)
    argvs = [
        ["plot", csv_path, "--plot-mode", plot_mode, "--mode", mode,
         "--out", os.path.join(outdir, name)]
        for plot_mode, mode, name in CHARTS
    ]
    argvs += [
        ["best", csv_path, "--mode", mode, "--out", os.path.join(outdir, f"best_{mode}.csv")]
        for mode in BEST_MODES
    ]
    return argvs


PAPER_T_GRID = tuple(round(0.05 * i, 12) for i in range(1, 20))

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's experiment: 18 schemes x 19 transmissions, per-sample work.
        Workload("paper_grid", PAPER_T_GRID, (4, 5, 6), parallel=False,
                 reference="paper_grid"),
        # Same inputs on every CPU: the only workload with the process pool on
        # the blocking path (fork, pickled reports, the 19-cell tail).
        Workload("paper_grid_par", PAPER_T_GRID, (4, 5, 6), parallel=True,
                 reference="paper_grid"),
        # Wide alphabets: per-bin work on 2^b x 2^b histograms dominates, and
        # conditional MI hits its capacity skip at b >= 10.
        Workload("fine_slices", (0.25, 0.5, 0.75), (8, 10, 12), parallel=False,
                 reference="fine_slices"),
    )
}
