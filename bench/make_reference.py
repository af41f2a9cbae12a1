"""Write the seed-42 reference outputs that `check.py` compares against.

Usage: python3 bench/make_reference.py

Runs each reference workload once with REFERENCE_SEED and keeps the sweep
CSV and the two `best` tables under bench/reference/<workload>/. Run it only
when the program's output is meant to change, and say so in the change.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import rep
from workloads import BEST_MODES, CSV_NAME, REFERENCE_DIR, REFERENCE_SEED, ROOT, WORKLOADS


def main() -> int:
    for name in sorted({w.reference for w in WORKLOADS.values()}):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            result = rep.run(workload, REFERENCE_SEED, tmp, trace=False)
            if result["status"] != 0:
                print(f"{name}: the program failed", file=sys.stderr)
                return 1
            dest = os.path.join(REFERENCE_DIR, name)
            os.makedirs(dest, exist_ok=True)
            for f in [CSV_NAME] + [f"best_{mode}.csv" for mode in BEST_MODES]:
                shutil.copyfile(os.path.join(tmp, f), os.path.join(dest, f))
        print(f"wrote {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
