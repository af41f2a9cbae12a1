"""Smoke tests of the experiment drivers in scripts/, run as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_compare_numberings_prints_one_row_per_scheme():
    result = run_script("compare_numberings.py", "--t", "0.9", "--samples", "5000")
    assert result.returncode == 0, result.stderr
    rows = [line for line in result.stdout.splitlines() if line.lstrip().startswith("eq")]
    assert len(rows) == 6


def test_compare_numberings_rejects_a_seed_beyond_u64():
    # 2^64 + 42 would draw seed 42's samples and print the larger seed.
    result = run_script("compare_numberings.py", "--samples", "5000",
                        "--seed", str(2**64 + 42))
    assert result.returncode == 2
    assert "seed must lie in [0, 2^64)" in result.stderr


def test_run_full_sweep_writes_charts_and_best_tables(tmp_path):
    result = run_script("run_full_sweep.py", str(tmp_path), "--samples", "2000",
                        "--workers", "1")
    assert result.returncode == 0, result.stderr
    written = {p.name for p in tmp_path.iterdir()}
    assert written == {"sweep.csv", "mi_vs_t.svg", "delta_direct.svg", "delta_reverse.svg",
                       "best_direct.svg", "best_reverse.svg", "best_direct.csv",
                       "best_reverse.csv"}
