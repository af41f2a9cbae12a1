"""Smoke tests of the experiment drivers in scripts/, run as subprocesses."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_full_sweep_writes_charts_and_best_tables(tmp_path):
    result = run_script("run_full_sweep.py", str(tmp_path), "--samples", "2000",
                        "--workers", "1")
    assert result.returncode == 0, result.stderr
    written = {p.name for p in tmp_path.iterdir()}
    assert written == {"sweep.csv", "mi_vs_t.svg", "delta_direct.svg", "delta_reverse.svg",
                       "best_direct.svg", "best_reverse.svg", "best_direct.csv",
                       "best_reverse.csv"}


MEASURES = ("setup_s", "sweep_s", "cpu_s", "peak_rss_mb")


def test_ab_pairs_times_each_side_once_per_pair():
    # This checkout against itself: the CSVs agree, and the sides alternate.
    result = run_script("ab_pairs.py", str(ROOT), "--workload", "fine_slices",
                        "--pairs", "2", "--seed", "3")
    assert result.returncode == 0, result.stderr
    assert "warning" not in result.stderr  # one path, so one length
    lines = result.stdout.splitlines()
    assert lines[0].split("\t") == ["pair", "seed", "first",
                                    *(f"{side}_{m}" for side in ("parent", "change")
                                      for m in MEASURES),
                                    "same_csv"]
    pairs = [line.split("\t") for line in lines[1:3]]
    assert [(p[0], p[1], p[2], p[11]) for p in pairs] == [
        ("0", "3", "parent", "yes"), ("1", "4", "change", "yes"),
    ]
    # Importing numpy takes time, sweeping takes CPU time, and a process
    # with numpy imported holds more than 10 MB.
    assert all(float(p[col]) > 0 for p in pairs for col in (3, 4, 5, 7, 8, 9))
    assert all(float(p[col]) > 10 for p in pairs for col in (6, 10))
    # One summary line per measure, in the header's order, each followed by
    # its verdict line. From 2 pairs on, each gives each side's inclusive
    # quartiles and the parent's IQR; a gain needs both pairs won. Each
    # tolerance is two units of the last printed digit (3 decimals for s, 2
    # for MB).
    assert len(lines) == 11
    for k, (m, unit, tol) in enumerate(zip(MEASURES, ("s", "s", "s", "MB"),
                                           (2e-3, 2e-3, 2e-3, 2e-2))):
        line, verdict = lines[3 + 2 * k], lines[4 + 2 * k]
        summary = re.fullmatch(
            rf"{m}: change won (\d) of 2 pairs; median parent ([\d.]+) {unit}, "
            rf"change ([\d.]+) {unit} \(ratio [\d.]+\); quartiles parent ([\d.]+)/([\d.]+) "
            rf"{unit}, change ([\d.]+)/([\d.]+) {unit}; parent IQR ([\d.]+) {unit}", line)
        assert summary, line
        assert verdict in (f"{m}: gain shown: yes", f"{m}: gain shown: no")
        if summary.group(1) != "2":
            assert verdict == f"{m}: gain shown: no"
        median_p, median_c, q1_p, q3_p, q1_c, q3_c, iqr = map(float, summary.groups()[1:])
        for col, q1, median, q3 in ((3 + k, q1_p, median_p, q3_p),
                                    (7 + k, q1_c, median_c, q3_c)):
            low, high = sorted(float(p[col]) for p in pairs)
            # Two runs: the quartiles lie a quarter of the way in from each end.
            assert q1 == pytest.approx(low + (high - low) / 4, abs=tol)
            assert q3 == pytest.approx(high - (high - low) / 4, abs=tol)
            assert q1 <= median <= q3
        assert iqr == pytest.approx(q3_p - q1_p, abs=tol)


def copy_checkout(dest):
    """A copy of this checkout's `src/` and `bench/`, enough for `bench/rep.py` to run."""
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))


def test_ab_pairs_exits_1_when_the_csvs_differ(tmp_path):
    # A parent that prints one digit fewer writes different CSV bytes.
    copy_checkout(tmp_path)
    secrecy = tmp_path / "src" / "slicesec" / "secrecy.py"
    source = secrecy.read_text()
    assert 'FLOAT_FORMAT = "%.9g"' in source
    secrecy.write_text(source.replace('FLOAT_FORMAT = "%.9g"', 'FLOAT_FORMAT = "%.8g"'))
    result = run_script("ab_pairs.py", str(tmp_path), "--workload", "fine_slices",
                        "--pairs", "1", "--seed", "3")
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    assert lines[1].split("\t")[11] == "NO"
    assert lines[2].startswith("setup_s: change won ")
    assert lines[3] == "setup_s: gain shown: no"  # one pair has no spread to exceed


def test_ab_pairs_exits_1_naming_a_side_that_fails(tmp_path):
    # A parent whose slicesec fails at import: its rep.py exits 1 before any sweep.
    copy_checkout(tmp_path)
    init = tmp_path / "src" / "slicesec" / "__init__.py"
    init.write_text('raise ImportError("broken on purpose")\n' + init.read_text())
    result = run_script("ab_pairs.py", str(tmp_path), "--workload", "fine_slices",
                        "--pairs", "2", "--seed", "3")
    assert result.returncode == 1
    assert "error: the parent's bench/rep.py failed in pair 0, seed 3" in result.stderr
    assert len(result.stdout.splitlines()) == 1  # the header only


def test_ab_pairs_warns_when_the_parent_path_differs_in_length(tmp_path):
    # A parent whose slicesec fails at import ends the run at pair 0; the
    # warning comes before any pair, on stderr only.
    parent = tmp_path if len(str(tmp_path)) != len(str(ROOT)) else tmp_path / "parent"
    copy_checkout(parent)
    init = parent / "src" / "slicesec" / "__init__.py"
    init.write_text('raise ImportError("broken on purpose")\n' + init.read_text())
    result = run_script("ab_pairs.py", str(parent), "--workload", "fine_slices",
                        "--pairs", "1", "--seed", "3")
    assert result.returncode == 1
    assert result.stderr.startswith(f"warning: {parent.resolve()} and {ROOT} differ in path"
                                     " length, so peak_rss_mb may differ by heap layout alone\n")
    assert len(result.stdout.splitlines()) == 1  # the header only


def test_ab_pairs_needs_the_parent_bench(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    result = run_script("ab_pairs.py", str(tmp_path), "--workload", "fine_slices",
                        "--pairs", "1", "--seed", "3")
    assert result.returncode == 2
    assert f"{tmp_path} has no bench/rep.py" in result.stderr


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_byte_gate_writes_8_sweeps_and_66_files(tmp_path):
    gate = load_script("byte_gate")
    sweeps = list(gate.sweeps(tmp_path))
    assert [(outdir.name, argv[argv.index("--seed") + 1], argv[argv.index("--workers") + 1])
            for outdir, argv in sweeps] == [
        ("paper_grid-1", "1", "1"), ("fine_slices-1", "1", "1"),
        ("paper_grid-42", "42", "1"), ("fine_slices-42", "42", "1"),
        ("paper_grid-123456", "123456", "1"), ("fine_slices-123456", "123456", "1"),
        ("default-workers1", "42", "1"), ("default-workers2", "42", "2"),
    ]
    assert sweeps[-1][1][1:-2] == [*gate.DEFAULT_SWEEP, "--workers", "2"]
    # Each sweep's CSV and its 7 reports, then the selftest and `sweep --help` stdouts.
    reports = [len(gate.report_argvs(str(outdir))) for outdir, _ in sweeps]
    assert reports == [7] * 8
    assert sum(1 + n for n in reports) + 2 == 66


PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]  # median 1.2, IQR 0.2


@pytest.mark.parametrize("change,shown", [
    ([p - 0.3 for p in PARENT], True),  # 10 of 10 won, medians 0.3 apart
    ([p - 0.3 for p in PARENT[:9]] + [PARENT[9]], True),  # 9 won and a tie
    ([p - 0.3 for p in PARENT[:8]] + PARENT[8:], False),  # 8 won and 2 ties
    ([p - 0.3 for p in PARENT[:9]] + [PARENT[9] + 1], True),  # 9 won and 1 lost
    ([p - 0.1 for p in PARENT], False),  # 10 won, medians within the parent's IQR
    ([p + 0.3 for p in PARENT], False),  # 10 lost
])
def test_ab_pairs_shows_a_gain_from_9_in_10_pairs_beyond_the_parent_iqr(change, shown):
    assert load_script("ab_pairs").gain_shown(PARENT, change) is shown
