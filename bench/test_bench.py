"""Tests of the benchmark itself: the output gate can fail, the trace adds up.

Run with: python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import rep  # noqa: E402
import run  # noqa: E402
from check import check_outputs  # noqa: E402
from workloads import (  # noqa: E402
    BENCH_DIR, CSV_NAME, REFERENCE_DIR, REFERENCE_SEED, ROOT, WORKLOADS, report_argvs,
)

PAPER = WORKLOADS["paper_grid"]
OUTPUTS_PER_RUN = PAPER.rows + 2 * len(PAPER.t_grid) + 5


def _rewrite(path: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The seed-42 reference outputs of paper_grid with charts rendered from them."""
    from slicesec import cli

    outdir = tmp_path_factory.mktemp("reference")
    for name in os.listdir(REFERENCE_DIR / PAPER.reference):
        shutil.copyfile(REFERENCE_DIR / PAPER.reference / name, outdir / name)
    for argv in report_argvs(str(outdir)):
        if argv[0] == "plot":
            assert cli.main(argv) == 0
    return outdir


@pytest.fixture()
def outputs(reference_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(reference_run, out)
    return out


@pytest.fixture()
def other_seed(outputs):
    """The same outputs relabelled as seed 7, so only the seed-free checks apply."""
    seed_col = run_col("seed")

    def relabel(rows):
        for row in rows[1:]:
            row[seed_col] = "7"

    _rewrite(str(outputs / CSV_NAME), relabel)
    return outputs


def run_col(name: str) -> int:
    with open(REFERENCE_DIR / PAPER.reference / CSV_NAME) as fh:
        return next(csv.reader(fh)).index(name)


def perturb_digit(rows, row: int, col: str, position: int = 3) -> None:
    cell = rows[row][run_col(col)]
    digit = cell[position]
    assert digit.isdigit(), cell
    rows[row][run_col(col)] = cell[:position] + str((int(digit) + 1) % 10) + cell[position + 1:]


@pytest.mark.parametrize("fixture,seed", [("outputs", REFERENCE_SEED), ("other_seed", 7)])
def test_clean_outputs_pass(request, fixture, seed):
    result = check_outputs(PAPER, seed, str(request.getfixturevalue(fixture)))
    assert (result.attempted, result.failed) == (OUTPUTS_PER_RUN, 0), result.problems


@pytest.mark.parametrize("col", ["i_ab", "i_be_sym", "ber_ae", "cmi_ab_given_e"])
def test_one_perturbed_digit_fails_against_the_reference(outputs, col):
    _rewrite(str(outputs / CSV_NAME), lambda rows: perturb_digit(rows, 101, col))
    assert check_outputs(PAPER, REFERENCE_SEED, str(outputs)).failed > 0


@pytest.mark.parametrize("col", ["i_ab", "i_be", "delta_direct", "delta_reverse", "i_ae_sym"])
def test_one_perturbed_digit_breaks_an_invariant(other_seed, col):
    # Row 101 is T=0.3, whose margins make every one of these columns matter.
    _rewrite(str(other_seed / CSV_NAME), lambda rows: perturb_digit(rows, 101, col))
    assert check_outputs(PAPER, 7, str(other_seed)).failed > 0


@pytest.mark.parametrize("fixture,seed", [("outputs", REFERENCE_SEED), ("other_seed", 7)])
@pytest.mark.parametrize("value", ["nan", "inf", "", "x"])
def test_non_finite_cell_fails(request, fixture, seed, value):
    outdir = request.getfixturevalue(fixture)

    def poison(rows):
        rows[17][run_col("i_ae")] = value

    _rewrite(str(outdir / CSV_NAME), poison)
    assert check_outputs(PAPER, seed, str(outdir)).failed > 0


def test_missing_row_and_wrong_winner_fail(other_seed):
    _rewrite(str(other_seed / CSV_NAME), lambda rows: rows.pop())
    assert check_outputs(PAPER, 7, str(other_seed)).failed >= 2  # the row and its best rows


def test_wrong_best_winner_fails(other_seed):
    def swap(rows):
        rows[5][1] = "eqwidth:binary:4" if rows[5][1] != "eqwidth:binary:4" else "eqprob:gray:6"

    _rewrite(str(other_seed / "best_reverse.csv"), swap)
    assert check_outputs(PAPER, 7, str(other_seed)).failed == 1


def test_broken_chart_fails(other_seed):
    (other_seed / "mi_vs_t.svg").write_text("<svg")
    assert check_outputs(PAPER, 7, str(other_seed)).failed == 1


SWEEP_SPANS = [s for s in run.SPANS
               if s.split(".")[0] in ("channel", "slicing", "infotheory", "secrecy")]
SWEEP_SPANS.append("cli.emit_csv")


@pytest.mark.parametrize("name", ["paper_grid", "paper_grid_par"])
def test_trace_counts_match_closed_forms(tmp_path, name):
    n = 2000
    workload = replace(WORKLOADS[name], samples=n)
    out = rep.run(workload, 3, str(tmp_path), trace=True)
    assert out["status"] == 0
    m = run.layer_metrics(out)

    cells, schemes = len(workload.t_grid), len(workload.schemes)
    rows, slices = cells * schemes, cells * schemes * 3
    bits_sum = sum(b for _, _, b in workload.schemes)
    assert m["channel.transmit.calls"] == cells == 19
    assert m["slicing.assign_bins.calls"] == slices == 19 * 18 * 3
    assert m["slicing.compute_edges.calls"] == slices
    assert m["slicing.build_labels.calls"] == slices + rows == 1368
    for est in ("mutual_information_bitwise", "bit_error_rate", "mutual_information_symbols"):
        assert m[f"infotheory.{est}.calls"] == slices
    assert m["infotheory.conditional_mi.calls"] == rows
    assert m["infotheory.conditional_mi.capacity_skips"] == 0
    assert m["channel.normal_draws"] == 3 * n * cells
    assert m["slicing.bitmatrix_bytes"] == 3 * n * cells * bits_sum
    assert m["cli.read_csv.calls"] == 7
    assert m["cli.csv_bytes"] == os.path.getsize(tmp_path / CSV_NAME)
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))

    if not workload.parallel:
        # Self times of the sweep's spans plus the untraced remainder are its wall time.
        total = sum(m[f"{s}.self_s"] for s in SWEEP_SPANS) + m["trace.remainder_s"]
        assert total == pytest.approx(m["trace.sweep_s"], abs=1e-3)
        assert m["trace.remainder_s"] < 0.05 * m["trace.sweep_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "paper_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
