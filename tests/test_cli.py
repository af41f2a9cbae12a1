import argparse
import ctypes
import math
import os
import platform
import re
import subprocess
import sys
import textwrap
import types
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesec import (
    ChannelParams, LabelTable, Numbering, SlicingScheme, Stream, cli, default_schemes,
    default_t_grid, gaussian_source, secrecy, slicing, sweep,
)
from slicesec.channel import check_count, check_transmission
from slicesec.cli import (
    CSV_COLUMNS, keep_freed_memory, main, parse_args, read_csv, selftest, stop_blas_threads,
)
from slicesec.secrecy import MAX_T_POINTS

GOLDEN_CSV = Path(__file__).parent / "data" / "golden_sweep.csv"
GOLDEN_FINE_CSV = Path(__file__).parent / "data" / "golden_fine.csv"

SMALL_ARGS = [
    "sweep", "--seed", "17", "--samples", "6000", "--t", "0.2,0.5,0.8",
    "--schemes", "eqprob:gray:3,eqwidth:flfsr:3", "--workers", "1",
]


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sweep.csv"
    assert main(SMALL_ARGS + ["--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def all_schemes_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sweep.csv"
    assert main(["sweep", "--seed", "7", "--samples", "4000", "--t", "0.2,0.5,0.8",
                 "--workers", "1", "--out", str(path)]) == 0
    return path


class TestParseArgs:
    def test_full_sweep_defaults(self):
        config = parse_args([
            "sweep", "--seed", "42", "--samples", "200000",
            "--t", "0.05:0.95:0.05", "--schemes", "all", "--out", "sweep.csv",
        ])
        assert config.subcommand == "sweep"
        assert len(config.schemes) == 18
        assert len(config.t_grid) == 19
        assert config.t_grid[0] == pytest.approx(0.05)
        assert config.t_grid[-1] == pytest.approx(0.95)
        assert config.seed == 42
        assert config.out == "sweep.csv"

    def test_default_t_is_the_library_grid(self):
        # The acceptance criteria sweep `default_t_grid()`; users run the CLI's default.
        config = parse_args(["sweep", "--out", "x.csv"])
        assert config.t_grid == default_t_grid()

    def test_default_channel_and_schemes_are_the_library_defaults(self):
        config = parse_args(["sweep", "--out", "x.csv"])
        assert config.base == ChannelParams(transmission=0.5)
        assert config.schemes == tuple(default_schemes())

    def test_default_workers_count_the_cpus_this_process_may_run_on(self, monkeypatch):
        # Pinned to one CPU of eight, as under `taskset -c 0`.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert parse_args(["sweep", "--out", "x.csv"]).workers == 1

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_default_workers_without_an_affinity_mask(self, monkeypatch, cpus, workers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert parse_args(["sweep", "--out", "x.csv"]).workers == workers

    def test_single_scheme(self):
        config = parse_args(["sweep", "--schemes", "eqprob:gray:4", "--out", "x.csv"])
        assert config.schemes == (SlicingScheme.parse("eqprob:gray:4"),)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--t", "1.5:2:0.1", "--out", "x.csv"],
        ["sweep", "--t", "0.1:0.9:-0.1", "--out", "x.csv"],
        ["sweep", "--schemes", "eqprob:nope:4", "--out", "x.csv"],
        ["sweep", "--samples", "0", "--out", "x.csv"],
        ["sweep", "--workers", "0", "--out", "x.csv"],
        ["sweep", "--frobnicate", "--out", "x.csv"],
        ["sweep", "--seed", "-1", "--out", "x.csv"],
        ["sweep", "--seed", str(1 << 64), "--out", "x.csv"],
        ["sweep", "--seed", "18446744073709551658", "--out", "x.csv"],
        ["sweep", "--t", "0.5,0.5", "--out", "x.csv"],
        ["sweep", "--t", "0.2,0.5,0.50", "--out", "x.csv"],
        ["sweep", "--schemes", "eqprob:gray:4,eqwidth:gray:4,EQPROB:gray:4", "--out", "x.csv"],
        ["notacommand"],
        # Options that no CSV column records are not the sweep's.
        ["sweep", "--sigma-alice", "0", "--out", "x.csv"],
        ["sweep", "--sigma-alice", "nan", "--out", "x.csv"],
        ["sweep", "--sigma-vacuum", "-1", "--out", "x.csv"],
        ["sweep", "--width-multiplier", "inf", "--out", "x.csv"],
        ["sweep", "--t", "0:1:0", "--out", "x.csv"],
        ["sweep", "--t", ",", "--out", "x.csv"],
        ["sweep", "--schemes", ",", "--out", "x.csv"],
        ["sweep", "--t", "0:inf:0.1", "--out", "x.csv"],
        # 2e7 points: the range's ends are checked before any point is built.
        ["sweep", "--t", "0:1e7:0.5", "--out", "x.csv"],
        # 1e13 points, all repeats once rounded to 12 decimals: the step is
        # checked before any point is built.
        ["sweep", "--t", "0:1:1e-13", "--out", "x.csv"],
    ])
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["--t", "0.5,0.5"], "transmission 0.5 repeats"),
        (["--schemes", "eqprob:gray:4,eqprob:gray:4"], "scheme eqprob:gray:4 repeats"),
        (["--t", "0.5,1.5"], "transmission 1.5 outside [0, 1]"),
        (["--seed", str(1 << 64)], "seed must lie in [0, 2^64)"),
        (["--t", "0:1e7:0.5"], "transmission 10000000.0 outside [0, 1]"),
        (["--workers", "0"], "workers must be >= 1, got 0"),
        (["--t", "0:inf:0.1"], "t range 0.0:inf:0.1 needs finite ends"),
        (["--t", "nan:1:0.1"], "t range nan:1.0:0.1 needs finite ends"),
    ])
    def test_usage_error_names_the_value(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            parse_args(["sweep", *argv, "--out", "x.csv"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_sweep_namespace_carries_library_types(self):
        config = parse_args([
            "sweep", "--seed", "7", "--samples", "1000", "--out", "x.csv",
        ])
        assert isinstance(config, argparse.Namespace)
        assert config.base == ChannelParams(transmission=0.5, samples=1000, seed=7)

    def test_largest_u64_seed_is_accepted(self):
        config = parse_args(["sweep", "--seed", str((1 << 64) - 1), "--out", "x.csv"])
        assert config.seed == (1 << 64) - 1

    @pytest.mark.parametrize("spec", ["0:1:1e-13", "0:1:9.99e-13", "0:1:-1e-12", "0:1:nan"])
    def test_t_range_step_below_the_rounding_is_rejected(self, spec):
        with pytest.raises(ValueError, match="needs a step of at least 1e-12"):
            cli._parse_t_spec(spec)

    def test_t_range_of_too_many_points_is_rejected_before_any_is_built(self, capsys):
        # 10^12 + 1 points pass the step rule; building them ran out of memory.
        too_many = f"has 1000000000001 points, more than {MAX_T_POINTS}"
        with pytest.raises(ValueError, match=too_many):
            cli._parse_t_spec("0:1:1e-12")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--t", "0:1:1e-12", "--samples", "1000", "--out", "x.csv"])
        assert exc.value.code == 2
        assert too_many in capsys.readouterr().err

    def test_t_range_of_the_most_points_is_built(self):
        step = 1e-6
        assert len(cli._parse_t_spec(f"0:{(MAX_T_POINTS - 1) * step}:{step}")) == MAX_T_POINTS
        with pytest.raises(ValueError, match=f"has {MAX_T_POINTS + 1} points"):
            cli._parse_t_spec(f"0:{MAX_T_POINTS * step}:{step}")

    def test_t_range_step_at_the_rounding_gives_distinct_points(self):
        assert cli._parse_t_spec("0.5:0.500000000003:1e-12") == (
            0.5, 0.500000000001, 0.500000000002, 0.500000000003
        )

    @pytest.mark.parametrize("spec,token", [
        ("0.1,abc", "abc"),
        ("0.1:0.5:0.1,0.2", "0.1,0.2"),  # a list where the range's step goes
    ])
    def test_t_field_that_is_not_a_number_is_named_with_its_spec(self, capsys, spec, token):
        message = f"t field {token!r} in {spec!r} is not a number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli._parse_t_spec(spec)
        with pytest.raises(SystemExit) as exc:
            parse_args(["sweep", "--t", spec, "--out", "x.csv"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_explicit_t_list(self):
        config = parse_args(["sweep", "--t", "0.1,0.5,0.9", "--out", "x.csv"])
        assert config.t_grid == (0.1, 0.5, 0.9)

    def test_sweep_options_are_csv_columns_or_leave_the_csv_as_it_is(self):
        # `best` and `plot` read each row as the sweep that wrote it only if
        # every input that shapes the row is one of its columns: the seed,
        # the samples, the transmissions and the schemes are, and the worker
        # count and the output path leave the CSV's bytes as they are. So an
        # option added here comes with its column.
        subparsers = next(a for a in cli._build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = [o for a in subparsers.choices["sweep"]._actions for o in a.option_strings]
        assert options == ["-h", "--help", "--seed", "--samples", "--t", "--schemes",
                           "--workers", "--out"]


def _message(call) -> str:
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


class TestSharedRules:
    """Each input rule is one library predicate, so every way in words it alike."""

    SCHEMES = [SlicingScheme("eqprob", "gray", 3)]
    BASE = ChannelParams(transmission=0.5, samples=1000)

    @pytest.mark.parametrize("value", [0, True, 2.5, math.nan])
    def test_an_integer_of_at_least_one(self, value):
        def rule(name):
            return _message(lambda: check_count(name, value))

        assert _message(lambda: ChannelParams(0.5, samples=value)) == rule("samples")
        assert _message(lambda: gaussian_source(value, 1.0, Stream(0))) == rule("n")
        assert _message(
            lambda: sweep([0.5], self.SCHEMES, self.BASE, workers=value)
        ) == rule("workers")

    @pytest.mark.parametrize("flag", ["samples", "workers"])
    def test_an_integer_of_at_least_one_on_the_command_line(self, capsys, flag):
        # argparse's `type=int` turns away True, 2.5 and nan before the library.
        with pytest.raises(SystemExit):
            parse_args(["sweep", f"--{flag}", "0", "--out", "x.csv"])
        assert _message(lambda: check_count(flag, 0)) in capsys.readouterr().err

    @pytest.mark.parametrize("t", [-0.5, 2.5, math.nan])
    def test_a_transmission_in_the_unit_interval(self, capsys, t):
        rule = _message(lambda: check_transmission(t))
        assert rule == f"transmission {t} outside [0, 1]"
        assert _message(lambda: ChannelParams(t)) == rule
        assert _message(lambda: sweep([t], self.SCHEMES, self.BASE)) == rule
        with pytest.raises(SystemExit):
            parse_args(["sweep", "--t", str(t), "--out", "x.csv"])
        assert rule in capsys.readouterr().err


class TestCsv:
    def test_header_and_row_count(self, small_csv):
        lines = small_csv.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 3 * 2

    def test_reruns_are_byte_identical(self, small_csv, tmp_path):
        other = tmp_path / "again.csv"
        assert main(SMALL_ARGS + ["--out", str(other)]) == 0
        assert other.read_bytes() == small_csv.read_bytes()

    def test_rows_roundtrip_definitional_identities(self, small_csv):
        for row in read_csv(str(small_csv)):
            assert row["delta_direct"] == pytest.approx(
                row["i_ab"] - max(row["i_ae"], row["i_be"]), abs=1e-9
            )
            assert row["delta_reverse"] == pytest.approx(
                row["i_ab"] - row["i_be"], abs=1e-9
            )

    def test_matches_golden_file(self, tmp_path):
        # The golden file was written with these flags by the per-scheme
        # engine that sliced every party into N x b bit matrices.
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--seed", "42", "--samples", "4000", "--t", "0.05:0.95:0.05",
            "--schemes", "all", "--workers", "1", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == GOLDEN_CSV.read_bytes()

    def test_matches_wide_alphabet_golden_file(self, tmp_path):
        # Written by the engine that histogrammed every depth from the
        # samples. It spans the CMI capacity edge: reported at b = 8, empty
        # from b = 9 on.
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--seed", "42", "--samples", "5000", "--t", "0.25,0.75",
            "--schemes", "eqwidth:gray:8,eqwidth:flfsr:9,eqwidth:binary:12,"
            "eqprob:gray:8,eqprob:flfsr:9,eqprob:binary:12",
            "--workers", "1", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == GOLDEN_FINE_CSV.read_bytes()

    def test_missing_column_is_reported(self, small_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("transmission,positioning\n0.5,eqprob\n")
        with pytest.raises(ValueError, match="missing column"):
            read_csv(str(bad))
        # A column named twice, whose last copy csv.DictReader would keep.
        lines = small_csv.read_text().splitlines()
        bad.write_text("\n".join([lines[0] + ",delta_direct"] + [l + ",-5" for l in lines[1:]]))
        assert main(["best", str(bad)]) == 1
        assert capsys.readouterr() == (
            "", f"error: column 'delta_direct' appears twice in the header of {bad}\n"
        )

    def test_empty_body_is_reported(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(str(empty))

    @pytest.mark.parametrize("out,message", [
        ("/nonexistent/dir/x.csv", "output directory /nonexistent/dir does not exist"),
        (".", "output path . is a directory"),
        ("", "output path '' is empty"),
        (f"{__file__}/x.csv", f"output directory {__file__} is not a directory"),
    ], ids=["missing-parent", "directory", "empty", "file-parent"])
    def test_unwritable_output_exits_1(self, monkeypatch, capsys, out, message):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a cell ran before the output path was checked")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        assert main(SMALL_ARGS + ["--out", out]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_too_few_samples_for_the_deepest_scheme_exit_2(tmp_path, capsys, workers):
    # The default schemes go to 6 bits: 64 bins, so 64 samples at least.
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--samples", "40", "--workers", workers, "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: need at least 64 samples to place 64 bins, got 40\n"
    )
    assert not out.exists()
    assert parse_args(["sweep", "--samples", "64", "--out", str(out)]).base.samples == 64


def _draw_cells_without_noise_at_the_ends(monkeypatch):
    """Make every sweep cell zero Bob's samples at T = 0 and Eve's at T = 1.

    That party then receives nothing, as without vacuum noise. `sweep` looks
    `realization_for_cell` up at each cell, so forked workers draw with it too.
    """
    draw = secrecy.realization_for_cell

    def silenced(base, t, t_index):
        r = draw(base, t, t_index)
        party = {0.0: "bob", 1.0: "eve"}.get(t)
        return replace(r, **{party: np.zeros(len(r.alice))}) if party else r

    monkeypatch.setattr(secrecy, "realization_for_cell", silenced)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_error_names_the_failing_transmission(monkeypatch, tmp_path, capsys, workers):
    out = tmp_path / "x.csv"
    out.write_text("an earlier sweep\n")
    # Bob receives nothing at T = 0: zero variance.
    _draw_cells_without_noise_at_the_ends(monkeypatch)
    assert main([
        "sweep", "--t", "0,0.5", "--samples", "1000",
        "--schemes", "eqprob:gray:4", "--workers", workers, "--out", str(out),
    ]) == 1
    assert out.read_text() == "an earlier sweep\n"  # a failed sweep leaves the file as it was
    # The cell's own error, wrapped once: nothing between "error:" and the transmission.
    assert capsys.readouterr().err == (
        "error: T=0: degenerate samples: zero variance (bob at 4 bits, in eqprob group)\n"
    )


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_error_names_the_earliest_failing_transmission(
    monkeypatch, tmp_path, capsys, workers
):
    # Eve receives nothing at T = 1 and Bob nothing at T = 0. With 2
    # workers, child 0 runs T = 0.5 and fails at T = 0 (cell 2), and child 1
    # fails at T = 1 (cell 1), which a serial sweep names.
    _draw_cells_without_noise_at_the_ends(monkeypatch)
    assert main([
        "sweep", "--t", "0.5,1,0", "--samples", "1000",
        "--schemes", "eqprob:gray:4", "--workers", workers, "--out", str(tmp_path / "x.csv"),
    ]) == 1
    assert capsys.readouterr().err == (
        "error: T=1: degenerate samples: zero variance (eve at 4 bits, in eqprob group)\n"
    )


def test_sweep_names_an_equal_width_overflow(monkeypatch, tmp_path, capsys):
    # Alice's samples are finite, but their squares, and so their std, are not.
    monkeypatch.setattr(ChannelParams, "sigma_alice", 1e200)
    assert main([
        "sweep", "--t", "0.5", "--samples", "1000",
        "--schemes", "eqwidth:gray:4", "--workers", "1", "--out", str(tmp_path / "x.csv"),
    ]) == 1
    assert "equal-width boundaries overflow a float" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
@pytest.mark.parametrize("command", [
    ["best", "--mode", "direct"],
    ["plot", "--plot-mode", "best_vs_t", "--mode", "direct"],
])
def test_non_finite_value_exits_1_naming_row_and_column(
    small_csv, tmp_path, capsys, value, command
):
    lines = small_csv.read_text().splitlines()
    cells = lines[3].split(",")
    cells[CSV_COLUMNS.index("delta_direct")] = value
    lines[3] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")

    argv = [command[0], str(bad), *command[1:]]
    if command[0] == "plot":
        argv += ["--out", str(tmp_path / "x.svg")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "'delta_direct'" in err and "row 3" in err


@pytest.mark.parametrize("column,value", [
    ("positioning", "foo"), ("numbering", "nope"), ("bits", "0"),
    ("transmission", "0.20000000001"),  # read back as 0.2, which a sweep prints
    # Values that `ChannelParams` rejects, so that no sweep writes them.
    ("transmission", "1.5"), ("samples", "-3"), ("seed", "-1"),
    # Measures out of the range a sweep writes: a BER above 1, a negative
    # mutual information, a negative collision count.
    ("ber_ab", "1.5"), ("i_ab", "-2"), ("label_collisions", "-3"),
])
@pytest.mark.parametrize("command", [
    ["best", "--mode", "direct"],
    ["plot", "--plot-mode", "best_vs_t", "--mode", "direct"],
])
def test_unknown_scheme_field_exits_1_naming_row_and_column(
    small_csv, tmp_path, capsys, column, value, command
):
    lines = small_csv.read_text().splitlines()
    cells = lines[2].split(",")
    cells[CSV_COLUMNS.index(column)] = value
    lines[2] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")

    argv = [command[0], str(bad), *command[1:]]
    if command[0] == "plot":
        argv += ["--out", str(tmp_path / "x.svg")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"bad value {value!r} in column {column!r} of row 2" in err


def _hand_made_row(**fields) -> str:
    """One CSV row of a 4-bit binary scheme that a sweep could write, with ``fields`` replaced."""
    row = dict(transmission="0.5", positioning="eqprob", numbering="binary", bits="4",
               samples="1000", seed="1", i_ab="0.5", i_ae="0.2", i_be="0.1", i_ab_sym="0.6",
               i_ae_sym="0.3", i_be_sym="0.2", ber_ab="0.1", ber_ae="0.3", ber_be="0.35",
               delta_direct="0.3", delta_reverse="0.4", cmi_ab_given_e="0.15",
               label_collisions="0")
    row.update(fields)
    return ",".join(row[col] for col in CSV_COLUMNS)


@pytest.mark.parametrize("fields,column,value,reason", [
    ({"label_collisions": "3"}, "label_collisions", "3",
     "eqprob:binary:4 has 0 label collisions"),
    ({"numbering": "flfsr", "bits": "3"}, "label_collisions", "0",
     "eqprob:flfsr:3 has 1 label collisions"),
    ({"cmi_ab_given_e": ""}, "cmi_ab_given_e", "",
     "a sweep leaves it empty exactly above 8 bits"),
    ({"bits": "10"}, "cmi_ab_given_e", "0.15", "a sweep leaves it empty exactly above 8 bits"),
    # Fewer samples than bins: `check_sample_count` stops such a sweep before any cell.
    ({"numbering": "gray", "bits": "6", "samples": "10"}, "samples", "10",
     "need at least 64 samples to place 64 bins, got 10"),
], ids=["binary-collisions", "flfsr-collisions", "4-bit-empty-cmi", "10-bit-cmi",
        "too-few-samples"])
def test_a_column_that_the_scheme_fixes_exits_1_naming_row_and_column(
    tmp_path, capsys, fields, column, value, reason
):
    # Row 1 is read, so the error names row 2.
    path = tmp_path / "rows.csv"
    rows = [",".join(CSV_COLUMNS), _hand_made_row(), _hand_made_row(transmission="0.6", **fields)]
    path.write_text("\n".join(rows) + "\n")
    assert main(["best", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: bad value {value!r} in column {column!r}"
                                       f" of row 2 in {path}: {reason}\n")


@pytest.mark.parametrize("command", [
    ["best", "--mode", "direct"],
    ["plot", "--plot-mode", "best_vs_t", "--mode", "direct"],
])
def test_repeated_cell_exits_1_naming_the_row_past_the_grid(
    small_csv, tmp_path, capsys, command
):
    lines = small_csv.read_text().splitlines()
    lines.append(lines[2])  # data row 2 again, as data row 7
    bad = tmp_path / "dup.csv"
    bad.write_text("\n".join(lines) + "\n")

    argv = [command[0], str(bad), *command[1:]]
    if command[0] == "plot":
        argv += ["--out", str(tmp_path / "x.svg")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: bad value '0.2' in column 'transmission' of row 7"
                                       f" in {bad}: one sweep of 3 transmissions x 2 schemes"
                                       f" has 6 rows, and this file 7\n")


@pytest.mark.parametrize("command", [
    ["best", "--mode", "direct"],
    ["plot", "--plot-mode", "best_vs_t", "--mode", "direct"],
])
def test_row_longer_than_header_exits_1_naming_the_row(small_csv, tmp_path, capsys, command):
    # One rule for a row of more or of fewer fields: it must have the header's count.
    n = len(CSV_COLUMNS)
    for edit, count, how in [
        (lambda row: row + ",999,zzz", n + 2, "more"),  # two fields the header does not name
        (lambda row: row.rsplit(",", 3)[0], n - 3, "fewer"),  # the last three fields dropped
    ]:
        lines = small_csv.read_text().splitlines()
        lines[1] = edit(lines[1])
        bad = tmp_path / f"{how}.csv"
        bad.write_text("\n".join(lines) + "\n")

        argv = [command[0], str(bad), *command[1:]]
        if command[0] == "plot":
            argv += ["--out", str(tmp_path / "x.svg")]
        assert main(argv) == 1
        assert f"row 1 in {bad} has {count} fields, {how} than the header's {n}" in (
            capsys.readouterr().err
        )


@pytest.mark.parametrize("edit,lines_read,reason", [
    # Data row 1 with one more field, longer than the CSV reader's field limit.
    (lambda lines: [lines[0], lines[1] + b"," + b"x" * 200_000, *lines[2:]], 2,
     "field larger than field limit (131072)"),
    (lambda lines: [b"\xff\xfe" + lines[0], *lines[1:]], 0,
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["long-field", "ff-fe"])
@pytest.mark.parametrize("command", [
    ["best", "--mode", "direct"],
    ["plot", "--plot-mode", "best_vs_t", "--mode", "direct"],
])
def test_bytes_no_csv_reader_reads_exit_1_naming_the_file(
    small_csv, tmp_path, capsys, edit, lines_read, reason, command
):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(edit(small_csv.read_bytes().splitlines())) + b"\n")

    argv = [command[0], str(bad), *command[1:]]
    if command[0] == "plot":
        argv += ["--out", str(tmp_path / "x.svg")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {bad} cannot be read as CSV (lines read:"
                                       f" {lines_read}): {reason}\n")


def test_rows_of_two_sweeps_exit_1_naming_row_and_column(tmp_path, capsys):
    # Two one-cell sweeps of different sizes and seeds under one header: `best`
    # used to rank one sweep's scheme against the other's.
    parts = []
    for seed, samples, scheme in (("7", "4000", "eqprob:gray:3"), ("8", "9000", "eqwidth:gray:3")):
        part = tmp_path / f"{seed}.csv"
        assert main(["sweep", "--seed", seed, "--samples", samples, "--t", "0.5",
                     "--schemes", scheme, "--workers", "1", "--out", str(part)]) == 0
        parts.append(part.read_text().splitlines())
    both = tmp_path / "ab.csv"
    both.write_text("\n".join(parts[0] + parts[1][1:]) + "\n")
    assert main(["best", str(both)]) == 1
    assert capsys.readouterr() == ("", f"error: bad value '9000' in column 'samples' of row 2"
                                       f" in {both}: one sweep's row 2 holds transmission 0.5,"
                                       f" scheme eqwidth:gray:3, samples 4000 and seed 7\n")


BIN, GRAY = {}, {"numbering": "gray"}  # the fields that make eqprob:binary:4 and eqprob:gray:4


@pytest.mark.parametrize("cells,number,column,value,reason", [
    ([("0.1", BIN), ("0.1", {"seed": "2", **GRAY})], 2, "seed", "2",
     "one sweep's row 2 holds transmission 0.1, scheme eqprob:gray:4, samples 1000 and seed 1"),
    ([("0.1", BIN), ("0.1", GRAY), ("0.2", BIN), ("0.3", BIN), ("0.3", GRAY)],
     4, "transmission", "0.3",
     "one sweep's row 4 holds transmission 0.2, scheme eqprob:gray:4, samples 1000 and seed 1"),
    ([("0.1", BIN), ("0.1", GRAY), ("0.2", BIN)],
     3, "transmission", "0.2",
     "one sweep of 2 transmissions x 2 schemes has 4 rows, and this file 3"),
    ([("0.1", BIN), ("0.1", GRAY), ("0.2", GRAY), ("0.2", BIN)],
     3, "numbering", "gray",
     "one sweep's row 3 holds transmission 0.2, scheme eqprob:binary:4, samples 1000 and seed 1"),
    ([("0.1", BIN), ("0.2", BIN), ("0.1", GRAY)],
     3, "transmission", "0.1",
     "one sweep of 2 transmissions x 1 schemes has 2 rows, and this file 3"),
    # A check of the schemes alone, row by row modulo the first block, passes this.
    ([("0.1", BIN), ("0.1", GRAY), ("0.2", BIN), ("0.3", GRAY)],
     4, "transmission", "0.3",
     "one sweep's row 4 holds transmission 0.2, scheme eqprob:gray:4, samples 1000 and seed 1"),
], ids=["two-seeds", "missing-cell", "missing-last-cell", "other-scheme-order", "split-block",
        "modulo-schemes"])
def test_rows_off_one_sweeps_grid_exit_1_naming_row_and_column(
    tmp_path, capsys, cells, number, column, value, reason
):
    path = tmp_path / "rows.csv"
    rows = [",".join(CSV_COLUMNS)] + [_hand_made_row(transmission=t, **fields)
                                      for t, fields in cells]
    path.write_text("\n".join(rows) + "\n")
    assert main(["best", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: bad value {value!r} in column {column!r}"
                                       f" of row {number} in {path}: {reason}\n")


def _one_sweep(rows: list[tuple]) -> bool:
    """Whether (transmission, scheme, samples, seed) rows are one sweep's, read off the rule.

    One sample count and one seed, no (transmission, scheme) cell twice,
    each transmission's rows contiguous, and every transmission's schemes,
    in row order, those of the first transmission.
    """
    if len({r[2:] for r in rows}) > 1 or len({r[:2] for r in rows}) < len(rows):
        return False
    schemes: dict = {}
    for k, (t, scheme, *_) in enumerate(rows):
        if t in schemes and rows[k - 1][0] != t:
            return False
        schemes.setdefault(t, []).append(scheme)
    return all(s == schemes[rows[0][0]] for s in schemes.values())


def _starts_one_sweep(rows: list[tuple]) -> bool:
    """Whether some one-sweep file begins with ``rows``.

    Its last transmission's rows must go on with the first transmission's
    remaining schemes, so the file is one sweep's once they are added.
    """
    if not rows:
        return True
    first = [r[1] for r in rows if r[0] == rows[0][0]]
    last = [r[1] for r in rows if r[0] == rows[-1][0]]
    return _one_sweep(rows + [(rows[-1][0], s, *rows[0][2:]) for s in first[len(last):]])


# Transmissions and the fields of three 4-bit schemes, each with no label collision.
GRID_TS = ("0.1", "0.2", "0.3")
GRID_SCHEMES = ({}, {"numbering": "gray"}, {"positioning": "eqwidth"})


@st.composite
def edited_sweeps(draw) -> list[tuple]:
    """A sweep's (transmission, scheme index, samples, seed) rows after 0-2 edits."""
    ts = draw(st.lists(st.sampled_from(GRID_TS), min_size=1, max_size=3, unique=True))
    schemes = draw(st.lists(st.sampled_from(range(3)), min_size=1, max_size=3, unique=True))
    samples, seed = draw(st.sampled_from([1000, 2000])), draw(st.sampled_from([1, 2]))
    rows = [(t, s, samples, seed) for t in ts for s in schemes]
    for edit in draw(st.lists(st.sampled_from(["drop", "insert", "swap", "samples", "seed"]),
                              max_size=2)):
        k = draw(st.integers(0, len(rows) - 1))
        if edit == "drop" and len(rows) > 1:
            del rows[k]
        elif edit == "insert":
            cell = draw(st.sampled_from(GRID_TS)), draw(st.sampled_from(range(3)))
            rows.insert(draw(st.integers(0, len(rows))), (*cell, samples, seed))
        elif edit == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[k], rows[j] = rows[j], rows[k]
        elif edit == "samples":
            rows[k] = (*rows[k][:2], 3000 - rows[k][2], rows[k][3])
        elif edit == "seed":
            rows[k] = (*rows[k][:3], 3 - rows[k][3])
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=edited_sweeps())
def test_one_sweep_rule_agrees_with_an_oracle_that_builds_no_grid(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "edited.csv"
    lines = [_hand_made_row(transmission=t, samples=str(n), seed=str(seed), **GRID_SCHEMES[s])
             for t, s, n, seed in rows]
    path.write_text("\n".join([",".join(CSV_COLUMNS), *lines]) + "\n")
    if _one_sweep(rows):
        read_csv(str(path))
        return
    # A rejected file names its first row that no one-sweep file begins with,
    # or its last row when every row could begin one.
    with pytest.raises(ValueError) as exc:
        read_csv(str(path))
    assert int(re.search(r" of row (\d+) in ", str(exc.value))[1]) == next(
        (k for k in range(1, len(rows) + 1) if not _starts_one_sweep(rows[:k])), len(rows)
    )


BENCH_REFERENCE = Path(__file__).parent.parent / "bench" / "reference"


@pytest.mark.parametrize("path,transmissions,schemes,samples", [
    (GOLDEN_CSV, 19, 18, 4000),
    (GOLDEN_FINE_CSV, 2, 6, 5000),
    (BENCH_REFERENCE / "paper_grid" / "sweep.csv", 19, 18, 50000),
    (BENCH_REFERENCE / "fine_slices" / "sweep.csv", 3, 18, 50000),
], ids=["golden_sweep", "golden_fine", "paper_grid", "fine_slices"])
def test_every_committed_sweep_csv_reads_back(path, transmissions, schemes, samples, capsys):
    # A new `read_csv` rule must accept every file a sweep wrote.
    rows = read_csv(str(path))
    assert len(rows) == transmissions * schemes
    assert len({r["transmission"] for r in rows}) == transmissions
    assert len({r["scheme"] for r in rows}) == schemes
    assert {(r["samples"], r["seed"]) for r in rows} == {(samples, 42)}
    for mode in ("direct", "reverse"):
        assert main(["best", str(path), "--mode", mode]) == 0
        winners = capsys.readouterr().out
        assert len(winners.splitlines()) == 1 + transmissions
        table = path.parent / f"best_{mode}.csv"
        if table.exists():
            assert winners == table.read_text()


def test_a_csv_saved_with_a_byte_order_mark_reads_back(tmp_path, capsys):
    # A spreadsheet that re-saves a sweep CSV as UTF-8 may put a byte-order
    # mark first; `best` used to read the header's first column as
    # '\ufefftransmission' and exit 1 on a missing 'transmission'.
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + GOLDEN_CSV.read_bytes())
    assert read_csv(str(marked)) == read_csv(str(GOLDEN_CSV))
    for mode in ("direct", "reverse"):
        assert main(["best", str(GOLDEN_CSV), "--mode", mode]) == 0
        winners = capsys.readouterr().out
        assert main(["best", str(marked), "--mode", mode]) == 0
        assert capsys.readouterr() == (winners, "")


def test_a_column_no_sweep_writes_is_ignored(small_csv, tmp_path, capsys):
    assert main(["best", str(small_csv)]) == 0
    winners = capsys.readouterr().out
    # A first column, so every sweep column sits one field right of where a sweep puts it.
    lines = small_csv.read_text().splitlines()
    noted = tmp_path / "noted.csv"
    noted.write_text("".join(f"{note},{line}\n"
                             for note, line in zip(["note"] + ["hello"] * len(lines), lines)))
    assert main(["best", str(noted)]) == 0
    assert capsys.readouterr().out == winners


class TestBest:
    def test_best_outputs_one_winner_per_t(self, small_csv, tmp_path, capsys):
        assert main(["best", str(small_csv), "--mode", "reverse"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "transmission,scheme"
        assert len(out) == 1 + 3

    def test_best_to_file(self, small_csv, tmp_path):
        out = tmp_path / "best.csv"
        assert main(["best", str(small_csv), "--out", str(out)]) == 0
        assert out.read_text().startswith("transmission,scheme\n")

    def test_missing_csv_exits_1(self):
        assert main(["best", "/no/such/file.csv"]) == 1

    def test_empty_output_path_exits_1(self, small_csv, capsys):
        assert main(["best", str(small_csv), "--out", ""]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


class TestPlot:
    @pytest.mark.parametrize("mode", ["mi_vs_t", "delta_vs_t", "best_vs_t"])
    def test_well_formed_svg(self, small_csv, tmp_path, mode):
        out = tmp_path / f"{mode}.svg"
        assert main(["plot", str(small_csv), "--plot-mode", mode,
                     "--out", str(out)]) == 0
        root = ET.parse(str(out)).getroot()
        assert root.tag.endswith("svg")

    def test_delta_plot_has_polyline_per_scheme(self, small_csv, tmp_path):
        out = tmp_path / "delta.svg"
        assert main(["plot", str(small_csv), "--plot-mode", "delta_vs_t",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("<polyline") == 2

    def test_best_plot_is_single_step_series(self, small_csv, tmp_path):
        out = tmp_path / "best.svg"
        assert main(["plot", str(small_csv), "--plot-mode", "best_vs_t",
                     "--out", str(out)]) == 0
        assert out.read_text().count("<polyline") == 1

    def test_empty_csv_exits_1(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_COLUMNS) + "\n")
        assert main(["plot", str(empty), "--out", str(tmp_path / "x.svg")]) == 1

    @pytest.mark.parametrize("mode", ["direct", "reverse"])
    @pytest.mark.parametrize("plot_mode", ["mi_vs_t", "delta_vs_t", "best_vs_t"])
    def test_every_text_and_line_is_on_the_canvas(self, all_schemes_csv, tmp_path, plot_mode,
                                                  mode):
        # 18 schemes give 36 mi_vs_t legend entries and 18 best_vs_t ticks,
        # most of them schemes that win nowhere.
        winners = {s for _, s in cli.best_rows(read_csv(all_schemes_csv), mode)}
        assert 1 <= len(winners) < 18
        out = tmp_path / "chart.svg"
        assert main(["plot", str(all_schemes_csv), "--plot-mode", plot_mode, "--mode", mode,
                     "--out", str(out)]) == 0
        root = ET.parse(str(out)).getroot()
        width, height = float(root.get("width")), float(root.get("height"))
        assert root.get("viewBox") == f"0 0 {root.get('width')} {root.get('height')}"
        background = root[0]  # the white background
        assert (background.get("width"), background.get("height")) == (root.get("width"),
                                                                        root.get("height"))
        frame = next(e for e in root if e.tag.endswith("rect") and e.get("x") is not None)
        left, top = float(frame.get("x")), float(frame.get("y"))
        bottom = top + float(frame.get("height"))
        xs, ys, tick_starts = [], [], []
        y_label_right = None
        for element in root:
            tag = element.tag.rsplit("}", 1)[-1]
            if tag == "text":
                x, y, size = (float(element.get(a)) for a in ("x", "y", "font-size"))
                ys.append(y)
                if element.get("transform"):  # the y label, rotated -90 about (x, y):
                    # its glyphs lie left of x, its descenders a quarter em right
                    y_label_right = x + 0.25 * size
                    continue
                # 0.6 em per character, the layout's estimate
                w = 0.6 * size * len(element.text)
                start = x - {"middle": w / 2, "end": w}.get(element.get("text-anchor"), 0)
                xs += [start, start + w]
                if element.get("text-anchor") == "end":
                    tick_starts.append(start)
            elif tag == "line":
                xs += [float(element.get("x1")), float(element.get("x2"))]
                ys += [float(element.get("y1")), float(element.get("y2"))]
                if (float(element.get("x1")), float(element.get("x2"))) == (left - 5, left):
                    assert top <= float(element.get("y1")) <= bottom  # a y tick
        assert xs and all(0 <= x <= width for x in xs)
        assert ys and all(0 <= y <= height for y in ys)
        assert len(tick_starts) == (18 if plot_mode == "best_vs_t" else 6)
        assert all(y_label_right <= start for start in tick_starts)

    @pytest.mark.parametrize("csv_fixture", ["small_csv", "all_schemes_csv"])
    def test_each_scheme_has_its_own_colour_in_mi_vs_t(self, request, tmp_path, csv_fixture):
        csv_path = request.getfixturevalue(csv_fixture)
        n_schemes = len({r["scheme"] for r in read_csv(csv_path)})
        out = tmp_path / "mi.svg"
        assert main(["plot", str(csv_path), "--plot-mode", "mi_vs_t",
                     "--out", str(out)]) == 0
        root = ET.parse(str(out)).getroot()
        polylines = [e for e in root if e.tag.endswith("polyline")]
        legend = [e.text for e in root if e.tag.endswith("text") and e.get("text-anchor") is None]
        assert len(polylines) == len(legend) == 2 * n_schemes  # in series order, both
        solid, dashed = {}, {}
        for label, line in zip(legend, polylines):
            name, scheme = label.split(" ")
            assert (name == "max(I_AE,I_BE)") == (line.get("stroke-dasharray") is not None)
            (dashed if line.get("stroke-dasharray") else solid)[scheme] = line.get("stroke")
        assert len(solid) == n_schemes and len(set(solid.values())) == n_schemes
        assert dashed == solid

    def test_unknown_plot_mode_is_rejected_before_the_csv_is_read(self, monkeypatch, tmp_path):
        def no_read(path):
            raise AssertionError("the CSV was read before the plot mode was checked")

        monkeypatch.setattr(cli, "read_csv", no_read)
        out = tmp_path / "x.svg"
        with pytest.raises(ValueError, match="unknown plot mode 'pie'"):
            cli.emit_plot(str(tmp_path / "sweep.csv"), "pie", "direct", str(out))
        assert not out.exists()

    @pytest.mark.parametrize("plot_mode", ["mi_vs_t", "delta_vs_t", "best_vs_t"])
    def test_bad_mode_is_rejected_before_the_csv_is_read(self, monkeypatch, tmp_path, plot_mode):
        def no_read(path):
            raise AssertionError("the CSV was read before the mode was checked")

        monkeypatch.setattr(cli, "read_csv", no_read)
        out = tmp_path / "x.svg"
        with pytest.raises(ValueError, match="mode must be 'direct' or 'reverse', got 'sideways'"):
            cli.emit_plot(str(tmp_path / "sweep.csv"), plot_mode, "sideways", str(out))
        assert not out.exists()


class TestSelftest:
    def test_passes_on_healthy_build(self, capsys):
        assert selftest() == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 5

    def test_fails_when_labels_corrupted(self, capsys, monkeypatch):
        def corrupted(numbering, b):
            table = slicing.build_labels(numbering, b)
            if numbering is not Numbering.GRAY or b < 2:
                return table
            codes = table.codes.copy()
            codes[1] ^= 1 << (b - 1)  # codes 0 and 1 now differ in two bits
            return LabelTable(codes, b)

        monkeypatch.setattr(cli, "build_labels", corrupted)
        assert selftest() == 1
        assert "FAIL  gray adjacency (b=1..16)" in capsys.readouterr().out

    def test_cli_entry(self):
        assert main(["selftest"]) == 0

    def test_tie_probe_fails_when_rank_bins_send_ties_lower(self, capsys, monkeypatch):
        # The rank rule's boundary search with side="right" puts a sample that
        # equals a boundary in the lower bin; `assign_bins` searches with
        # side="right" already, so forcing it everywhere changes only the rank rule.
        class RightSided:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def searchsorted(a, v, side="left", sorter=None):
                return np.searchsorted(a, v, side="right", sorter=sorter)

        monkeypatch.setattr(slicing, "np", RightSided())
        assert selftest() == 1
        assert (
            "FAIL  equal-width bins of samples tied on a boundary equal a binary search"
            in capsys.readouterr().out
        )


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt's parameters are glibc's")
def test_second_sweep_reuses_the_memory_the_first_freed(tmp_path):
    # Each cell allocates and frees about 40 arrays of N elements. Unless the
    # sweep keeps freed memory, every cell faults those pages in again.
    script = textwrap.dedent("""
        import resource, sys
        from slicesec import cli
        argv = ["sweep", "--samples", "200000", "--t", "0.3,0.6", "--workers", "1",
                "--schemes", "eqprob:gray:6,eqwidth:binary:4", "--out", sys.argv[1]]
        assert cli.main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(argv) == 0
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path / "x.csv")],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 200


def test_commands_leave_unused_modules_unimported():
    # numpy.ma, which np.unique imports on first use, costs about 13 ms in
    # every fresh process. This sweep counts sorted pair codes at b = 10,
    # recounts b = 9 from the shifted bins (`_dense(18, ~4000)` is false, so
    # nothing is merged) and counts F-LFSR label collisions. A parallel
    # sweep forks its workers itself, so no sweep loads a process pool's
    # stack (concurrent.futures, multiprocessing: about 20 ms), and the
    # chart module is loaded only by `plot`. The sweep imports numpy.random
    # without OpenSSL's `_hashlib` (libcrypto: about 3.4 MB resident), and
    # `selftest`'s draws then find it loaded.
    script = textwrap.dedent("""
        import contextlib, io, sys, tempfile
        from slicesec import cli
        with tempfile.TemporaryDirectory() as tmp:
            assert cli.main(["sweep", "--samples", "4000", "--t", "0.5", "--workers", "1",
                             "--schemes", "eqprob:flfsr:10,eqprob:gray:9,eqwidth:binary:4",
                             "--out", tmp + "/x.csv"]) == 0
            print("numpy.ma" in sys.modules)
            assert cli.main(["sweep", "--samples", "4000", "--t", "0.3,0.6", "--workers", "2",
                             "--schemes", "eqprob:gray:4", "--out", tmp + "/par.csv"]) == 0
            assert cli.main(["best", tmp + "/x.csv", "--out", tmp + "/best.csv"]) == 0
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["selftest"]) == 0
        unused = ("concurrent.futures", "multiprocessing", "slicesec.svgplot", "_hashlib")
        print(",".join(name for name in unused if name in sys.modules) or "none")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "none"]


# A plain sweep imports numpy.random without `_hashlib`, so `hashlib` serves
# SHA-256 from its built-in `_sha256`; the same sweep after an `import
# hashlib` finds `_hashlib` loaded and leaves OpenSSL's SHA-256 in place.
# Either way the script prints whether `_hashlib` is as the sweep found it,
# the None entries left in sys.modules, SHA-256 of "abc", and HMAC-SHA256
# of the Wikipedia example.
HASHLIB_SCRIPT = textwrap.dedent("""
    import sys
    if sys.argv[2] == "hashlib first":
        import hashlib
    loaded = sys.modules.get("_hashlib")
    from slicesec import cli
    assert cli.main(["sweep", "--samples", "4000", "--t", "0.3,0.6", "--workers", "1",
                     "--schemes", "eqprob:gray:5,eqwidth:binary:4", "--out", sys.argv[1]]) == 0
    import hashlib, hmac
    print(hashlib.sha256.__name__)
    print(sys.modules.get("_hashlib") is loaded)
    print([name for name, module in sys.modules.items() if module is None])
    print(hashlib.sha256(b"abc").hexdigest())
    print(hmac.new(b"key", b"The quick brown fox jumps over the lazy dog", "sha256").hexdigest())
""")


def test_sweep_leaves_hashlib_working_whether_or_not_it_was_loaded_first(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    runs = {}
    for case in ("plain", "hashlib first"):
        csv = tmp_path / f"{case.replace(' ', '_')}.csv"
        result = subprocess.run([sys.executable, "-c", HASHLIB_SCRIPT, str(csv), case], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        runs[case] = result.stdout.split(), csv.read_bytes()
    checks = ["True", "[]", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
              "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"]
    assert runs["plain"][0] == ["sha256", *checks]
    assert runs["hashlib first"][0] == ["openssl_sha256", *checks]
    assert runs["plain"][1] == runs["hashlib first"][1]


def test_keep_freed_memory_does_nothing_without_mallopt(monkeypatch):
    # The C libraries of macOS and Windows have no mallopt.
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert keep_freed_memory() is None


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc/self/task")
def test_serial_sweep_leaves_one_thread(tmp_path):
    # numpy is imported first, as bench/rep.py does, so its OpenBLAS pool is
    # running before the command starts. A CDLL that loaded a second copy of
    # the library would shut down that copy's pool and leave this one.
    script = textwrap.dedent("""
        import os, sys
        import numpy
        print(len(os.listdir("/proc/self/task")))
        from slicesec import cli
        status = cli.main(["sweep", "--samples", "4000", "--t", "0.3,0.6", "--workers", "1",
                           "--schemes", "eqprob:gray:4", "--out", sys.argv[1]])
        print(status, len(os.listdir("/proc/self/task")))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               OPENBLAS_NUM_THREADS="2")
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path / "x.csv")], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    before, after = result.stdout.splitlines()
    if int(before) < 2:
        pytest.skip(f"import numpy started no BLAS thread here ({before} thread)")
    assert after.split() == ["0", "1"]


def test_stop_blas_threads_does_nothing_without_maps_or_library(monkeypatch):
    def fail(*args, **kwargs):
        raise OSError("unavailable")

    with monkeypatch.context() as m:  # no /proc (macOS, Windows)
        m.setattr("builtins.open", fail)
        assert stop_blas_threads() is None
    monkeypatch.setattr(ctypes, "CDLL", fail)
    assert stop_blas_threads() is None
    monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())  # another BLAS
    assert stop_blas_threads() is None


def test_products_after_stop_blas_threads_are_right():
    # Integer-valued operands make every sum exact, whatever the summation order.
    a, b = np.random.default_rng(5).integers(-8, 9, size=(2, 512, 512)).astype(np.float64)
    stop_blas_threads()
    assert np.array_equal(a @ b, np.einsum("ij,jk->ik", a, b))
