import argparse
import ctypes
import math
import os
import platform
import subprocess
import sys
import textwrap
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from slicesec import (
    ChannelParams, LabelTable, Numbering, SlicingScheme, Stream, cli, default_schemes,
    default_t_grid, gaussian_source, slicing, sweep,
)
from slicesec.channel import check_count, check_transmission
from slicesec.cli import CSV_COLUMNS, keep_freed_memory, main, parse_args, read_csv, selftest
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
            "sweep", "--seed", "7", "--samples", "1000", "--sigma-vacuum", "0.5",
            "--out", "x.csv",
        ])
        assert isinstance(config, argparse.Namespace)
        assert config.base == ChannelParams(
            transmission=0.5, sigma_vacuum=0.5, samples=1000, seed=7
        )

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

    def test_explicit_t_list(self):
        config = parse_args(["sweep", "--t", "0.1,0.5,0.9", "--out", "x.csv"])
        assert config.t_grid == (0.1, 0.5, 0.9)

    def test_width_multiplier_reaches_schemes(self):
        for schemes in ("eqwidth:gray:4", "all"):
            config = parse_args([
                "sweep", "--width-multiplier", "2.5", "--schemes", schemes, "--out", "x.csv",
            ])
            assert {s.width_multiplier for s in config.schemes} == {2.5}


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
    ], ids=["missing-parent", "directory", "empty"])
    def test_unwritable_output_exits_1(self, monkeypatch, capsys, out, message):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a cell ran before the output path was checked")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        assert main(SMALL_ARGS + ["--out", out]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_error_names_the_failing_transmission(tmp_path, capsys, workers):
    out = tmp_path / "x.csv"
    out.write_text("an earlier sweep\n")
    # Without vacuum noise Bob receives nothing at T = 0: zero variance.
    assert main([
        "sweep", "--t", "0,0.5", "--sigma-vacuum", "0", "--samples", "1000",
        "--schemes", "eqprob:gray:4", "--workers", workers, "--out", str(out),
    ]) == 1
    assert out.read_text() == "an earlier sweep\n"  # a failed sweep leaves the file as it was
    # The cell's own error, wrapped once: nothing between "error:" and the transmission.
    assert capsys.readouterr().err == (
        "error: T=0: degenerate samples: zero variance (bob at 4 bits, in eqprob group, width 3)\n"
    )


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_error_names_the_earliest_failing_transmission(tmp_path, capsys, workers):
    # Without vacuum noise Eve receives nothing at T = 1 and Bob nothing at
    # T = 0. With 2 workers, child 0 runs T = 0.5 and fails at T = 0 (cell
    # 2), and child 1 fails at T = 1 (cell 1), which a serial sweep names.
    assert main([
        "sweep", "--t", "0.5,1,0", "--sigma-vacuum", "0", "--samples", "1000",
        "--schemes", "eqprob:gray:4", "--workers", workers, "--out", str(tmp_path / "x.csv"),
    ]) == 1
    assert capsys.readouterr().err == (
        "error: T=1: degenerate samples: zero variance (eve at 4 bits, in eqprob group, width 3)\n"
    )


def test_sweep_names_an_equal_width_overflow(tmp_path, capsys):
    # Alice's samples are finite, but their squares, and so their std, are not.
    assert main([
        "sweep", "--t", "0.5", "--sigma-alice", "1e200", "--samples", "1000",
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


@pytest.mark.parametrize("command", [
    ["best", "--mode", "direct"],
    ["plot", "--plot-mode", "best_vs_t", "--mode", "direct"],
])
def test_repeated_cell_exits_1_naming_both_rows(small_csv, tmp_path, capsys, command):
    lines = small_csv.read_text().splitlines()
    lines.append(lines[2])  # data row 2 again, as data row 7
    bad = tmp_path / "dup.csv"
    bad.write_text("\n".join(lines) + "\n")

    argv = [command[0], str(bad), *command[1:]]
    if command[0] == "plot":
        argv += ["--out", str(tmp_path / "x.svg")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "rows 2 and 7" in err and "transmission 0.2 and scheme eqwidth:flfsr:3" in err


@pytest.mark.parametrize("command", [
    ["best", "--mode", "direct"],
    ["plot", "--plot-mode", "best_vs_t", "--mode", "direct"],
])
def test_row_longer_than_header_exits_1_naming_the_row(small_csv, tmp_path, capsys, command):
    lines = small_csv.read_text().splitlines()
    lines[1] += ",999,zzz"  # data row 1 gains two fields the header does not name
    bad = tmp_path / "long.csv"
    bad.write_text("\n".join(lines) + "\n")

    argv = [command[0], str(bad), *command[1:]]
    if command[0] == "plot":
        argv += ["--out", str(tmp_path / "x.svg")]
    assert main(argv) == 1
    n = len(CSV_COLUMNS)
    assert f"row 1 in {bad} has {n + 2} fields, more than the header's {n}" in (
        capsys.readouterr().err
    )


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
