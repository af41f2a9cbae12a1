import argparse
import io
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from slicesec import ChannelParams, SlicingScheme
from slicesec.cli import CSV_COLUMNS, main, parse_args, read_csv, selftest

GOLDEN_CSV = Path(__file__).parent / "data" / "golden_sweep.csv"

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

    def test_explicit_t_list(self):
        config = parse_args(["sweep", "--t", "0.1,0.5,0.9", "--out", "x.csv"])
        assert config.t_grid == (0.1, 0.5, 0.9)

    def test_width_multiplier_reaches_schemes(self):
        config = parse_args([
            "sweep", "--width-multiplier", "2.5", "--schemes", "eqwidth:gray:4",
            "--out", "x.csv",
        ])
        assert config.schemes[0].width_multiplier == 2.5


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

    def test_missing_column_is_reported(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("transmission,positioning\n0.5,eqprob\n")
        with pytest.raises(ValueError, match="missing column"):
            read_csv(str(bad))

    def test_empty_body_is_reported(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(str(empty))

    def test_unwritable_output_exits_1(self):
        assert main(SMALL_ARGS + ["--out", "/nonexistent/dir/x.csv"]) == 1


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_error_names_the_failing_transmission(tmp_path, capsys, workers):
    # Without vacuum noise Bob receives nothing at T = 0: zero variance.
    assert main([
        "sweep", "--t", "0,0.5", "--sigma-vacuum", "0", "--samples", "1000",
        "--schemes", "eqprob:gray:4", "--workers", workers,
        "--out", str(tmp_path / "x.csv"),
    ]) == 1
    assert "T=0: degenerate samples" in capsys.readouterr().err


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
    def test_passes_on_healthy_build(self):
        buf = io.StringIO()
        assert selftest(stream=buf) == 0
        lines = [l for l in buf.getvalue().splitlines() if l.startswith("PASS")]
        assert len(lines) >= 5

    def test_fails_when_labels_corrupted(self):
        buf = io.StringIO()
        assert selftest(corrupt_labels=True, stream=buf) == 1
        assert "FAIL" in buf.getvalue()

    def test_cli_entry(self):
        assert main(["selftest"]) == 0
