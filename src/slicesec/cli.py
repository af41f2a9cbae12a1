"""Command line front end: sweeps, winner tables, SVG plots, and self checks.

Exit statuses: 0 success, 1 runtime/data failure, 2 usage error. All state
comes in through flags (no environment variables), so a command line is a
complete, reproducible description of a run.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import operator
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace

import numpy as np

from . import slicing
from .channel import ChannelParams, transmit
from .infotheory import CMI_MAX_BITS
from .secrecy import (
    FLOAT_FORMAT,
    SweepTable,
    check_sweep,
    default_schemes,
    default_t_grid,
    evaluate_scheme,
    evaluate_schemes,
    sweep,
    t_range,
)
from .slicing import Numbering, Positioning, SlicingScheme, bin_indices, build_labels

# Each CSV column in order, and the `SecrecyReport` attribute it prints.
CSV_FIELDS = {
    "transmission": "transmission", "positioning": "scheme.positioning.value",
    "numbering": "scheme.numbering.value", "bits": "scheme.bits", "samples": "n", "seed": "seed",
    **{col: col for col in (
        "i_ab", "i_ae", "i_be", "i_ab_sym", "i_ae_sym", "i_be_sym", "ber_ab", "ber_ae",
        "ber_be", "delta_direct", "delta_reverse", "cmi_ab_given_e",
    )},
    "label_collisions": "scheme.label_collisions",
}
CSV_COLUMNS = list(CSV_FIELDS)

# How each column parses; every other column is a float.
COLUMN_TYPES = {
    "positioning": Positioning, "numbering": Numbering,
    "bits": int, "samples": int, "seed": int, "label_collisions": int,
}

# The closed range of each measured column that a sweep writes: a mutual
# information is not negative and a BER is a fraction.
_MEASURED_RANGES = {col: (0, 1 if col.startswith("ber_") else math.inf)
                    for col in CSV_COLUMNS if col.startswith(("i_", "cmi_", "ber_"))}

_report_values = operator.attrgetter(*CSV_FIELDS.values())
# One row's %-format, str() for a column that is no float. A depth without
# CMI (see `CMI_MAX_BITS`) leaves the cell empty: "%.0s" prints none of its None.
_CSV_ROW, _CSV_ROW_WITHOUT_CMI = (
    ",".join(cmi if col == "cmi_ab_given_e" else "%s" if col in COLUMN_TYPES else FLOAT_FORMAT
             for col in CSV_COLUMNS)
    for cmi in (FLOAT_FORMAT, "%.0s")
)

PLOT_MODES = ("mi_vs_t", "delta_vs_t", "best_vs_t")


def _parse_t_spec(spec: str) -> tuple[float, ...]:
    """The transmissions of a ``--t`` spec, min:max:step or a comma list."""
    spec = spec.strip()

    def number(token: str) -> float:
        try:
            return float(token)
        except ValueError:
            raise ValueError(f"t field {token.strip()!r} in {spec!r} is not a number") from None

    if ":" not in spec:
        return tuple(number(p) for p in spec.split(",") if p.strip())
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"t range must be min:max:step, got {spec!r}")
    return t_range(*(number(p) for p in parts))


def _parse_schemes(spec: str) -> tuple[SlicingScheme, ...]:
    if spec.strip().lower() == "all":
        return tuple(default_schemes())
    return tuple(SlicingScheme.parse(tok) for tok in spec.split(",") if tok.strip())


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one.

    ``os.cpu_count()`` counts the machine's CPUs, which oversubscribes a
    process pinned to fewer (``taskset``, a container's cpuset).
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def keep_freed_memory() -> None:
    """Make the C allocator keep the memory this process frees, for reuse.

    Each cell of the default 18-scheme sweep allocates and frees 40
    temporary arrays of N elements, and 32 more of at least N bytes sized
    by its histograms' occupied cells (100 and 332 on a grid of 8, 10 and
    12 bits, at N = 2e5). By default glibc hands freed memory back to the
    kernel, by trimming the heap or by unmapping each block above its mmap
    threshold, and the next cell faults the same pages in again,
    zero-filled. With the heap never trimmed and blocks up to 32 MiB served
    from it, every cell after the first reuses pages the process has
    already touched. A parallel sweep's workers, forked from this process,
    inherit the setting. Where the C library has no ``mallopt`` (macOS,
    Windows) this does nothing; musl's is a stub.
    """
    try:
        # The running process's own symbols; ctypes.util.find_library would
        # start ldconfig in a child process.
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: Windows has no CDLL(None)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, -1)  # M_TRIM_THRESHOLD: never trim the heap
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's 64-bit ceiling for its dynamic one


def stop_blas_threads() -> None:
    """Shut down the idle OpenBLAS workers that `import numpy` starts (README).

    A later product that needs them restarts them. Without `/proc/self/maps`
    or OpenBLAS's `blas_thread_shutdown_` this does nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh}
        for path in paths:
            if "openblas" in os.path.basename(path):  # CDLL returns the loaded copy
                shutdown = getattr(ctypes.CDLL(path), "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = (), ctypes.c_int
                    shutdown()
    except OSError:
        return


def _import_random_without_openssl() -> None:
    """Import `numpy.random` without loading OpenSSL, leaving `sys.modules` as it was.

    `numpy.random.bit_generator` imports `secrets` for seed entropy, which
    imports `hmac` and `hashlib`, and they load `_hashlib` and with it
    OpenSSL's libcrypto: about 3.4 MB resident in every sweep, for a digest
    no sweep computes. With `_hashlib` blocked for this one import, `hmac`
    and `hashlib` take their built-in paths, as in a Python built without
    OpenSSL: `hashlib` serves md5, the sha1, sha2 and sha3 families, shake
    and blake2 from its own modules (`_sha256` and the others) and lacks
    OpenSSL-only names such as `scrypt` and ripemd160; `hmac` compares
    digests with `_operator`'s. No draw changes: every `Stream` keys its
    Philox generator explicitly. Nothing is done where `numpy.random` or
    `_hashlib` is already loaded. A parallel sweep's workers, forked from
    this process, inherit the module. This is the `sweep` command's, which
    owns its process; a library caller's `hashlib` stays as it is.
    """
    if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
        return
    sys.modules["_hashlib"] = None  # an import of a None entry raises ImportError
    try:
        import numpy.random  # noqa: F401
    finally:
        del sys.modules["_hashlib"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicesec",
        description="Secrecy of CV-QKD slicing methods across channel transmissions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sweep = sub.add_parser("sweep", help="run the (T, scheme) grid and write CSV")
    # Every default but the worker count is the library's (`--t`: `default_t_grid`).
    # Each option is a CSV column or leaves the CSV as it is (`--workers`, `--out`).
    p_sweep.add_argument("--seed", type=int, default=ChannelParams.seed,
                         help="master RNG seed (u64)")
    p_sweep.add_argument("--samples", type=int, default=ChannelParams.samples,
                         help="transmitted points per channel realization")
    p_sweep.add_argument("--t", help="transmission grid: min:max:step or comma list")
    p_sweep.add_argument("--schemes", default="all",
                         help="'all' (18-scheme grid) or comma list like eqprob:gray:4")
    p_sweep.add_argument("--workers", type=int, default=available_cpus(),
                         help="parallel sweep workers (output is worker-count invariant;"
                              " default: the CPUs this process may run on)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_best = sub.add_parser("best", help="winning scheme per transmission from a sweep CSV")
    p_best.add_argument("csv_path", help="CSV produced by the sweep subcommand")
    p_best.add_argument("--mode", choices=("direct", "reverse"), default="direct")
    p_best.add_argument("--out", default=None, help="output path (default: stdout)")

    p_plot = sub.add_parser("plot", help="render an SVG chart from a sweep CSV")
    p_plot.add_argument("csv_path", help="CSV produced by the sweep subcommand")
    p_plot.add_argument("--plot-mode", choices=PLOT_MODES, default="delta_vs_t",
                        dest="plot_mode")
    p_plot.add_argument("--mode", choices=("direct", "reverse"), default="direct")
    p_plot.add_argument("--out", required=True, help="output SVG path")

    sub.add_parser("selftest", help="run the exact-invariant checks")
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; usage errors, including any the library raises, exit with status 2.

    For ``sweep`` the namespace also carries the parsed ``t_grid`` and
    ``schemes`` and the channel parameters as ``base``; every rule on them is
    stated once, by `t_range`, `SlicingScheme`, `ChannelParams` and
    `check_sweep`, the pre-flight that `sweep` makes first.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand != "sweep":
        return ns
    try:
        ns.t_grid = default_t_grid() if ns.t is None else _parse_t_spec(ns.t)
        ns.schemes = _parse_schemes(ns.schemes)
        # Each sweep cell replaces the transmission with its own T.
        ns.base = ChannelParams(transmission=0.5, samples=ns.samples, seed=ns.seed)
        check_sweep(ns.t_grid, ns.schemes, ns.base, ns.workers)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    return ns


def emit_csv(table: SweepTable, path: str) -> None:
    """Write the sweep table, one row per report with the columns of `CSV_FIELDS`."""
    lines = [",".join(CSV_COLUMNS)]
    for r in table.rows:
        row = _CSV_ROW if r.cmi_ab_given_e is not None else _CSV_ROW_WITHOUT_CMI
        lines.append(row % _report_values(r))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_records(fh: Iterable[str], path: str) -> Iterator[list[str]]:
    """The records a CSV reader parses from ``fh``; bytes it cannot read raise ValueError."""
    import csv  # on use: only `best` and `plot` read a CSV

    reader = csv.reader(fh)
    try:
        yield from reader
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(
            f"{path} cannot be read as CSV (lines read: {reader.line_num}): {exc}"
        ) from None


def read_csv(path: str) -> list[dict]:
    """Read a sweep CSV back into per-row dicts of parsed values.

    A file that a CSV reader cannot decode or parse is rejected, naming the
    lines it read. A header that names a column twice is rejected, naming
    the column. A value that does not parse, a non-finite float, a
    transmission that a sweep would not print as it stands (at
    `FLOAT_FORMAT`, which keys its cells), a transmission, sample count or
    seed that `ChannelParams` rejects, a bit count that no `SlicingScheme`
    has, a mutual information (plain, symbol-level or conditional) below 0,
    a BER outside [0, 1], a CMI empty at `CMI_MAX_BITS` bits or fewer or
    present above, a label collision count not the scheme's
    (`SlicingScheme.label_collisions`), or fewer samples than the scheme has
    bins (`slicing.check_sample_count`) is rejected with its data row
    (1-based) and column, and with the reason where there is one. So is a
    row whose field count differs from the header's. Once every row passes
    those rules, the rows must be one sweep's: the (transmission x scheme)
    grid that they span, in grid order, with row 1's sample count and seed.
    Its transmissions come in order of first appearance, and its schemes are
    the first transmission's, up to a change of transmission or a repeated
    scheme. The first row off its cell is rejected with the first column
    that differs; a file of another length, with its first row past the
    grid or else its last row. Only the columns of `CSV_FIELDS` are read;
    blank lines are skipped. The secrecy margins are not cross-checked
    against the mutual informations, since 9 printed digits cannot
    reproduce them exactly. Each row's ``scheme`` is the `SlicingScheme`
    string of its positioning, numbering and bits. The file is read as
    UTF-8, a leading byte-order mark skipped, as a spreadsheet may save one.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _csv_records(fh, path)
        header = next(records, [])
        for i, col in enumerate(header):
            if col in header[:i]:
                raise ValueError(f"column {col!r} appears twice in the header of {path}")
        for col in CSV_COLUMNS:
            if col not in header:
                raise ValueError(f"missing column {col!r} in {path}")
        rows = []
        channel = ChannelParams(transmission=0.5)  # a row's inputs replace its fields one by one
        for number, fields in enumerate(filter(None, records), start=1):
            if len(fields) != len(header):
                how = "more" if len(fields) > len(header) else "fewer"
                raise ValueError(f"row {number} in {path} has {len(fields)} fields,"
                                 f" {how} than the header's {len(header)}")
            raw = dict(zip(header, fields))
            row = {}
            for col in CSV_COLUMNS:
                if col == "cmi_ab_given_e" and not raw[col]:
                    row[col] = None
                    continue
                try:
                    value = COLUMN_TYPES.get(col, float)(raw[col])
                except ValueError:
                    value = math.nan
                if (isinstance(value, float) and not math.isfinite(value)) or (
                    col == "transmission" and float(FLOAT_FORMAT % value) != value
                ):  # a transmission reads back only as a sweep prints it
                    raise ValueError(
                        f"bad value {raw[col]!r} in column {col!r} of row {number} in {path}"
                    )
                row[col] = value
            # The library's rules on a sweep's inputs, then the ranges of its
            # measures and the three columns that its scheme fixes; positioning
            # and numbering parsed above, so of the scheme only bits can fail.
            try:
                for col in ("transmission", "samples", "seed"):
                    replace(channel, **{col: row[col]})
                col = "bits"
                scheme = SlicingScheme(row["positioning"], row["numbering"], row["bits"])
                row["scheme"] = str(scheme)
                for col, (lo, hi) in _MEASURED_RANGES.items():
                    if row[col] is not None and not lo <= row[col] <= hi:
                        raise ValueError(f"{col} {row[col]} outside [{lo}, {hi}]")
                col = "cmi_ab_given_e"
                if (row[col] is None) != (row["bits"] > CMI_MAX_BITS):
                    raise ValueError(f"a sweep leaves it empty exactly above {CMI_MAX_BITS} bits")
                col = "label_collisions"
                if row[col] != scheme.label_collisions:
                    raise ValueError(f"{scheme} has {scheme.label_collisions} label collisions")
                col = "samples"
                slicing.check_sample_count(row[col], scheme)
            except ValueError as exc:
                raise ValueError(
                    f"bad value {raw[col]!r} in column {col!r} of row {number} in {path}: {exc}"
                ) from None
            rows.append(row)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    # One sweep: row k holds cell k of the grid that the rows span.
    cols = ("transmission", "positioning", "numbering", "bits", "samples", "seed")
    key = operator.itemgetter(*cols)
    ts = list(dict.fromkeys(r["transmission"] for r in rows))
    schemes = []
    for r in rows:
        scheme = key(r)[1:4]
        if r["transmission"] != ts[0] or scheme in schemes:
            break
        schemes.append(scheme)
    grid = ((t, *scheme, *key(rows[0])[4:]) for t in ts for scheme in schemes)
    for number, (row, cell) in enumerate(zip(rows, grid), start=1):
        if key(row) != cell:
            col = next(c for c, value, want in zip(cols, key(row), cell) if value != want)
            why = (f"one sweep's row {number} holds transmission {FLOAT_FORMAT % cell[0]},"
                   f" scheme {SlicingScheme(*cell[1:4])}, samples {cell[4]} and seed {cell[5]}")
            break
    else:
        size = len(ts) * len(schemes)
        if len(rows) == size:
            return rows
        number, col = min(len(rows), size + 1), "transmission"
        why = (f"one sweep of {len(ts)} transmissions x {len(schemes)} schemes has {size} rows,"
               f" and this file {len(rows)}")
    value = rows[number - 1][col]
    text = FLOAT_FORMAT % value if col == "transmission" else getattr(value, "value", value)
    raise ValueError(f"bad value {str(text)!r} in column {col!r} of row {number} in {path}: {why}")


def _margin_column(mode: str) -> str:
    """The CSV column of the ``mode`` ("direct" or "reverse") reconciliation's secrecy margin."""
    if mode not in ("direct", "reverse"):
        raise ValueError(f"mode must be 'direct' or 'reverse', got {mode!r}")
    return f"delta_{mode}"


def _group(rows: list[dict], column: str) -> dict:
    """``rows`` grouped by their ``column`` value in one pass: keys sorted, rows in row order."""
    groups: dict = {}
    for r in rows:
        groups.setdefault(r[column], []).append(r)
    return dict(sorted(groups.items()))  # the keys differ, so no two groups are compared


def best_rows(rows: list[dict], mode: str) -> list[tuple[float, str]]:
    """Per transmission, the scheme of the row maximizing the ``mode`` secrecy margin.

    ``rows`` are `read_csv` rows. Ties break toward fewer bits, then lower
    Alice-Bob BER, then the lexicographically smallest scheme string, giving
    a total order.
    """
    delta_key = _margin_column(mode)

    def rank(r: dict) -> tuple:
        return (-r[delta_key], r["bits"], r["ber_ab"], r["scheme"])
    return [(t, min(rs, key=rank)["scheme"]) for t, rs in _group(rows, "transmission").items()]


def emit_plot(csv_path: str, plot_mode: str, mode: str, out: str) -> None:
    """Render one of the chart modes from a sweep CSV to a standalone SVG."""
    from .svgplot import Chart, Series  # on use: only `plot` draws

    delta_key = _margin_column(mode)  # both modes are checked before the CSV is read
    if plot_mode not in PLOT_MODES:
        raise ValueError(f"unknown plot mode {plot_mode!r}")
    rows = read_csv(csv_path)
    by_scheme = _group(rows, "scheme")

    y_ticks = None
    if plot_mode == "mi_vs_t":
        title = "Mutual information vs channel transmission"
        y_label = "mutual information (bits)"
        curves = (("I_AB", False, lambda r: r["i_ab"]),
                  ("max(I_AE,I_BE)", True, lambda r: max(r["i_ae"], r["i_be"])))
        series = [Series(f"{name} {s}", [r["transmission"] for r in rs], [y(r) for r in rs],
                         dashed) for name, dashed, y in curves for s, rs in by_scheme.items()]
    elif plot_mode == "delta_vs_t":
        title = f"Secrecy margin ({mode} reconciliation) vs channel transmission"
        y_label = "secrecy margin (bits)"
        series = [Series(s, [r["transmission"] for r in rs], [r[delta_key] for r in rs])
                  for s, rs in by_scheme.items()]
    else:
        title = f"Optimal slicing method ({mode} reconciliation) per transmission"
        y_label, y_ticks = "winning scheme", list(enumerate(by_scheme))
        position = {s: i for i, s in y_ticks}
        winners = best_rows(rows, mode)
        series = [Series("winner", [t for t, _ in winners],
                         [float(position[s]) for _, s in winners], step=True)]

    chart = Chart(title, "channel transmission", y_label, series, y_ticks)
    with open(out, "w") as fh:
        fh.write(chart.render())


def selftest() -> int:
    """Run the exact-invariant checks and print each; returns 0 iff every check passes."""
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, bool(ok)))

    # Gray adjacency, all supported widths
    ok = True
    for b in range(1, slicing.MAX_BITS + 1):
        labels = build_labels(Numbering.GRAY, b).labels
        diffs = (labels[1:] != labels[:-1]).sum(axis=1)
        ok &= bool((diffs == 1).all())
    check("gray adjacency (b=1..16)", ok)

    # F-LFSR worked sequence for b=4
    flfsr = build_labels(Numbering.FLFSR, 4).as_strings()
    check("flfsr b=4 prefix 0001,1000,0100,0010",
          flfsr[:4] == ["0001", "1000", "0100", "0010"])

    # Symbol-level MI ignores the numbering: the engine bins each party once
    # and reads every numbering's labels off the same symbol histograms.
    mixed = transmit(ChannelParams(transmission=0.5, samples=4096, seed=2024))
    reports = evaluate_schemes(
        mixed, [SlicingScheme(Positioning.EQUAL_PROBABILITY, num, 4) for num in Numbering]
    )
    check("symbol MI identical across numberings",
          len({(r.i_ab_sym, r.i_ae_sym, r.i_be_sym) for r in reports}) == 1)

    # Perfect transmission is an identity channel
    real = transmit(ChannelParams(transmission=1.0, samples=5000, seed=7))
    scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.GRAY, 4)
    check("T=1 gives zero Alice-Bob BER", evaluate_scheme(real, scheme).ber_ab == 0.0)

    # Equal-probability occupancy
    occ = np.bincount(bin_indices(real.alice, scheme), minlength=16)
    check("equal-probability occupancy within +/-1 of N/2^b",
          bool((np.abs(occ - 5000 / 16) <= 1).all()))

    # Bins of either positioning come from the ranks of one sort; on a draw
    # rounded to 0.1, many samples equal an equal-probability boundary and
    # must go to the higher bin.
    coarse = np.round(real.bob, 1)
    ok = True
    for positioning in Positioning:
        scheme = SlicingScheme(positioning, Numbering.GRAY, 4)
        edges = slicing.compute_edges(coarse, scheme)
        ok &= np.array_equal(bin_indices(coarse, scheme), slicing.assign_bins(coarse, edges))
    check("bins of both positionings equal a binary search over the same edges", ok)

    # Equal-width ties: 512 samples at -1 and at +1 and 3072 at 0 have mean 0
    # and std 0.5 exactly, so at b = 2 the boundaries are -0.75, 0 and 0.75,
    # and the 3072 zeros sit on a boundary, which sends them higher.
    tied = np.random.default_rng(0).permutation(np.repeat([-1.0, 0.0, 1.0], [512, 3072, 512]))
    scheme = SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.GRAY, 2)
    edges = slicing.compute_edges(tied, scheme)
    check("equal-width bins of samples tied on a boundary equal a binary search",
          np.isin(tied, edges.boundaries).sum() > 0
          and np.array_equal(bin_indices(tied, scheme), slicing.assign_bins(tied, edges)))

    # Determinism of the channel
    r2 = transmit(ChannelParams(transmission=1.0, samples=5000, seed=7))
    check("channel regeneration is bit-identical",
          bool(np.array_equal(real.alice, r2.alice)
               and np.array_equal(real.bob, r2.bob)
               and np.array_equal(real.eve, r2.eve)))

    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    stop_blas_threads()
    try:
        if args.subcommand == "selftest":
            return selftest()
        if args.subcommand == "sweep":
            if not args.out:
                raise FileNotFoundError("output path '' is empty")
            out_dir = os.path.dirname(args.out) or "."
            if not os.path.isdir(out_dir):  # checked before the first cell, not after the last
                if os.path.exists(out_dir):
                    raise NotADirectoryError(f"output directory {out_dir} is not a directory")
                raise FileNotFoundError(f"output directory {out_dir} does not exist")
            if os.path.isdir(args.out):
                raise IsADirectoryError(f"output path {args.out} is a directory")
            keep_freed_memory()
            _import_random_without_openssl()
            emit_csv(sweep(args.t_grid, args.schemes, args.base, workers=args.workers), args.out)
        elif args.subcommand == "best":
            lines = ["transmission,scheme"]
            winners = best_rows(read_csv(args.csv_path), args.mode)
            lines += [f"{FLOAT_FORMAT % t},{s}" for t, s in winners]
            text = "\n".join(lines) + "\n"
            if args.out is not None:  # an empty path fails to open, as `plot`'s does
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        else:
            emit_plot(args.csv_path, args.plot_mode, args.mode, args.out)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
