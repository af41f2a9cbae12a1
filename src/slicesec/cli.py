"""Command line front end: sweeps, winner tables, SVG plots, and self checks.

Exit statuses: 0 success, 1 runtime/data failure, 2 usage error. All state
comes in through flags (no environment variables), so a command line is a
complete, reproducible description of a run.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import channel, infotheory, slicing
from .channel import ChannelParams, Stream, transmit
from .secrecy import SweepTable, check_grid, default_schemes, sweep
from .slicing import (
    Numbering,
    Positioning,
    SlicingScheme,
    build_labels,
    slice_samples,
)
from .svgplot import Chart, Series

CSV_COLUMNS = [
    "transmission", "positioning", "numbering", "bits", "samples", "seed",
    "i_ab", "i_ae", "i_be", "i_ab_sym", "i_ae_sym", "i_be_sym",
    "ber_ab", "ber_ae", "ber_be", "delta_direct", "delta_reverse",
    "cmi_ab_given_e", "label_collisions",
]

# How each column parses; every other column is a float.
COLUMN_TYPES = {
    "positioning": Positioning, "numbering": Numbering,
    "bits": int, "samples": int, "seed": int, "label_collisions": int,
}

PLOT_MODES = ("mi_vs_t", "delta_vs_t", "best_vs_t")


def _parse_t_spec(spec: str) -> tuple[float, ...]:
    spec = spec.strip()
    if ":" not in spec:
        return tuple(float(p) for p in spec.split(",") if p.strip())
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"t range must be min:max:step, got {spec!r}")
    lo, hi, step = (float(p) for p in parts)
    if not step > 0:
        raise ValueError(f"t range {spec!r} needs a step > 0")
    count = int(round((hi - lo) / step)) + 1
    return tuple(round(lo + i * step, 12) for i in range(count) if lo + i * step <= hi + 1e-9)


def _parse_schemes(spec: str, width_multiplier: float) -> tuple[SlicingScheme, ...]:
    if spec.strip().lower() == "all":
        return tuple(default_schemes(width_multiplier))
    return tuple(
        SlicingScheme.parse(tok, width_multiplier) for tok in spec.split(",") if tok.strip()
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicesec",
        description="Secrecy of CV-QKD slicing methods across channel transmissions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sweep = sub.add_parser("sweep", help="run the (T, scheme) grid and write CSV")
    p_sweep.add_argument("--seed", type=int, default=42, help="master RNG seed (u64)")
    p_sweep.add_argument("--samples", type=int, default=200_000,
                         help="transmitted points per channel realization")
    p_sweep.add_argument("--sigma-alice", type=float, default=1.0,
                         help="std dev of Alice's Gaussian modulation")
    p_sweep.add_argument("--sigma-vacuum", type=float, default=1.0,
                         help="std dev of the added channel noise")
    p_sweep.add_argument("--width-multiplier", type=float, default=3.0,
                         help="equal-width bins span mean +/- k*std; this is k")
    p_sweep.add_argument("--t", default="0.05:0.95:0.05",
                         help="transmission grid: min:max:step or comma list")
    p_sweep.add_argument("--schemes", default="all",
                         help="'all' (18-scheme grid) or comma list like eqprob:gray:4")
    p_sweep.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                         help="parallel sweep workers (output is worker-count invariant)")
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
    stated once, by `check_grid`, `SlicingScheme` and `ChannelParams`.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand != "sweep":
        return ns
    try:
        ns.t_grid = _parse_t_spec(ns.t)
        ns.schemes = _parse_schemes(ns.schemes, ns.width_multiplier)
        check_grid(ns.t_grid, ns.schemes)
        ns.base = ChannelParams(
            transmission=0.5,  # each sweep cell replaces it with its own T
            sigma_alice=ns.sigma_alice,
            sigma_vacuum=ns.sigma_vacuum,
            samples=ns.samples,
            seed=ns.seed,
        )
        if ns.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {ns.workers}")
    except (ValueError, OverflowError) as exc:  # OverflowError: an infinite --t bound
        parser.error(str(exc))  # exits 2
    return ns


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def emit_csv(table: SweepTable, path: str) -> None:
    """Write the sweep table with the fixed column schema, 9 significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for r in table.rows:
        lines.append(",".join([
            _fmt(r.transmission),
            r.scheme.positioning.value,
            r.scheme.numbering.value,
            str(r.scheme.bits),
            str(r.n),
            str(r.seed),
            _fmt(r.i_ab), _fmt(r.i_ae), _fmt(r.i_be),
            _fmt(r.i_ab_sym), _fmt(r.i_ae_sym), _fmt(r.i_be_sym),
            _fmt(r.ber_ab), _fmt(r.ber_ae), _fmt(r.ber_be),
            _fmt(r.delta_direct), _fmt(r.delta_reverse),
            "" if r.cmi_ab_given_e is None else _fmt(r.cmi_ab_given_e),
            str(r.label_collisions),
        ]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> list[dict]:
    """Read a sweep CSV back into per-row dicts of parsed values.

    A value that does not parse, a non-finite float, or a bit count that no
    `SlicingScheme` has is rejected with its data row (1-based) and column,
    so that no NaN margin or unknown scheme is ever ranked. Each row's
    ``scheme`` is the `SlicingScheme` string of its positioning, numbering
    and bits.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in CSV_COLUMNS:
            if col not in header:
                raise ValueError(f"missing column {col!r} in {path}")
        rows = []
        for number, raw in enumerate(reader, start=1):
            row = {}
            for col in header:
                if col == "cmi_ab_given_e" and not raw[col]:
                    row[col] = None
                    continue
                try:
                    value = COLUMN_TYPES.get(col, float)(raw[col])
                except (TypeError, ValueError):  # TypeError: the row is short
                    value = math.nan
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(
                        f"bad value {raw[col]!r} in column {col!r} of row {number} in {path}"
                    )
                row[col] = value
            try:  # positioning and numbering parsed above, so only bits can fail
                row["scheme"] = str(SlicingScheme(row["positioning"], row["numbering"], row["bits"]))
            except ValueError as exc:
                raise ValueError(
                    f"bad value {raw['bits']!r} in column 'bits' of row {number} in {path}: {exc}"
                ) from None
            rows.append(row)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return rows


def best_rows(rows: list[dict], mode: str) -> list[tuple[float, str]]:
    """Per transmission, the scheme of the row maximizing the ``mode`` secrecy margin.

    ``rows`` are `read_csv` rows. Ties break toward fewer bits, then lower
    Alice-Bob BER, then the lexicographically smallest scheme string, giving
    a total order.
    """
    if mode not in ("direct", "reverse"):
        raise ValueError(f"mode must be 'direct' or 'reverse', got {mode!r}")
    delta_key = f"delta_{mode}"
    winners = []
    for t in sorted({r["transmission"] for r in rows}):
        candidates = [r for r in rows if r["transmission"] == t]
        best = min(
            candidates,
            key=lambda r: (-r[delta_key], r["bits"], r["ber_ab"], r["scheme"]),
        )
        winners.append((t, best["scheme"]))
    return winners


def emit_plot(csv_path: str, plot_mode: str, mode: str, out: str) -> None:
    """Render one of the chart modes from a sweep CSV to a standalone SVG."""
    rows = read_csv(csv_path)
    schemes = sorted({r["scheme"] for r in rows})
    by_scheme = {s: [r for r in rows if r["scheme"] == s] for s in schemes}

    if plot_mode == "mi_vs_t":
        chart = Chart(
            title="Mutual information vs channel transmission",
            x_label="channel transmission",
            y_label="mutual information (bits)",
        )
        for s in schemes:
            rs = by_scheme[s]
            chart.add(Series(f"I_AB {s}", [r["transmission"] for r in rs],
                             [r["i_ab"] for r in rs]))
            chart.add(Series(f"max(I_AE,I_BE) {s}", [r["transmission"] for r in rs],
                             [max(r["i_ae"], r["i_be"]) for r in rs], dashed=True))
    elif plot_mode == "delta_vs_t":
        delta_key = "delta_direct" if mode == "direct" else "delta_reverse"
        chart = Chart(
            title=f"Secrecy margin ({mode} reconciliation) vs channel transmission",
            x_label="channel transmission",
            y_label="secrecy margin (bits)",
        )
        for s in schemes:
            rs = by_scheme[s]
            chart.add(Series(s, [r["transmission"] for r in rs],
                             [r[delta_key] for r in rs]))
    elif plot_mode == "best_vs_t":
        winners = best_rows(rows, mode)
        chart = Chart(
            title=f"Optimal slicing method ({mode} reconciliation) per transmission",
            x_label="channel transmission",
            y_label="winning scheme",
            y_ticks=[(i, s) for i, s in enumerate(schemes)],
        )
        chart.add(Series(
            "winner",
            [t for t, _ in winners],
            [float(schemes.index(s)) for _, s in winners],
            step=True,
        ))
    else:
        raise ValueError(f"unknown plot mode {plot_mode!r}")

    with open(out, "w") as fh:
        fh.write(chart.render())


def selftest(corrupt_labels: bool = False, stream=None) -> int:
    """Run the exact-invariant checks; returns 0 iff every check passes.

    ``corrupt_labels`` is a test hook that deliberately breaks the Gray
    table to prove the harness can fail.
    """
    if stream is None:
        stream = sys.stdout
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, bool(ok)))

    # Gray adjacency, all supported widths
    ok = True
    for b in range(1, slicing.MAX_BITS + 1):
        labels = build_labels(Numbering.GRAY, b).labels
        if corrupt_labels:
            labels = labels.copy()
            labels[0] ^= 1
            labels[1] ^= 1  # adjacent pair now differs in 2 bits somewhere
            labels[1][-1] ^= 1
        diffs = (labels[1:] != labels[:-1]).sum(axis=1)
        ok &= bool((diffs == 1).all())
    check("gray adjacency (b=1..16)", ok)

    # F-LFSR worked sequence for b=4
    flfsr = build_labels(Numbering.FLFSR, 4).as_strings()
    check("flfsr b=4 prefix 0001,1000,0100,0010",
          flfsr[:4] == ["0001", "1000", "0100", "0010"])

    # Symbol-level MI ignores the numbering
    rng_stream = Stream(2024, (99,))
    samples = channel.gaussian_source(4096, 1.0, rng_stream)
    noisy = samples + 0.3 * channel.gaussian_source(4096, 1.0, rng_stream.child(1))
    sym = {}
    for num in Numbering:
        scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, num, 4)
        sym[num] = infotheory.mutual_information_symbols(
            slice_samples(samples, scheme).symbol_index,
            slice_samples(noisy, scheme).symbol_index,
        ).value
    vals = list(sym.values())
    check("symbol MI identical across numberings", max(vals) - min(vals) == 0.0)

    # Perfect transmission is an identity channel
    real = transmit(ChannelParams(transmission=1.0, samples=5000, seed=7))
    scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.GRAY, 4)
    ber = infotheory.bit_error_rate(
        slice_samples(real.alice, scheme), slice_samples(real.bob, scheme)
    )
    check("T=1 gives zero Alice-Bob BER", ber == 0.0)

    # Equal-probability occupancy
    occ = np.bincount(
        slice_samples(real.alice, scheme).symbol_index, minlength=16
    )
    check("equal-probability occupancy within +/-1 of N/2^b",
          bool((np.abs(occ - 5000 / 16) <= 1).all()))

    # Determinism of the channel
    r2 = transmit(ChannelParams(transmission=1.0, samples=5000, seed=7))
    check("channel regeneration is bit-identical",
          bool(np.array_equal(real.alice, r2.alice)
               and np.array_equal(real.bob, r2.bob)
               and np.array_equal(real.eve, r2.eve)))

    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}", file=stream)
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed", file=stream)
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.subcommand == "selftest":
            return selftest()
        if args.subcommand == "sweep":
            emit_csv(sweep(args.t_grid, args.schemes, args.base, workers=args.workers), args.out)
        elif args.subcommand == "best":
            lines = ["transmission,scheme"]
            lines += [f"{_fmt(t)},{s}" for t, s in best_rows(read_csv(args.csv_path), args.mode)]
            text = "\n".join(lines) + "\n"
            if args.out:
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
