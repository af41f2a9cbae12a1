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
from dataclasses import dataclass

import numpy as np

from . import channel, infotheory, slicing
from .channel import ChannelParams, Stream, transmit
from .secrecy import SweepTable, default_schemes, sweep
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

INT_COLUMNS = ("bits", "samples", "seed", "label_collisions")

PLOT_MODES = ("mi_vs_t", "delta_vs_t", "best_vs_t")


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    t_grid: tuple[float, ...] = ()
    schemes: tuple[SlicingScheme, ...] = ()
    samples: int = 200_000
    seed: int = 42
    sigma_alice: float = 1.0
    sigma_vacuum: float = 1.0
    width_multiplier: float = 3.0
    out: str | None = None
    mode: str = "direct"
    workers: int = 1
    csv_path: str | None = None
    plot_mode: str | None = None

    def channel_params(self, transmission: float = 0.5) -> ChannelParams:
        return ChannelParams(
            transmission=transmission,
            sigma_alice=self.sigma_alice,
            sigma_vacuum=self.sigma_vacuum,
            samples=self.samples,
            seed=self.seed,
        )


def _parse_t_spec(spec: str) -> tuple[float, ...]:
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"t range must be min:max:step, got {spec!r}")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError(f"t step must be positive, got {step}")
        count = int(round((hi - lo) / step)) + 1
        values = [round(lo + i * step, 12) for i in range(count) if lo + i * step <= hi + 1e-9]
    else:
        values = [float(p) for p in spec.split(",") if p.strip()]
    if not values:
        raise ValueError(f"empty t grid from {spec!r}")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"transmission {v} outside [0, 1] in --t {spec!r}")
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate transmission in --t {spec!r}")
    return tuple(values)


def _parse_schemes(spec: str, width_multiplier: float) -> tuple[SlicingScheme, ...]:
    if spec.strip().lower() == "all":
        return tuple(default_schemes(width_multiplier))
    schemes = tuple(
        SlicingScheme.parse(tok, width_multiplier)
        for tok in spec.split(",")
        if tok.strip()
    )
    if not schemes:
        raise ValueError(f"empty scheme list from {spec!r}")
    if len(set(schemes)) != len(schemes):
        raise ValueError(f"duplicate scheme in --schemes {spec!r}")
    return schemes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicesec",
        description="Secrecy of CV-QKD slicing methods across channel transmissions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_channel_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42, help="master RNG seed (u64)")
        p.add_argument("--samples", type=int, default=200_000,
                       help="transmitted points per channel realization")
        p.add_argument("--sigma-alice", type=float, default=1.0,
                       help="std dev of Alice's Gaussian modulation")
        p.add_argument("--sigma-vacuum", type=float, default=1.0,
                       help="std dev of the added channel noise")
        p.add_argument("--width-multiplier", type=float, default=3.0,
                       help="equal-width bins span mean +/- k*std; this is k")
        p.add_argument("--t", default="0.05:0.95:0.05",
                       help="transmission grid: min:max:step or comma list")
        p.add_argument("--schemes", default="all",
                       help="'all' (18-scheme grid) or comma list like eqprob:gray:4")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="parallel sweep workers (output is worker-count invariant)")

    p_sweep = sub.add_parser("sweep", help="run the (T, scheme) grid and write CSV")
    add_channel_flags(p_sweep)
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


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and validate argv into a RunConfig; usage errors exit with status 2."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    if ns.subcommand == "selftest":
        return RunConfig(subcommand="selftest")

    if ns.subcommand in ("best", "plot"):
        return RunConfig(
            subcommand=ns.subcommand,
            csv_path=ns.csv_path,
            mode=ns.mode,
            out=ns.out,
            plot_mode=getattr(ns, "plot_mode", None),
        )

    try:
        t_grid = _parse_t_spec(ns.t)
        schemes = _parse_schemes(ns.schemes, ns.width_multiplier)
        if ns.samples < 1:
            raise ValueError(f"--samples must be >= 1, got {ns.samples}")
        if not 0 <= ns.seed < 1 << 64:
            raise ValueError(f"--seed must lie in [0, 2^64), got {ns.seed}")
        if ns.sigma_alice <= 0:
            raise ValueError(f"--sigma-alice must be positive, got {ns.sigma_alice}")
        if ns.sigma_vacuum < 0:
            raise ValueError(f"--sigma-vacuum must be nonnegative, got {ns.sigma_vacuum}")
        if ns.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {ns.workers}")
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    return RunConfig(
        subcommand="sweep",
        t_grid=t_grid,
        schemes=schemes,
        samples=ns.samples,
        seed=ns.seed,
        sigma_alice=ns.sigma_alice,
        sigma_vacuum=ns.sigma_vacuum,
        width_multiplier=ns.width_multiplier,
        out=ns.out,
        workers=ns.workers,
    )


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
    """Read a sweep CSV back into per-row dicts with numeric fields parsed.

    A value that does not parse, or a non-finite float, is rejected with its
    data row (1-based) and column, so that no NaN margin is ever ranked.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in CSV_COLUMNS:
            if col not in header:
                raise ValueError(f"missing column {col!r} in {path}")
        rows = []
        for number, raw in enumerate(reader, start=1):
            row = dict(raw)
            for col in header:
                if col in ("positioning", "numbering"):
                    continue
                if col == "cmi_ab_given_e" and not raw[col]:
                    row[col] = None
                    continue
                parse = int if col in INT_COLUMNS else float
                try:
                    value = parse(raw[col])
                except (TypeError, ValueError):  # TypeError: the row is short
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(
                        f"bad value {raw[col]!r} in column {col!r} of row {number} in {path}"
                    )
                row[col] = value
            row["scheme"] = f"{raw['positioning']}:{raw['numbering']}:{raw['bits']}"
            rows.append(row)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return rows


def _best_rows(rows: list[dict], mode: str) -> list[tuple[float, str]]:
    delta_key = "delta_direct" if mode == "direct" else "delta_reverse"
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
        winners = _best_rows(rows, mode)
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
    config = parse_args(sys.argv[1:] if argv is None else argv)

    try:
        if config.subcommand == "selftest":
            return selftest()

        if config.subcommand == "sweep":
            table = sweep(
                config.t_grid,
                config.schemes,
                config.channel_params(),
                workers=config.workers,
            )
            emit_csv(table, config.out)
            return 0

        if config.subcommand == "best":
            rows = read_csv(config.csv_path)
            lines = ["transmission,scheme"]
            lines += [f"{_fmt(t)},{s}" for t, s in _best_rows(rows, config.mode)]
            text = "\n".join(lines) + "\n"
            if config.out:
                with open(config.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0

        if config.subcommand == "plot":
            emit_plot(config.csv_path, config.plot_mode, config.mode, config.out)
            return 0
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raise AssertionError(f"unhandled subcommand {config.subcommand}")


if __name__ == "__main__":
    sys.exit(main())
