"""Secrecy evaluation: per-cell reports and grid sweeps.

The secrecy margin is delta_direct = I_AB - max(I_AE, I_BE) for direct
reconciliation and delta_reverse = I_AB - I_BE for reverse reconciliation,
computed from the bitwise mutual information of the sliced strings. One
channel realization is generated per transmission value and shared by every
scheme evaluated there, so scheme comparisons always see identical data.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, ChannelRealization, Stream, transmit
from .infotheory import (
    AlphabetCapacityError,
    bit_error_rate_from_tables,
    bitwise_mi_from_tables,
    conditional_mi,
    joint_cells,
    label_bit_tables,
    mutual_information_symbols,
    plugin_bias,
    plugin_mi,
)
from .slicing import (
    LabelTable,
    Numbering,
    Positioning,
    SlicingScheme,
    bin_indices,
    build_labels,
)

# bench/tracing.py wraps these names in this module's namespace (and raises
# KeyError if one is missing), so they stay importable from here although
# the engine bins once and derives bitwise MI and BER from joint tables.
from .infotheory import bit_error_rate, mutual_information_bitwise  # noqa: F401
from .slicing import slice_samples  # noqa: F401

# The six-method grid studied at 2^4, 2^5 and 2^6 bins.
DEFAULT_BITS = (4, 5, 6)


def default_schemes(width_multiplier: float = 3.0) -> list[SlicingScheme]:
    """The full 18-scheme grid: positionings x numberings x bit depths."""
    return [
        SlicingScheme(pos, num, bits, width_multiplier)
        for pos in Positioning
        for num in Numbering
        for bits in DEFAULT_BITS
    ]


def default_t_grid() -> np.ndarray:
    """Transmission grid 0.05 to 0.95 in steps of 0.05."""
    return np.round(np.arange(1, 20) * 0.05, 10)


@dataclass(frozen=True)
class SecrecyReport:
    """All secrecy quantities for one (transmission, scheme) cell."""

    transmission: float
    scheme: SlicingScheme
    i_ab: float
    i_ae: float
    i_be: float
    i_ab_sym: float
    i_ae_sym: float
    i_be_sym: float
    ber_ab: float
    ber_ae: float
    ber_be: float
    delta_direct: float
    delta_reverse: float
    cmi_ab_given_e: float | None
    label_collisions: int
    n: int
    seed: int


@dataclass(frozen=True)
class SweepTable:
    """Sweep output: one report per (transmission, scheme), deterministic order."""

    rows: tuple[SecrecyReport, ...]
    t_grid: tuple[float, ...]
    schemes: tuple[SlicingScheme, ...]
    base: ChannelParams


def secrecy_deltas(i_ab: float, i_ae: float, i_be: float) -> tuple[float, float]:
    """(direct, reverse) secrecy margins from the three mutual informations."""
    return i_ab - max(i_ae, i_be), i_ab - i_be


def evaluate_scheme(realization: ChannelRealization, scheme: SlicingScheme) -> SecrecyReport:
    """Report one scheme on one realization; see `evaluate_schemes`."""
    return evaluate_schemes(realization, [scheme])[0]


def evaluate_schemes(realization: ChannelRealization, schemes) -> list[SecrecyReport]:
    """Slice all three parties with each scheme (own edges each) and report, in order.

    The eavesdropper is restricted to the legitimate parties' scheme; her
    only advantage is her own received data.

    Every quantity is a function of the parties' bin indices and the label
    table. Each party is binned once per (positioning, width multiplier) at
    the deepest bit count asked for, and shallower depths are exact right
    shifts of those indices. Per (positioning, bits), each pair's sparse
    joint symbol histogram is built once; it gives the symbol MI and, with
    each numbering's label table, that numbering's bitwise MI and BER, since
    every per-bit 2x2 table is a marginal of that joint.
    """
    schemes = list(schemes)
    p = realization.params
    parties = (realization.alice, realization.bob, realization.eve)
    label_tables: dict[tuple[Numbering, int], LabelTable] = {}
    reports: dict[SlicingScheme, SecrecyReport] = {}

    groups: dict[tuple[Positioning, float], list[SlicingScheme]] = {}
    for scheme in schemes:
        groups.setdefault((scheme.positioning, scheme.width_multiplier), []).append(scheme)

    for group in groups.values():
        deepest = max(group, key=lambda s: s.bits)
        top_indices = [bin_indices(samples, deepest) for samples in parties]
        for bits in sorted({s.bits for s in group}):
            a, b, e = (idx >> (deepest.bits - bits) for idx in top_indices)
            try:
                cmi = conditional_mi(a, b, e).value
            except AlphabetCapacityError:
                cmi = None
            joints = [joint_cells(x, y) for x, y in ((a, b), (a, e), (b, e))]
            i_ab_sym, i_ae_sym, i_be_sym = (plugin_mi(*joint) for joint in joints)

            for scheme in (s for s in group if s.bits == bits):
                key = (scheme.numbering, bits)
                if key not in label_tables:
                    label_tables[key] = build_labels(scheme.numbering, bits)
                table = label_tables[key]
                bit_tables = [label_bit_tables(*joint, table.labels) for joint in joints]
                i_ab, i_ae, i_be = (bitwise_mi_from_tables(t) for t in bit_tables)
                ber_ab, ber_ae, ber_be = (bit_error_rate_from_tables(t) for t in bit_tables)
                delta_direct, delta_reverse = secrecy_deltas(i_ab, i_ae, i_be)
                reports[scheme] = SecrecyReport(
                    transmission=p.transmission,
                    scheme=scheme,
                    i_ab=i_ab,
                    i_ae=i_ae,
                    i_be=i_be,
                    i_ab_sym=i_ab_sym,
                    i_ae_sym=i_ae_sym,
                    i_be_sym=i_be_sym,
                    ber_ab=ber_ab,
                    ber_ae=ber_ae,
                    ber_be=ber_be,
                    delta_direct=delta_direct,
                    delta_reverse=delta_reverse,
                    cmi_ab_given_e=cmi,
                    label_collisions=table.collisions,
                    n=p.samples,
                    seed=p.seed,
                )
    return [reports[scheme] for scheme in schemes]


def realization_for_cell(base: ChannelParams, t: float, t_index: int) -> ChannelRealization:
    """The shared realization for one transmission cell of a sweep.

    The sub-stream is keyed on the cell index so every scheme at this
    transmission sees the same samples and parallel schedules cannot
    reorder draws.
    """
    params = replace(base, transmission=float(t))
    return transmit(params, base_stream=Stream(base.seed, (t_index,)))


def _sweep_cell(args: tuple) -> list[SecrecyReport]:
    base, t, t_index, schemes = args
    try:
        return evaluate_schemes(realization_for_cell(base, t, t_index), schemes)
    except Exception as exc:
        # Name the failing cell as the CSV prints it; sweep() reports the error.
        raise RuntimeError(f"T={t:.9g}: {exc}") from exc


def check_grid(t_grid, schemes) -> None:
    """Reject an empty grid, a transmission outside [0, 1] or a repeated value.

    Sweep streams are keyed by a cell's index in ``t_grid``, so a repeated
    transmission would get a second, different realization, and a repeated
    scheme a duplicate row.
    """
    if not t_grid:
        raise ValueError("empty transmission grid")
    if not schemes:
        raise ValueError("empty scheme list")
    for t in t_grid:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"transmission {t} outside [0, 1]")
    for kind, values in (("transmission", t_grid), ("scheme", schemes)):
        seen = set()
        for value in values:
            if value in seen:
                raise ValueError(f"{kind} {value} repeats in the grid")
            seen.add(value)


def sweep(
    t_grid,
    schemes,
    base: ChannelParams,
    workers: int = 1,
) -> SweepTable:
    """Evaluate every scheme at every transmission of the grid (see `check_grid`).

    Output is bit-identical for any worker count: each cell's random stream
    is keyed by the cell's index in ``t_grid``, and rows are assembled in
    (transmission, scheme) order.
    """
    t_grid = [float(t) for t in t_grid]
    schemes = list(schemes)
    check_grid(t_grid, schemes)

    cells = [(base, t, i, schemes) for i, t in enumerate(t_grid)]
    try:
        if workers > 1 and len(cells) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                per_cell = list(pool.map(_sweep_cell, cells))
        else:
            per_cell = [_sweep_cell(cell) for cell in cells]
    except Exception as exc:
        raise RuntimeError(f"sweep failed: {exc}") from exc

    rows = tuple(report for cell_rows in per_cell for report in cell_rows)
    return SweepTable(
        rows=rows,
        t_grid=tuple(t_grid),
        schemes=tuple(schemes),
        base=base,
    )


def post_exchange_conditions(
    realization: ChannelRealization, bits: int = 4
) -> dict[str, tuple[float, float]]:
    """Sanity check that the channel leaves everyone with usable information.

    Returns {name: (estimate, threshold)} for I(X;Y), I(X;Z) and I(X;Y|Z)
    on equal-probability symbol indices; the threshold is three times the
    plug-in bias oracle, so an estimate above it is genuinely positive
    rather than estimator bias.
    """
    scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, bits)
    x, y, z = (
        bin_indices(samples, scheme)
        for samples in (realization.alice, realization.bob, realization.eve)
    )
    n = len(x)
    k = 1 << bits

    pair_bias = plugin_bias(k, k, n)
    cond_bias = plugin_bias(k, k, n, conditioning=k)
    return {
        "I(X;Y)": (mutual_information_symbols(x, y).value, 3 * pair_bias),
        "I(X;Z)": (mutual_information_symbols(x, z).value, 3 * pair_bias),
        "I(X;Y|Z)": (conditional_mi(x, y, z).value, 3 * cond_bias),
    }
