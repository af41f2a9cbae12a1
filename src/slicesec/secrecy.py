"""Secrecy evaluation: per-cell reports and grid sweeps.

The secrecy margin is delta_direct = I_AB - max(I_AE, I_BE) for direct
reconciliation and delta_reverse = I_AB - I_BE for reverse reconciliation,
computed from the bitwise mutual information of the sliced strings. One
channel realization is generated per transmission value and shared by every
scheme evaluated there, so scheme comparisons always see identical data.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ChannelParams, ChannelRealization, Stream, check_count, check_transmission, transmit,
)
from .infotheory import (
    CMI_MAX_BITS,
    AlphabetCapacityError,
    bit_error_rate_from_tables,
    bitwise_mi_from_tables,
    histograms_by_depth,
    label_bit_tables,
    pair_label_counts,
    plugin_bias,
    plugin_mi,
)
from .slicing import Numbering, Positioning, SlicingScheme, build_labels, party_bins
from .slicing import check_sample_count

# bench/tracing.py wraps these names in this module's namespace (and raises
# AttributeError if one is missing), so they stay importable from here although
# the engine bins once and derives every estimate from joint tables.
from .infotheory import bit_error_rate, mutual_information_bitwise  # noqa: F401
from .infotheory import conditional_mi, mutual_information_symbols  # noqa: F401
from .slicing import slice_samples  # noqa: F401

# The six-method grid studied at 2^4, 2^5 and 2^6 bins.
DEFAULT_BITS = (4, 5, 6)

MAX_T_POINTS = 100_000  # the most points a transmission range may have (see `t_range`)

# Every float a sweep reports is printed, and so read back, at 9 significant digits.
FLOAT_FORMAT = "%.9g"


def default_schemes() -> list[SlicingScheme]:
    """The full 18-scheme grid: positionings x numberings x bit depths."""
    return [
        SlicingScheme(pos, num, bits)
        for pos in Positioning
        for num in Numbering
        for bits in DEFAULT_BITS
    ]


def default_t_grid() -> tuple[float, ...]:
    """Transmission grid 0.05 to 0.95 in steps of 0.05."""
    return t_range(0.05, 0.95, 0.05)


def t_range(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """The transmissions lo, lo + step, ... up to hi, each rounded to 12 decimals.

    A step below 1e-12, an end that is not finite or lies outside [0, 1]
    (see `check_transmission`) and more than MAX_T_POINTS points are each
    rejected before any point is built.
    """
    if not step >= 1e-12:
        raise ValueError(f"t range {lo}:{hi}:{step} needs a step of at least 1e-12")
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"t range {lo}:{hi}:{step} needs finite ends")
    count = int(round((hi - lo) / step)) + 1
    while count > 0 and lo + (count - 1) * step > hi + 1e-9:
        count -= 1  # the rounded count overshoots hi

    def point(i: int) -> float:
        return round(lo + i * step, 12)

    if count > 0:  # points rise with i, so the ends decide the range rule
        check_transmission(point(0))
        check_transmission(point(count - 1))
    if count > MAX_T_POINTS:
        raise ValueError(f"t range {lo}:{hi}:{step} has {count} points, more than {MAX_T_POINTS}")
    return tuple(point(i) for i in range(count))


@dataclass(frozen=True)
class SecrecyReport:
    """One (transmission, scheme) cell: its inputs and its ten measurements.

    The secrecy margins are computed from the stored mutual informations by
    `secrecy_deltas`, the one margin rule; the label collision count is the
    scheme's own (`SlicingScheme.label_collisions`).
    """

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
    cmi_ab_given_e: float | None
    n: int
    seed: int

    @property
    def delta_direct(self) -> float:
        """I_AB - max(I_AE, I_BE), the direct-reconciliation margin."""
        return secrecy_deltas(self.i_ab, self.i_ae, self.i_be)[0]

    @property
    def delta_reverse(self) -> float:
        """I_AB - I_BE, the reverse-reconciliation margin."""
        return secrecy_deltas(self.i_ab, self.i_ae, self.i_be)[1]


@dataclass(frozen=True)
class SweepTable:
    """Sweep output: one report per (transmission, scheme), deterministic order."""

    rows: tuple[SecrecyReport, ...]

    @property
    def t_grid(self) -> tuple[float, ...]:
        """The rows' distinct transmissions, in row order: the sweep's grid."""
        return tuple(dict.fromkeys(r.transmission for r in self.rows))


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
    table. Each party is binned by one `party_bins` call per cell, at the
    deepest bit count of each positioning's group, so it is sorted once
    even when every scheme is equal-width, which needs no sort; the call
    also gives the party's symbol counts (see
    `party_bins`). A shallower depth is an exact right shift of those
    indices, so one `histograms_by_depth` chain of the group's bins gives
    each pair's histogram at every depth, and one the (A, B, E) histogram
    at each depth whose CMI is reported. Each pair's histogram gives the
    symbol MI and, in one `pair_label_counts` gather for every codebook at
    once, the counts of its labels' AND. With the parties' counts, one
    `label_bit_tables` call per depth turns these into all three pairs'
    per-bit 2x2 tables (each a marginal of its pair's joint, in integer
    counts below 2^53, so exact), and so every bitwise MI and BER.
    A binning failure names the party, its depth and the group (see `party_bins`).

    Every N-sample array dies at its last use, so a cell's peak is the
    largest set of arrays one step needs, not their sum: the realization is
    dropped on entry (a caller that holds it, as `evaluate_scheme`'s do,
    keeps its samples alive), each party's samples are handed to
    `party_bins`, which frees them once their sorted copy exists, and each
    group's bins go once that group is evaluated. Each histogram runs
    through the depths deepest first before the next is built, so one
    histogram is alive at a time (see `_evaluate_group`).
    """
    schemes = list(schemes)
    groups: dict[Positioning, list[SlicingScheme]] = {}
    for scheme in dict.fromkeys(schemes):  # distinct, so a depth has at most 3 numberings
        groups.setdefault(scheme.positioning, []).append(scheme)
    deepest = [max(group, key=lambda s: s.bits) for group in groups.values()]

    params = realization.params
    parties = {"alice": realization.alice, "bob": realization.bob, "eve": realization.eve}
    del realization
    by_party = [party_bins(parties, party, deepest) for party in ("alice", "bob", "eve")]
    binned = [list(group_binned) for group_binned in zip(*by_party)]  # per group, (A, B, E)
    del by_party
    reports: dict[SlicingScheme, SecrecyReport] = {}
    for group in groups.values():
        reports.update(_evaluate_group(params, binned.pop(0), group))
    return [reports[scheme] for scheme in schemes]


def _evaluate_group(
    p: ChannelParams, binned: list[tuple[np.ndarray, np.ndarray]], group: list[SlicingScheme]
) -> dict[SlicingScheme, SecrecyReport]:
    """Reports of one positioning's group of schemes.

    ``binned`` holds A's, B's and E's (bins, counts) at the group's deepest
    depth (see `party_bins`); a shallower depth's counts are block sums.
    Each histogram runs through the depths deepest first in one
    `histograms_by_depth` chain, and is done with before the next is
    built, so one histogram is alive at a time: the (A, B, E) histogram over
    the depths whose CMI is reported, then (A, B), (A, E) and (B, E) in turn,
    each giving its symbol MI and its `pair_label_counts` at every depth.
    One `label_bit_tables` call per depth then assembles the per-bit tables.
    """
    reports = {}
    (a, b, e), counts = zip(*binned)
    depths = sorted({s.bits for s in group}, reverse=True)
    deep = depths[0]
    # CMI is reported up to CMI_MAX_BITS bits per party, from one (A, B, E) chain.
    reported = [d for d in depths if d <= CMI_MAX_BITS]
    cmis = {d: plugin_mi(t) for d, t in histograms_by_depth((a, b, e), deep, reported)}

    at_depth = {bits: [s for s in group if s.bits == bits] for bits in depths}
    codebooks = {bits: [build_labels(s.numbering, bits) for s in at_depth[bits]]
                 for bits in depths}
    # Per pair, one (symbol MI, label counts) per depth, deepest first.
    by_pair = [[(plugin_mi(cells), pair_label_counts(cells, codebooks[bits]))
                for bits, cells in histograms_by_depth(pair, deep, depths)]
               for pair in ((a, b), (a, e), (b, e))]
    marginals = np.stack(counts)
    for bits, *at_pairs in zip(depths, *by_pair):
        marginals = marginals.reshape(3, 1 << bits, -1).sum(axis=2)
        cmi = cmis.get(bits)
        (i_ab_sym, i_ae_sym, i_be_sym), pair_labels = zip(*at_pairs)
        bit_tables = label_bit_tables(np.stack(pair_labels), marginals, codebooks[bits])
        bitwise_mi, ber = bitwise_mi_from_tables(bit_tables), bit_error_rate_from_tables(bit_tables)

        for k, scheme in enumerate(at_depth[bits]):
            i_ab, i_ae, i_be = (float(mi) for mi in bitwise_mi[:, k])
            ber_ab, ber_ae, ber_be = (float(rate) for rate in ber[:, k])
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
                cmi_ab_given_e=cmi,
                n=p.samples,
                seed=p.seed,
            )
    return reports


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
        # Name the failing cell as the CSV prints it.
        raise RuntimeError(f"T={FLOAT_FORMAT % t}: {exc}") from exc


def check_sweep(t_grid, schemes, base: ChannelParams, workers) -> None:
    """Reject a sweep's bad input before any cell runs; `sweep` calls this first.

    It rejects an empty grid, a transmission outside [0, 1] or a repeated
    row, then too few ``base.samples`` for the deepest scheme (see
    `check_sample_count`) and a ``workers`` count that fails `check_count`.
    Rows are keyed as the CSV prints them: by the transmission at
    FLOAT_FORMAT and the scheme's name, which is the whole scheme. Sweep
    streams are keyed by a cell's index in ``t_grid``, so a repeated
    transmission would also get a second realization.
    """
    if not t_grid:
        raise ValueError("empty transmission grid")
    if not schemes:
        raise ValueError("empty scheme list")
    for t in t_grid:
        check_transmission(t)
    _check_distinct("transmission", [float(FLOAT_FORMAT % t) for t in t_grid])
    _check_distinct("scheme", [str(scheme) for scheme in schemes])
    check_sample_count(base.samples, max(schemes, key=lambda scheme: scheme.bits))
    check_count("workers", workers)


def _check_distinct(kind: str, values) -> None:
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
    """Evaluate every scheme at every transmission of the grid.

    `check_sweep` rejects bad input first. Cells run on up to ``workers``
    processes: for more than one worker and more than one cell, where the
    platform has `os.fork`, the grid is cut into contiguous blocks of cells,
    one per forked child and never more than the cells (see
    `_forked_blocks`); otherwise the cells run in this process.

    Output is bit-identical for any worker count: each cell's random stream
    is keyed by the cell's index in ``t_grid``, and rows are assembled in
    (transmission, scheme) order. A failing cell raises a RuntimeError that
    names its transmission once, ``T=<t>: <error>``.
    """
    t_grid = list(t_grid)
    schemes = list(schemes)
    check_sweep(t_grid, schemes, base, workers)
    t_grid = [float(t) for t in t_grid]

    cells = [(base, t, i, schemes) for i, t in enumerate(t_grid)]
    if workers > 1 and len(cells) > 1 and hasattr(os, "fork"):
        rows = _forked_blocks(cells, min(workers, len(cells)))
    else:
        rows = [report for cell in cells for report in _sweep_cell(cell)]
    return SweepTable(rows=tuple(rows))


def _forked_blocks(cells: list[tuple], workers: int) -> list[SecrecyReport]:
    """The cells' rows in grid order, from ``workers`` forked children, one block each.

    Child k runs the contiguous block ``cells[k * n // workers:(k + 1) * n // workers]``
    of the n cells (block sizes differ by at most one) through this module's
    `_sweep_cell`, looked up in the child, so a wrapper installed on it runs
    there too. The parent runs no cell, so no cell's working set adds to its
    peak. It reads and reaps the children in block order, which is grid
    order, and raises at the first failed block, which holds the earliest
    failing cell, as a serial sweep would: a RuntimeError with that cell's
    message, or naming the block's transmissions if its child ended without
    reporting. However the parent leaves, every pipe is closed and each
    child not yet reaped is killed and reaped, so none outlives the call.
    """
    n = len(cells)
    blocks = [cells[k * n // workers:(k + 1) * n // workers] for k in range(workers)]
    pipes = []  # the read end of each child's pipe, in block order, recorded before its fork
    pids = []
    reaped = set()
    try:
        for block in blocks:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _report_block(block, write_fd)
            finally:
                os.close(write_fd)  # the child's copy is then the only one: its exit ends the pipe
            pids.append(pid)

        rows = []
        for block, pid, pipe in zip(blocks, pids, pipes):
            report = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            code = os.waitstatus_to_exitcode(status)
            if code or not report:
                where = ",".join(FLOAT_FORMAT % t for _, t, _, _ in block)
                how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
                raise RuntimeError(f"T={where}: sweep worker {how} before reporting")
            block_rows, message = pickle.loads(report)
            if message is not None:
                raise RuntimeError(message)
            rows += block_rows
        return rows
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid not in reaped:
                import signal  # on use: only a sweep that is left early kills its children

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _report_block(block: list[tuple], write_fd: int) -> None:
    """In a forked child: run the block's cells, send ``pickle.dumps((rows, message))``, leave.

    ``message`` is the text of the first failing cell's error (`_sweep_cell`
    raises RuntimeErrors that carry only it), else None. The child leaves by
    `os._exit`, whatever happens, so it never returns into its parent's code
    or runs its exit handlers; it exits 1 when it could not report.
    """
    status = 1
    try:
        rows, message = [], None
        try:
            for cell in block:
                rows += _sweep_cell(cell)
        except Exception as exc:
            message = str(exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps((rows, message)))
        status = 0
    finally:
        os._exit(status)


def post_exchange_conditions(
    realization: ChannelRealization, bits: int = 4
) -> dict[str, tuple[float, float]]:
    """Sanity check that the channel leaves everyone with usable information.

    Returns {name: (estimate, threshold)} for I(X;Y), I(X;Z) and I(X;Y|Z)
    on equal-probability symbol indices, the symbol MI and CMI of the
    ``eqprob:binary:<bits>`` report; the threshold is three times the
    plug-in bias oracle, so an estimate above it is genuinely positive
    rather than estimator bias. Raises AlphabetCapacityError where that
    report leaves I(X;Y|Z) out, above CMI_MAX_BITS bits.
    """
    scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, bits)
    report = evaluate_scheme(realization, scheme)
    if report.cmi_ab_given_e is None:
        raise AlphabetCapacityError(f"I(X;Y|Z) of {scheme} exceeds the CMI capacity")
    n = len(realization.alice)
    k = 1 << bits

    pair_bias = plugin_bias(k, k, n)
    cond_bias = plugin_bias(k, k, n, conditioning=k)
    return {
        "I(X;Y)": (report.i_ab_sym, 3 * pair_bias),
        "I(X;Z)": (report.i_ae_sym, 3 * pair_bias),
        "I(X;Y|Z)": (report.cmi_ab_given_e, 3 * cond_bias),
    }
