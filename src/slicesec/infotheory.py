"""Plug-in (maximum likelihood) information estimators over discrete data.

All quantities are in bits (log base 2). Every estimator reads one sparse
joint histogram, the occupied cells of `joint_cells`, and sums over those
cells only. A histogram (`JointCells`) holds one int64 code per occupied
cell, its coordinates packed b bits each with the first highest, so
ascending codes are row-major cell order, and every marginal is a shift
and a mask of the codes. One rule sizes every histogram's array
(`_dense`): an array over 2^w codes of n inputs is allocated when
2^w <= n. Other arrays indexed by code keep their own bounds: `plugin_mi`'s
marginals span at most 2^16 codes (one MAX_BITS index of a pair, or two
CMI_MAX_BITS indices of a triple), `label_bit_tables`' rows 2^MAX_BITS.
One builder, `_histogram`, packs field vectors into codes and counts them
by one of two algorithms, one per side of that rule: a dense
`np.bincount`, or an `np.sort` of the codes (int32 up to 31 bits), whose
runs of equal codes start where a code differs from the one before it.
`np.unique` is not used: it sorts the same way with more passes, and it
imports `numpy.ma`, about 13 ms in every fresh process.
`joint_cells` builds from bin indices, at the bit length of the largest;
`histograms_by_depth` yields the histograms of index vectors at each of
several depths, deepest first, each merged from the one above or counted
again. One term sum, `_term_sum`, adds the plug-in MI terms in sorted
order and clamps at 0 for `plugin_mi` and `plugin_mi_2x2`.
Every per-bit count is one exact float64 BLAS product of counts over 2^b
symbols with 0/1 labels (each party's symbol counts with each codebook's,
the pairs' AND-label counts with the binary codebook's): every partial sum
is an integer of at most N < 2^53. No bias correction is applied; the
known positive bias of the plug-in MI, roughly
(|A|-1)(|B|-1)/(2 N ln 2), is exposed as an oracle so tests and sanity
checks can bound it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .slicing import MAX_BITS, BitMatrix, LabelTable, Numbering, build_labels

# Deepest bits per index at which conditional MI is reported, where a triple's
# (x, z) marginal spans 2^16 codes; from b = 9 on, `cmi_ab_given_e` is empty.
CMI_MAX_BITS = MAX_BITS // 2


class AlphabetCapacityError(ValueError):
    """A triple's indices are wider than CMI_MAX_BITS bits."""


@dataclass(frozen=True)
class MIEstimate:
    """A plug-in mutual information estimate with its provenance."""

    value: float
    alphabet_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"mutual information cannot be negative, got {self.value}")


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def plugin_bias(alphabet_a: int, alphabet_b: int, n: int, conditioning: int = 1) -> float:
    """First-order positive bias of the plug-in MI (or CMI) estimate, in bits."""
    return conditioning * (alphabet_a - 1) * (alphabet_b - 1) / (2.0 * n * math.log(2.0))


@dataclass(frozen=True)
class JointCells:
    """A sparse joint histogram: one packed code per occupied cell, and its count.

    Each of the ``ndim`` coordinates takes ``bits`` bits of a cell's int64
    code, the first coordinate highest, so ascending codes are row-major cell
    order: (x, y) is ``x << bits | y`` and (x, y, z) is
    ``(x << bits | y) << bits | z``. ``codes`` ascend and ``counts`` are
    positive int64.
    """

    codes: np.ndarray
    counts: np.ndarray
    bits: int
    ndim: int

    def coordinate(self, i: int) -> np.ndarray:
        """Coordinate ``i`` of every occupied cell, in cell order."""
        return (self.codes >> ((self.ndim - 1 - i) * self.bits)) & ((1 << self.bits) - 1)


def joint_cells(*indices: np.ndarray) -> JointCells:
    """Sparse joint histogram of equal-length nonnegative index vectors.

    Each coordinate takes b bits, the bit length of the largest index; the
    caller keeps k b within 63 for k inputs (a bin index takes at most 16).
    There are at most min(N, 2^(k b)) occupied cells. `_histogram` packs
    and counts them.
    """
    return _histogram(indices, max(int(v.max()) for v in indices).bit_length())


def _histogram(fields: Iterable[np.ndarray], bits: int, weights=None) -> JointCells:
    """The histogram of equal-length field vectors, packed ``bits`` apiece, first highest.

    The fields are packed as they come, so a generator's fields are made
    one at a time; the first is copied, so a caller's vector is never
    shifted. A code space of no more codes than inputs (`_dense`) is
    counted by a dense `np.bincount`, each code adding its integer weight
    if ``weights`` (int64, passed only where `_dense` allows) are given;
    otherwise the codes are sorted, each adding one, and a run of equal
    codes starts where a code differs from the one before it.
    """
    fields = iter(fields)
    codes = next(fields).astype(np.int64)
    ndim = 1
    for v in fields:
        codes <<= bits
        codes |= v
        ndim += 1
    width = ndim * bits
    if _dense(width, len(codes)):
        dense = np.bincount(codes, weights=weights, minlength=1 << width)
        codes = np.flatnonzero(dense != 0)  # numpy finds nonzeros fastest in a bool array
        # Float sums of integer counts are exact, so the cast loses nothing.
        counts = dense[codes].astype(np.int64, copy=False)
    else:
        if width <= 31:
            codes = codes.astype(np.int32)  # 32-bit codes sort about twice as fast
        codes = np.sort(codes)
        starts = np.empty(len(codes), dtype=bool)
        starts[0] = True
        np.not_equal(codes[1:], codes[:-1], out=starts[1:])
        starts = np.flatnonzero(starts)
        codes, counts = codes[starts], np.diff(starts, append=len(codes))
    return JointCells(codes.astype(np.int64, copy=False), counts, bits, ndim)


def _dense(width: int, n: int) -> bool:
    """Whether an array over 2^width codes is allocated for n inputs: no more codes than inputs."""
    return 1 << width <= n


def histograms_by_depth(indices: Sequence[np.ndarray], bits: int, depths: Iterable[int]):
    """Yield (depth, histogram of the indices shifted right by ``bits - depth``), deepest first.

    ``indices`` are equal-length index vectors of at most ``bits`` bits and
    ``depths`` descend from at most ``bits``; every histogram packs its
    fields at its depth. The first, and each whose coarser code space
    holds more codes than the occupied cells above (`_dense`), is counted
    from the shifted indices: a histogram that sparse, nearly one cell per
    sample, gains nothing from its cells. Every other is merged from the
    cells above, at the cost of the occupied cells rather than of N:
    `_histogram` repacks each field of their codes at the shallower depth,
    one field at a time, weighted with their integer counts, densely.
    Counts are integers, so each histogram is the same however it was
    made. Each replaces the one above as soon as it exists, so the chain
    holds one at a time.
    """
    cells = None
    for depth in depths:
        if cells is None or not _dense(cells.ndim * depth, len(cells.codes)):
            fields = (v >> (bits - depth) for v in indices)
            cells = _histogram(fields, depth)
        else:
            shift, mask = cells.bits - depth, (1 << depth) - 1
            fields = ((cells.codes >> (i * cells.bits + shift)) & mask
                      for i in range(cells.ndim - 1, -1, -1))
            cells = _histogram(fields, depth, cells.counts)
        yield depth, cells


def plugin_mi(cells: JointCells) -> float:
    """Plug-in I(X;Y) of a pair histogram, or I(X;Y|Z) of a triple, from occupied cells.

    Each marginal is bincounted by its code, a shift and mask of the cell
    codes made in one reused buffer, and gathered back to the cells with
    ``np.take(..., mode="clip")``, which writes into ``out`` unbuffered. A
    triple of more than CMI_MAX_BITS bits raises AlphabetCapacityError, so
    no marginal spans more than 2^16 codes, a pair's being MAX_BITS wide.
    The ratio, its log and the terms share one array, computed in place;
    IEEE multiplication commutes, so each float is that of
    ``p * log2(p / (p_x * p_y))``, or of ``p_z * p / (p_yz * p_xz)`` inside
    the log of a triple.
    """
    codes, b = cells.codes, cells.bits
    if cells.ndim == 3 and b > CMI_MAX_BITS:
        raise AlphabetCapacityError(
            f"conditional MI is reported up to {CMI_MAX_BITS} bits per index, got {b}"
        )
    p = cells.counts / cells.counts.sum()

    def marginal(out=None) -> np.ndarray:
        return np.take(np.bincount(code, weights=p), code, out=out, mode="clip")

    low = (1 << b) - 1
    if cells.ndim == 2:
        code = codes >> b
        ratio = marginal()
        np.bitwise_and(codes, low, out=code)
        ratio *= marginal()
        np.divide(p, ratio, out=ratio)
    else:
        code = codes >> (2 * b) << b
        code |= codes & low  # the (x, z) code
        ratio = marginal()
        np.bitwise_and(codes, (1 << (2 * b)) - 1, out=code)  # (y, z)
        denominator = marginal()
        denominator *= ratio  # p_yz * p_xz
        code &= low  # z
        marginal(out=ratio)
        ratio *= p
        ratio /= denominator
    np.log2(ratio, out=ratio)
    ratio *= p
    return float(_term_sum(ratio))


def _term_sum(terms: np.ndarray) -> np.ndarray:
    """The plug-in MI of each row of ``terms``, sorted in place and summed over the last axis.

    The sorted sum is exactly symmetric in X and Y (swapping them permutes the
    same terms); a KL divergence, it is nonnegative up to rounding, so below 0 reads 0.
    """
    terms.sort()
    total = terms.sum(axis=-1)
    return np.where(total > 0.0, total, 0.0)


def plugin_mi_2x2(tables: np.ndarray) -> np.ndarray:
    """`plugin_mi` of each 2x2 count table of an (m, 2, 2) stack, bit for bit.

    The same operations as `plugin_mi` on a table's occupied cells, for all
    tables at once, ending in the same `_term_sum`: a zero cell adds 0.0 to
    its marginals and contributes a 0.0 term, and with at most four terms
    per table the sorted sum adds them left to right, so the zeros change
    no float.
    """
    p = tables / tables.sum(axis=(1, 2))[:, None, None]
    px = p[:, :, 0] + p[:, :, 1]
    py = p[:, 0, :] + p[:, 1, :]
    ratio = np.divide(p, px[:, :, None] * py[:, None, :], out=np.ones_like(p), where=p > 0)
    return _term_sum((p * np.log2(ratio)).reshape(-1, 4))


def _symbol_estimate(*vectors) -> MIEstimate:
    """`plugin_mi` of equal-length vectors of bin indices, integers in [0, 2^MAX_BITS).

    Each alphabet is one more than its vector's largest index.
    """
    vectors = [np.asarray(v) for v in vectors]
    if len({len(v) for v in vectors}) != 1:
        raise ValueError(f"length mismatch: {', '.join(str(len(v)) for v in vectors)}")
    if len(vectors[0]) == 0:
        raise ValueError("empty input")
    for v in vectors:
        if v.dtype.kind not in "biu":
            raise ValueError(f"index vectors must hold integers, got dtype {v.dtype}")
        lo, hi = int(v.min()), int(v.max())
        if lo < 0 or hi >> MAX_BITS:
            raise ValueError(f"bin indices must lie in [0, 2^{MAX_BITS}), got {lo if lo < 0 else hi}")
    vectors = [v.astype(np.int64) for v in vectors]
    return MIEstimate(plugin_mi(joint_cells(*vectors)), tuple(int(v.max()) + 1 for v in vectors))


def mutual_information_symbols(a: np.ndarray, b: np.ndarray) -> MIEstimate:
    """Plug-in I(A;B) over two equal-length bin-index vectors (see `_symbol_estimate`)."""
    return _symbol_estimate(a, b)


def mutual_information_bitwise(a: BitMatrix, b: BitMatrix) -> MIEstimate:
    """Sum over bit positions j of the binary plug-in I(A_j; B_j).

    This is the headline estimator: unlike symbol-level MI it is sensitive
    to the bin numbering, mirroring sliced reconciliation where each bit
    level is corrected as its own binary channel.
    """
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"shape mismatch: {a.bits.shape} vs {b.bits.shape}")
    # A plain loop: from Python 3.12 on, sum() compensates float rounding.
    total = 0.0
    for j in range(a.n_bits):
        total += plugin_mi(joint_cells(a.bits[:, j], b.bits[:, j]))
    return MIEstimate(value=total, alphabet_sizes=(2, 2))


def bitwise_mi_from_tables(tables: np.ndarray) -> np.ndarray:
    """Sum of the binary plug-in MI of each bit's 2x2 count table, in bit order.

    ``tables`` holds one codebook's per-bit tables, shape (b, 2, 2), or a
    stack of them, shape (..., b, 2, 2), as `label_bit_tables` returns; one
    `plugin_mi_2x2` call serves every table.
    Returns one float, or one per codebook, equal to `mutual_information_bitwise`.
    """
    per_bit = plugin_mi_2x2(tables.reshape(-1, 2, 2)).reshape(tables.shape[:-2])
    total = np.zeros(per_bit.shape[:-1])
    for j in range(per_bit.shape[-1]):  # bit order, one rounding per bit
        total += per_bit[..., j]
    return total[()]


def pair_label_counts(cells: JointCells, tables: Sequence[LabelTable]) -> np.ndarray:
    """Each codebook's counts of the AND of a pair's two labels, float64, shape (m, 2^b).

    ``cells`` is one pair's histogram at a depth (see `joint_cells`) and
    ``tables`` m <= 3 label codebooks of that depth. Entry [i, l] counts the
    samples whose two labels under codebook i AND to l, the label that is one
    where both bits are. A bin's m labels are packed b bits apiece into one
    int64 code, so one gather per coordinate and one AND over the occupied
    cells serve every codebook at once; each codebook's field is extracted,
    in place into one reused array, and histogrammed. `label_bit_tables`
    takes these rows, so no cell's label is expanded to b bits.
    """
    m, (k, b) = len(tables), tables[0].labels.shape
    packed = np.zeros(k, dtype=np.int64)
    for i, t in enumerate(tables):
        packed |= t.codes.astype(np.int64) << (i * b)
    anded = packed[cells.coordinate(0)]
    anded &= packed[cells.coordinate(1)]
    counts = cells.counts.astype(np.float64)
    label = np.empty_like(anded)
    rows = []
    for i in range(m):
        np.right_shift(anded, i * b, out=label)
        label &= k - 1
        rows.append(np.bincount(label, weights=counts, minlength=k))
    return np.stack(rows)


def label_bit_tables(pair_labels: np.ndarray, marginals: np.ndarray,
                     tables: Sequence[LabelTable]) -> np.ndarray:
    """Per-bit 2x2 count tables of three labelled parties' pairs, shape (3, m, b, 2, 2).

    ``pair_labels`` stacks the `pair_label_counts` of the (A, B), (A, E) and
    (B, E) histograms of one depth under ``tables``, m <= 3 label codebooks
    of that depth, shape (3, m, 2^b), and ``marginals`` the int64 symbol
    counts of A, B and E, shape (3, 2^b). Entry [p, i, j, u, v] counts the
    samples whose first party of pair p has bit j u under codebook i and
    whose second has v: each per-bit table is an exact marginal of the
    pair's symbol joint.

    Each party's ones under codebook i are its marginal times that
    codebook's labels, one product per codebook; the pairs' both-ones are
    their AND-label rows times the binary codebook's labels (`build_labels`,
    the bits of every b-bit label), by the module's one exact product rule.
    """
    marginals = marginals.astype(np.float64)
    ones = np.stack([marginals @ t.labels for t in tables], axis=1)
    binary = build_labels(Numbering.BINARY, tables[0].bits).labels
    # 2-D, as numpy runs a stacked product as one BLAS call per pair.
    both = (pair_labels.reshape(-1, len(binary)) @ binary).reshape(ones.shape)
    first, second = ones[[0, 0, 1]], ones[[1, 2, 2]]  # the parties of (A, B), (A, E), (B, E)
    n = marginals[0].sum()
    return np.stack(
        [n - first - second + both, second - both, first - both, both], axis=-1
    ).astype(np.int64).reshape(*both.shape, 2, 2)


def bit_error_rate_from_tables(tables: np.ndarray) -> np.ndarray:
    """Fraction of differing bits over all N*b positions, from per-bit tables.

    ``tables`` are one codebook's, shape (b, 2, 2), or a stack (..., b, 2, 2) as
    `label_bit_tables` returns; one float per codebook, each count below 2^53.
    """
    errors = (tables[..., 0, 1] + tables[..., 1, 0]).sum(axis=-1)
    return (errors / tables.sum(axis=(-3, -2, -1)))[()]


def conditional_mi(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> MIEstimate:
    """Plug-in I(A;B|Z) from the 3-way joint histogram (see `_symbol_estimate`).

    Raises AlphabetCapacityError, from `plugin_mi`, for an index of more
    than CMI_MAX_BITS bits.
    """
    return _symbol_estimate(a, b, z)


def bit_error_rate(a: BitMatrix, b: BitMatrix) -> float:
    """Fraction of differing bits over all N*b positions."""
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"shape mismatch: {a.bits.shape} vs {b.bits.shape}")
    return float(np.mean(a.bits != b.bits))
