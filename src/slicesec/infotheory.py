"""Plug-in (maximum likelihood) information estimators over discrete data.

All quantities are in bits (log base 2). Every estimator reads one sparse
joint histogram, the occupied cells of `joint_cells`, and sums over those
cells only, so no estimator allocates an array whose size is a product of
alphabet sizes. No bias correction is applied; the known positive bias of
the plug-in MI, roughly (|A|-1)(|B|-1)/(2 N ln 2), is exposed as an oracle
so tests and sanity checks can bound it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .slicing import BitMatrix

# Largest ka x kb x kz alphabet for which conditional MI is reported. It is an
# output rule, not a memory bound (only occupied cells are held): above it,
# from b = 9 bits per party on, the sweep CSV leaves `cmi_ab_given_e` empty.
CMI_CELL_CAPACITY = 1 << 24


class AlphabetCapacityError(ValueError):
    """The 3-way alphabet exceeds CMI_CELL_CAPACITY cells."""


@dataclass(frozen=True)
class MIEstimate:
    """A plug-in mutual information estimate with its provenance."""

    value: float
    alphabet_sizes: tuple[int, ...]
    n: int

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


def entropy(pmf: np.ndarray) -> float:
    """Shannon entropy of a probability vector, in bits."""
    p = np.asarray(pmf, dtype=float)
    if (p < 0).any():
        raise ValueError("probabilities must be nonnegative")
    total = p.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1, got {total}")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def plugin_bias(alphabet_a: int, alphabet_b: int, n: int, conditioning: int = 1) -> float:
    """First-order positive bias of the plug-in MI (or CMI) estimate, in bits."""
    return conditioning * (alphabet_a - 1) * (alphabet_b - 1) / (2.0 * n * math.log(2.0))


def joint_cells(*indices: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Sparse joint histogram of equal-length nonnegative index vectors.

    Returns the coordinates of each occupied cell, one array per input in
    row-major cell order, and each cell's count. There are at most
    min(N, product of alphabet sizes) cells.
    """
    shape = tuple(int(v.max()) + 1 for v in indices)
    codes = np.ravel_multi_index(indices, shape)
    if math.prod(shape) <= 1 << 31:
        codes = codes.astype(np.int32)  # 32-bit codes sort about twice as fast
    codes, counts = np.unique(codes, return_counts=True)
    return np.unravel_index(codes, shape), counts


def plugin_mi(coords: tuple[np.ndarray, ...], counts: np.ndarray) -> float:
    """Plug-in I(X;Y), or I(X;Y|Z) given a third coordinate, from occupied cells.

    ``coords`` and ``counts`` are a sparse joint histogram (see `joint_cells`).
    Each marginal is accumulated over the cells in row-major order.
    """
    p = counts / counts.sum()

    def marginal(code: np.ndarray) -> np.ndarray:
        return np.bincount(code, weights=p)[code]

    if len(coords) == 2:
        ratio = p / (marginal(coords[0]) * marginal(coords[1]))
    else:
        x, y, z = coords
        # Number the occupied (x, z) and (y, z) pairs densely, so that no
        # marginal spans a product of alphabet sizes.
        kz = int(z.max()) + 1
        xz, yz = (np.unique(v * kz + z, return_inverse=True)[1] for v in (x, y))
        ratio = marginal(z) * p / (marginal(xz) * marginal(yz))
    terms = p * np.log2(ratio)
    # Summing in sorted order makes the result exactly symmetric in X and Y
    # (swapping them permutes the same term multiset).
    terms.sort()
    # The estimate is a KL divergence, nonnegative up to float rounding.
    return max(0.0, float(terms.sum()))


def _index_vectors(*vectors) -> list[np.ndarray]:
    vectors = [np.asarray(v, dtype=np.int64) for v in vectors]
    if len({len(v) for v in vectors}) != 1:
        raise ValueError(f"length mismatch: {', '.join(str(len(v)) for v in vectors)}")
    if len(vectors[0]) == 0:
        raise ValueError("empty input")
    return vectors


def mutual_information_symbols(a: np.ndarray, b: np.ndarray) -> MIEstimate:
    """Plug-in I(A;B) over two equal-length index vectors."""
    a, b = _index_vectors(a, b)
    return MIEstimate(
        value=plugin_mi(*joint_cells(a, b)),
        alphabet_sizes=(int(a.max()) + 1, int(b.max()) + 1),
        n=len(a),
    )


def mutual_information_bitwise(a: BitMatrix, b: BitMatrix) -> MIEstimate:
    """Sum over bit positions j of the binary plug-in I(A_j; B_j).

    This is the headline estimator: unlike symbol-level MI it is sensitive
    to the bin numbering, mirroring sliced reconciliation where each bit
    level is corrected as its own binary channel.
    """
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"shape mismatch: {a.bits.shape} vs {b.bits.shape}")
    total = _sum_over_bits(joint_cells(a.bits[:, j], b.bits[:, j]) for j in range(a.n_bits))
    return MIEstimate(value=total, alphabet_sizes=(2, 2), n=a.n_symbols)


def bitwise_mi_from_tables(tables: np.ndarray) -> float:
    """Sum of the binary plug-in MI of each bit's 2x2 count table, in bit order."""
    return _sum_over_bits((np.nonzero(t), t[np.nonzero(t)]) for t in tables)


def _sum_over_bits(per_bit_cells) -> float:
    """Sum of the plug-in MI of each bit's sparse joint histogram, in bit order."""
    # A plain loop: from Python 3.12 on, sum() compensates float rounding.
    total = 0.0
    for coords, counts in per_bit_cells:
        total += plugin_mi(coords, counts)
    return total


def label_bit_tables(
    coords: tuple[np.ndarray, np.ndarray], counts: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-bit 2x2 count tables of a labelled symbol pair, shape (b, 2, 2).

    ``coords`` and ``counts`` are a sparse joint histogram of two parties
    (see `joint_cells`); ``labels`` is the (2^b, b) label table. Entry
    [j, u, v] counts the samples whose first party's bit j is u and second's
    is v: each per-bit table is an exact marginal of the symbol joint.
    """
    lx, ly = labels[coords[0]], labels[coords[1]]
    n = counts.sum()
    ones_x = counts @ lx
    ones_y = counts @ ly
    both = counts @ (lx & ly)
    return np.stack(
        [n - ones_x - ones_y + both, ones_y - both, ones_x - both, both], axis=1
    ).reshape(-1, 2, 2)


def bit_error_rate_from_tables(tables: np.ndarray) -> float:
    """Fraction of differing bits over all N*b positions, from `label_bit_tables`."""
    return int(tables[:, 0, 1].sum() + tables[:, 1, 0].sum()) / int(tables.sum())


def conditional_mi(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> MIEstimate:
    """Plug-in I(A;B|Z) from the 3-way joint histogram."""
    a, b, z = _index_vectors(a, b, z)
    sizes = tuple(int(v.max()) + 1 for v in (a, b, z))
    if math.prod(sizes) > CMI_CELL_CAPACITY:
        raise AlphabetCapacityError(
            f"joint alphabet of {'x'.join(map(str, sizes))} cells exceeds capacity"
            f" {CMI_CELL_CAPACITY}"
        )
    return MIEstimate(value=plugin_mi(*joint_cells(a, b, z)), alphabet_sizes=sizes, n=len(a))


def bit_error_rate(a: BitMatrix, b: BitMatrix) -> float:
    """Fraction of differing bits over all N*b positions."""
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"shape mismatch: {a.bits.shape} vs {b.bits.shape}")
    return float(np.mean(a.bits != b.bits))
