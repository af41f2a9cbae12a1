"""Plug-in (maximum likelihood) information estimators over discrete data.

All quantities are in bits (log base 2). Zero-count cells contribute zero.
No bias correction is applied; the known positive bias of the plug-in MI,
roughly (|A|-1)(|B|-1)/(2 N ln 2), is exposed as an oracle so tests and
sanity checks can bound it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .slicing import BitMatrix

# Largest 3-D joint histogram we are willing to allocate.
CMI_CELL_CAPACITY = 1 << 24


class AlphabetCapacityError(ValueError):
    """The requested joint histogram exceeds the in-memory cell budget."""


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


def _joint_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ka = int(a.max()) + 1
    kb = int(b.max()) + 1
    flat = np.bincount(a * kb + b, minlength=ka * kb)
    return flat.reshape(ka, kb)


def _mi_from_counts(counts: np.ndarray) -> float:
    n = counts.sum()
    p = counts / n
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    mask = p > 0
    terms = p[mask] * np.log2(p[mask] / (pa @ pb)[mask])
    # Summing in sorted order makes the result exactly symmetric in the
    # arguments (transposing the histogram permutes the same term multiset).
    terms.sort()
    # The estimate is a KL divergence, nonnegative up to float rounding.
    return max(0.0, float(terms.sum()))


def mutual_information_symbols(a: np.ndarray, b: np.ndarray) -> MIEstimate:
    """Plug-in I(A;B) over two equal-length index vectors."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if len(a) == 0:
        raise ValueError("empty input")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    counts = _joint_counts(a, b)
    return MIEstimate(
        value=_mi_from_counts(counts),
        alphabet_sizes=counts.shape,
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
    total = bitwise_mi_from_tables(
        _joint_counts(a.bits[:, j].astype(np.int64), b.bits[:, j].astype(np.int64))
        for j in range(a.n_bits)
    )
    return MIEstimate(value=total, alphabet_sizes=(2, 2), n=a.n_symbols)


def bitwise_mi_from_tables(tables) -> float:
    """Sum of the binary plug-in MI of each bit's 2x2 count table, in bit order.

    A table may drop an all-zero trailing row or column, as `_joint_counts`
    does for a constant bit; the estimate is the same to the last bit.
    """
    total = 0.0
    for counts in tables:
        total += _mi_from_counts(counts)
    return total


def joint_cells(x: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Sparse joint histogram of two index vectors over [0, k).

    Returns (x value, y value, count) for each occupied cell, at most
    min(N, k^2) of them.
    """
    codes, counts = np.unique(np.asarray(x, dtype=np.int64) * k + y, return_counts=True)
    return codes // k, codes % k, counts


def label_bit_tables(
    x: np.ndarray, y: np.ndarray, counts: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-bit 2x2 count tables of a labelled symbol pair, shape (b, 2, 2).

    ``x``, ``y`` and ``counts`` are a sparse joint histogram (see
    `joint_cells`); ``labels`` is the (2^b, b) label table. Entry [j, u, v]
    counts the samples whose first party's bit j is u and second's is v:
    each per-bit table is an exact marginal of the symbol joint.
    """
    lx, ly = labels[x], labels[y]
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
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    if not len(a) == len(b) == len(z):
        raise ValueError(f"length mismatch: {len(a)}, {len(b)}, {len(z)}")
    if len(a) == 0:
        raise ValueError("empty input")
    ka, kb, kz = (int(v.max()) + 1 for v in (a, b, z))
    if ka * kb * kz > CMI_CELL_CAPACITY:
        raise AlphabetCapacityError(
            f"joint histogram of {ka}x{kb}x{kz} cells exceeds capacity {CMI_CELL_CAPACITY}"
        )
    n = len(a)
    counts = np.bincount((a * kb + b) * kz + z, minlength=ka * kb * kz).reshape(ka, kb, kz)
    p = counts / n
    pz = p.sum(axis=(0, 1))            # p(z)
    paz = p.sum(axis=1)                # p(a,z)
    pbz = p.sum(axis=0)                # p(b,z)
    mask = p > 0
    num = pz[None, None, :] * p
    den = paz[:, None, :] * pbz[None, :, :]
    terms = p[mask] * np.log2(num[mask] / den[mask])
    return MIEstimate(
        value=max(0.0, float(terms.sum())),
        alphabet_sizes=(ka, kb, kz),
        n=n,
    )


def bit_error_rate(a: BitMatrix, b: BitMatrix) -> float:
    """Fraction of differing bits over all N*b positions."""
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"shape mismatch: {a.bits.shape} vs {b.bits.shape}")
    return float(np.mean(a.bits != b.bits))
