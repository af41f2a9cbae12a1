"""Quantization of continuous samples into labeled bit strings.

A slicing scheme is (bin positioning, bin numbering, bits per symbol).
Positioning places the 2^b - 1 interior boundaries either uniformly over a
sigma-multiple range (equal width) or at empirical quantiles (equal
probability). Numbering maps each bin index to a b-bit label: plain binary,
reflected Gray, or a Fibonacci LFSR sequence whose adjacent labels differ in
many bits. Each party slices its own received samples; no cross-party data
enters boundary computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Positioning(str, Enum):
    EQUAL_WIDTH = "eqwidth"
    EQUAL_PROBABILITY = "eqprob"


class Numbering(str, Enum):
    BINARY = "binary"
    GRAY = "gray"
    FLFSR = "flfsr"


MAX_BITS = 16  # bin indices are stored as uint16 (see bin_indices)


@dataclass(frozen=True)
class SlicingScheme:
    positioning: Positioning
    numbering: Numbering
    bits: int
    width_multiplier: float = 3.0

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must lie in [1, {MAX_BITS}], got {self.bits}")
        if not 0 < self.width_multiplier < math.inf:
            raise ValueError(
                f"width_multiplier must be positive and finite, got {self.width_multiplier}"
            )

    @property
    def n_bins(self) -> int:
        return 1 << self.bits

    def __str__(self) -> str:
        return f"{self.positioning.value}:{self.numbering.value}:{self.bits}"

    @classmethod
    def parse(cls, text: str, width_multiplier: float = 3.0) -> "SlicingScheme":
        """Parse the "<positioning>:<numbering>:<bits>" scheme string."""
        parts = text.strip().lower().split(":")
        if len(parts) != 3:
            raise ValueError(
                f"scheme string must be '<positioning>:<numbering>:<bits>', got {text!r}"
            )
        pos_token, num_token, bits_token = parts
        try:
            positioning = Positioning(pos_token)
        except ValueError:
            raise ValueError(f"unknown positioning {pos_token!r} in {text!r}") from None
        try:
            numbering = Numbering(num_token)
        except ValueError:
            raise ValueError(f"unknown numbering {num_token!r} in {text!r}") from None
        try:
            bits = int(bits_token)
        except ValueError:
            raise ValueError(f"bits field {bits_token!r} in {text!r} is not an integer") from None
        return cls(positioning, numbering, bits, width_multiplier)


@dataclass(frozen=True)
class BinEdges:
    """Strictly increasing interior boundaries defining half-open cells.

    Cell j covers [e_j, e_{j+1}) with e_0 = -inf and the last cell unbounded
    above; a value equal to a boundary falls in the higher cell.
    """

    boundaries: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 1 or len(b) < 1:
            raise ValueError("boundaries must be a nonempty 1-D vector")
        if not np.all(np.diff(b) > 0):
            raise ValueError("boundaries must be strictly increasing")
        b.setflags(write=False)
        object.__setattr__(self, "boundaries", b)

    @property
    def n_bins(self) -> int:
        return len(self.boundaries) + 1


@dataclass(frozen=True)
class LabelTable:
    """Bin index -> b-bit label codebook.

    ``labels`` has shape (2^b, b), one row per bin, most significant bit
    first. Binary and Gray tables are bijections; F-LFSR tables may repeat
    labels (the register period can fall short of 2^b and never emits the
    all-zero word), which is tracked by ``collisions``.
    """

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels, dtype=np.uint8)
        n, b = arr.shape
        if n != 1 << b:
            raise ValueError(f"label table must have 2^{b} rows, got {n}")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def bits(self) -> int:
        return self.labels.shape[1]

    @property
    def collisions(self) -> int:
        """Number of bins sharing a label with an earlier bin."""
        distinct = len(np.unique(self.labels, axis=0))
        return self.labels.shape[0] - distinct

    def as_strings(self) -> list[str]:
        return ["".join(str(bit) for bit in row) for row in self.labels]


@dataclass(frozen=True)
class BitMatrix:
    """Sliced output of one party: N symbols expanded to N x b bits."""

    bits: np.ndarray
    symbol_index: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.uint8)
        idx = np.asarray(self.symbol_index)
        if bits.ndim != 2:
            raise ValueError("bits must be an N x b matrix")
        if len(idx) != bits.shape[0]:
            raise ValueError("symbol_index length must equal the bit row count")
        bits.setflags(write=False)
        idx.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "symbol_index", idx)

    @property
    def n_symbols(self) -> int:
        return self.bits.shape[0]

    @property
    def n_bits(self) -> int:
        return self.bits.shape[1]


def compute_edges(samples: np.ndarray, scheme: SlicingScheme) -> BinEdges:
    """Place the 2^b - 1 interior boundaries from this party's own samples."""
    samples = np.asarray(samples, dtype=float)
    n_bins = scheme.n_bins
    if len(samples) < n_bins:
        raise ValueError(
            f"need at least {n_bins} samples to place {n_bins} bins, got {len(samples)}"
        )
    std = samples.std()
    if not np.isfinite(std):
        raise ValueError("samples must be finite")
    if std == 0.0:
        raise ValueError("degenerate samples: zero variance")

    if scheme.positioning is Positioning.EQUAL_WIDTH:
        mean = samples.mean()
        k = scheme.width_multiplier
        lo = mean - k * std
        step = 2.0 * k * std / n_bins
        boundaries = lo + step * np.arange(1, n_bins)
    else:
        # np.quantile(samples, q, method="linear") bit for bit, from one sort
        # (numpy partitions around every requested order statistic, which
        # takes seconds once 2^b nears N). Its virtual index n q + (1 - q) - 1
        # is exactly (n - 1) q here because q = i / 2^b is dyadic, and q < 1
        # keeps lower + 1 <= n - 1. The two-sided lerp is numpy's own.
        ordered = np.sort(samples)
        h = (len(ordered) - 1) * (np.arange(1, n_bins) / n_bins)
        lower = np.floor(h)
        gamma = h - lower
        a = ordered[lower.astype(np.intp)]
        b = ordered[lower.astype(np.intp) + 1]
        boundaries = np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)
        if not np.all(np.diff(boundaries) > 0):
            raise ValueError(
                "quantile boundaries are not strictly increasing (heavy ties in samples)"
            )
    return BinEdges(boundaries)


def assign_bins(samples: np.ndarray, edges: BinEdges) -> np.ndarray:
    """Map each value to its bin index; boundary values go to the higher bin."""
    samples = np.asarray(samples, dtype=float)
    if np.isnan(samples).any():
        raise ValueError("samples contain NaN")
    return np.searchsorted(edges.boundaries, samples, side="right")


def bin_indices(samples: np.ndarray, scheme: SlicingScheme) -> np.ndarray:
    """Bin indices of one party's samples under ``scheme``, as uint16.

    uint16 holds every index up to MAX_BITS = 16. The indices at any
    shallower depth b of the same positioning and width multiplier are an
    exact right shift, ``bin_indices(samples, scheme) >> (scheme.bits - b)``:
    the equal-width step 2 k std / 2^b and the equal-probability quantile
    levels i / 2^b differ from the deeper depth's only by a power of two,
    which floating point scales exactly, so the shallower boundaries are the
    same floats as every 2^(bits - b)-th deeper boundary.
    """
    return assign_bins(samples, compute_edges(samples, scheme)).astype(np.uint16)


def build_labels(numbering: Numbering, b: int) -> LabelTable:
    """Build the 2^b-entry codebook for the given numbering method."""
    if not 1 <= b <= MAX_BITS:
        raise ValueError(f"b must lie in [1, {MAX_BITS}], got {b}")
    n = 1 << b

    if numbering is Numbering.BINARY:
        codes = np.arange(n, dtype=np.uint32)
        labels = _codes_to_bits(codes, b)
    elif numbering is Numbering.GRAY:
        codes = np.arange(n, dtype=np.uint32)
        labels = _codes_to_bits(codes ^ (codes >> 1), b)
    else:
        labels = np.empty((n, b), dtype=np.uint8)
        reg = np.zeros(b, dtype=np.uint8)
        reg[-1] = 1  # '0...01'
        for i in range(n):
            labels[i] = reg
            fed = reg[-1] ^ reg[-2] if b >= 2 else reg[-1]
            reg = np.concatenate(([fed], reg[:-1]))
    return LabelTable(labels)


def _codes_to_bits(codes: np.ndarray, b: int) -> np.ndarray:
    shifts = np.arange(b - 1, -1, -1, dtype=np.uint32)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def slice_samples(samples: np.ndarray, scheme: SlicingScheme) -> BitMatrix:
    """Full pipeline: edges from these samples, bin assignment, labeling."""
    edges = compute_edges(samples, scheme)
    idx = assign_bins(samples, edges)
    table = build_labels(scheme.numbering, scheme.bits)
    return BitMatrix(bits=table.labels[idx], symbol_index=idx)
