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

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import check_integer, check_positive_finite


class Positioning(str, Enum):
    EQUAL_WIDTH = "eqwidth"
    EQUAL_PROBABILITY = "eqprob"


class Numbering(str, Enum):
    BINARY = "binary"
    GRAY = "gray"
    FLFSR = "flfsr"


MAX_BITS = 16  # bin indices are stored as uint16 (see party_bins)


def _bit_count(value, name: str) -> int:
    """``value`` as an int in [1, MAX_BITS]; a float or a bool is no bit count."""
    check_integer(name, value)
    if not 1 <= value <= MAX_BITS:
        raise ValueError(f"{name} must lie in [1, {MAX_BITS}], got {value}")
    return int(value)


@dataclass(frozen=True)
class SlicingScheme:
    positioning: Positioning
    numbering: Numbering
    bits: int
    width_multiplier: float = 3.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "positioning", Positioning(self.positioning))
        object.__setattr__(self, "numbering", Numbering(self.numbering))
        object.__setattr__(self, "bits", _bit_count(self.bits, "bits"))
        check_positive_finite("width_multiplier", self.width_multiplier)

    @property
    def n_bins(self) -> int:
        return 1 << self.bits

    def __str__(self) -> str:
        return f"{self.positioning.value}:{self.numbering.value}:{self.bits}"

    @classmethod
    def parse(cls, text: str) -> "SlicingScheme":
        """Parse the "<positioning>:<numbering>:<bits>" scheme string."""
        parts = text.strip().lower().split(":")
        if len(parts) != 3:
            raise ValueError(
                f"scheme string must be '<positioning>:<numbering>:<bits>', got {text!r}"
            )
        positioning, numbering, bits_token = parts
        try:
            bits = int(bits_token)
        except ValueError:
            raise ValueError(f"bits field {bits_token!r} in {text!r} is not an integer") from None
        try:
            return cls(positioning, numbering, bits)
        except ValueError as exc:
            raise ValueError(f"{exc} in {text!r}") from None


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


@dataclass(frozen=True)
class LabelTable:
    """Bin index -> b-bit label codebook, as integer codes and as bits.

    ``codes`` holds each of the 2^b bins' label as a b-bit integer;
    ``labels`` is the same codebook expanded to shape (2^b, b), one row per
    bin, most significant bit first. Both are read-only. Binary and Gray
    tables are bijections; F-LFSR tables may repeat labels (the register
    period can fall short of 2^b and never emits the all-zero word), which
    is tracked by ``collisions``.
    """

    codes: np.ndarray
    bits: int
    labels: np.ndarray = field(init=False, repr=False)
    collisions: int = field(init=False)  # bins sharing a label with an earlier bin

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        n = 1 << self.bits
        if codes.shape != (n,) or not (0 <= codes.min() and codes.max() < n):
            raise ValueError(f"label table must hold 2^{self.bits} codes in [0, {n})")
        labels = _codes_to_bits(codes, self.bits)
        for arr in (codes, labels):
            arr.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "collisions", n - np.count_nonzero(np.bincount(codes)))

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
    # Non-finite and constant samples show at the samples' ends (a float std
    # of constant samples need not be 0): np.min and np.max propagate a NaN,
    # and a NaN sorts last. Samples that arrive sorted, as `party_bins`
    # passes them, are not sorted again.
    by_width = scheme.positioning is Positioning.EQUAL_WIDTH
    if by_width:
        smallest, largest = samples.min(), samples.max()
    else:
        ordered = samples if np.all(samples[1:] >= samples[:-1]) else np.sort(samples)
        smallest, largest = ordered[0], ordered[-1]
    if not (np.isfinite(smallest) and np.isfinite(largest)):
        raise ValueError("samples must be finite")
    if smallest == largest:
        raise ValueError("degenerate samples: zero variance")

    if by_width:
        k = scheme.width_multiplier
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            std = samples.std()
            lo = samples.mean() - k * std
            step = 2.0 * k * std / n_bins
            boundaries = lo + step * np.arange(1, n_bins)
        if not np.all(np.isfinite(boundaries)):
            raise ValueError(f"equal-width boundaries overflow a float (std {std:.3g})")
    else:
        # np.quantile(samples, q, method="linear") bit for bit, from one sort
        # (numpy partitions around every requested order statistic, which
        # takes seconds once 2^b nears N). Its virtual index n q + (1 - q) - 1
        # is exactly (n - 1) q here because q = i / 2^b is dyadic, and q < 1
        # keeps lower + 1 <= n - 1. The two-sided lerp is numpy's own.
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

    The one-scheme call of `party_bins`, which states the bin rule; its
    failures end ``(party at <b> bits, ...)``. uint16 holds every index up
    to MAX_BITS = 16. The indices at any shallower depth b of the same
    positioning and width multiplier are an exact right shift,
    ``bin_indices(samples, scheme) >> (scheme.bits - b)``: the equal-width
    step 2 k std / 2^b and the equal-probability quantile levels i / 2^b
    differ from the deeper depth's only by a power of two, which floating
    point scales exactly, so the shallower boundaries are the same floats as
    every 2^(bits - b)-th deeper boundary.
    """
    return party_bins({"party": samples}, "party", [scheme])[0][0]


def party_bins(
    parties: dict[str, np.ndarray], party: str, schemes: list[SlicingScheme]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (bins, counts) of ``parties[party]`` under each of ``schemes``, in order.

    This is the bin rule, and every binning in the package runs through it.
    The party's samples are sorted once, by one `np.argsort`, and gathered
    once into a sorted copy. Each scheme's bins, uint16, equal
    ``assign_bins(samples, compute_edges(samples, scheme))``, without its
    binary search per sample: they are read off the ranks of that one sort
    (see `_ranked_bins`). So are its counts, the party's symbol counts
    ``np.bincount(bins, minlength=2^b)``: each is a bin's run of ranks, and
    no other code of a sweep counts a party's symbols. Equal-width edges
    read mean and std from the samples in their own order, since a sum's
    last bits depend on the order of its terms, and are placed before the
    sort; equal-probability edges depend only on the sorted values, so they
    read the sorted copy, scheme by scheme as each is binned.
    `compute_edges` is called once per scheme, through this module, where
    `bench/tracing.py` wraps it.

    The samples are handed over: they are popped from ``parties``, so that
    they die once their sorted copy exists whatever the caller holds, and
    the sort and the sorted copy die on return. A failure names the party,
    the depth and the scheme's (positioning, width multiplier) group,
    ``<error> (<party> at <b> bits, in <positioning> group, width <k>)``.
    """
    samples = np.asarray(parties.pop(party), dtype=float)

    def edges(values: np.ndarray, scheme: SlicingScheme) -> BinEdges:
        try:
            return compute_edges(values, scheme)
        except ValueError as exc:
            raise ValueError(
                f"{exc} ({party} at {scheme.bits} bits, in {scheme.positioning.value} group,"
                f" width {scheme.width_multiplier:g})"
            ) from exc

    by_width = [edges(samples, scheme) if scheme.positioning is Positioning.EQUAL_WIDTH
                else None for scheme in schemes]
    order = np.argsort(samples)
    ordered = samples[order]
    del samples
    return [_ranked_bins(order, ordered, edges(ordered, scheme) if placed is None else placed)
            for scheme, placed in zip(schemes, by_width)]


def _ranked_bins(
    order: np.ndarray, ordered: np.ndarray, edges: BinEdges
) -> tuple[np.ndarray, np.ndarray]:
    """`assign_bins` of the samples whose sorting permutation is ``order``, and its counts.

    ``ordered`` is the sorted copy ``samples[order]`` (see `party_bins`).
    One search per boundary finds the rank at which its bin starts. The
    first sample not below a boundary starts the higher bin, so a sample
    equal to a boundary goes to the higher bin, as in `assign_bins`. Each
    run of ranks between two starts is one bin, written back to the
    samples' original positions; its length is the bin's count.
    """
    starts = np.searchsorted(ordered, edges.boundaries, side="left")
    runs = np.diff(starts, prepend=0, append=len(ordered))
    idx = np.empty(len(ordered), dtype=np.uint16)
    idx[order] = np.repeat(np.arange(len(runs), dtype=np.uint16), runs)
    return idx, runs


def build_labels(numbering: Numbering, b: int) -> LabelTable:
    """The 2^b-entry codebook of a numbering, built once per process and shared.

    Bin i's code is i (binary), i ^ (i >> 1) (Gray), or the i-th state of a
    b-bit Fibonacci register from 0...01 that shifts right, feeding the XOR
    of its two lowest bits into the top bit (F-LFSR).
    """
    # Checked before the cache, which would serve b = 4.0 from the entry of 4.
    return _label_table(Numbering(numbering), _bit_count(b, "b"))


@functools.cache
def _label_table(numbering: Numbering, b: int) -> LabelTable:
    i = np.arange(1 << b)
    if numbering is Numbering.BINARY:
        codes = i
    elif numbering is Numbering.GRAY:
        codes = i ^ (i >> 1)
    else:
        states, s = [], 1
        for _ in range(1 << b):
            states.append(s)
            s = (s >> 1) | (((s ^ (s >> 1)) & 1) << (b - 1))
        codes = np.array(states)
    return LabelTable(codes, b)


def _codes_to_bits(codes: np.ndarray, b: int) -> np.ndarray:
    shifts = np.arange(b - 1, -1, -1)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def slice_samples(samples: np.ndarray, scheme: SlicingScheme) -> BitMatrix:
    """Full pipeline: edges from these samples, bin assignment, labeling."""
    edges = compute_edges(samples, scheme)
    idx = assign_bins(samples, edges)
    table = build_labels(scheme.numbering, scheme.bits)
    return BitMatrix(bits=table.labels[idx], symbol_index=idx)
