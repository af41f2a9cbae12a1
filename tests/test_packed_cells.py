"""The packed-code histogram kernels against the coordinate-tuple kernels they replaced.

`oracle_joint_cells`, `oracle_coarsen_cells` and `oracle_plugin_mi` are the
earlier implementations, which numbered each cell with `np.ravel_multi_index`
over the alphabet sizes (max + 1 per coordinate) and returned one coordinate
array per input. The packed kernels, `joint_cells` and the
`histograms_by_depth` chain, must give the same cells, the same counts and
the same floats, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicesec import infotheory
from slicesec.infotheory import (
    CMI_MAX_BITS, AlphabetCapacityError, histograms_by_depth, joint_cells, plugin_mi,
)


def oracle_joint_cells(*indices, weights=None):
    shape = tuple(int(v.max()) + 1 for v in indices)
    codes = np.ravel_multi_index(indices, shape)
    size = math.prod(shape)
    if size <= (1 if weights is None else 2) * len(codes):
        dense = np.bincount(codes, weights=weights, minlength=size)
        codes = np.flatnonzero(dense)
        counts = dense[codes]
    else:
        if size <= 1 << 31:
            codes = codes.astype(np.int32)
        if weights is None:
            codes, counts = np.unique(codes, return_counts=True)
        else:
            codes, inverse = np.unique(codes, return_inverse=True)
            counts = np.bincount(inverse, weights=weights)
    if weights is not None:
        counts = counts.astype(np.int64)
    return np.unravel_index(codes, shape), counts


def oracle_coarsen_cells(coords, counts, shift):
    if shift == 0:
        return coords, counts
    return oracle_joint_cells(*(c >> shift for c in coords), weights=counts)


def oracle_plugin_mi(coords, counts):
    p = counts / counts.sum()

    def marginal(code):
        return np.bincount(code, weights=p)[code]

    if len(coords) == 2:
        ratio = p / (marginal(coords[0]) * marginal(coords[1]))
    else:
        x, y, z = coords
        kz = int(z.max()) + 1
        ratio = marginal(z) * p / (
            marginal(oracle_pair_code(x, z, kz)) * marginal(oracle_pair_code(y, z, kz))
        )
    terms = p * np.log2(ratio)
    terms.sort()
    return max(0.0, float(terms.sum()))


def oracle_pair_code(v, z, kz):
    code = v * kz + z
    if (int(v.max()) + 1) * kz > len(code):
        code = np.unique(code, return_inverse=True)[1]
    return code


def assert_cells_equal_oracle(cells, oracle):
    coords, counts = oracle
    assert cells.ndim == len(coords)
    assert cells.codes.dtype == np.int64 and (np.diff(cells.codes) > 0).all()
    for i, expected in enumerate(coords):
        assert np.array_equal(cells.coordinate(i), expected)
    assert cells.counts.dtype == np.int64 and np.array_equal(cells.counts, counts)


def chain(indices, bits, *depths):
    """The histograms `histograms_by_depth` yields at the distinct ``depths``, deepest first.

    Each packs its fields at its depth, whatever the largest index.
    """
    depths = sorted(set(depths), reverse=True)
    histograms = list(histograms_by_depth(indices, bits, depths))
    assert [depth for depth, _ in histograms] == depths
    for depth, cells in histograms:
        assert (cells.bits, cells.ndim) == (depth, len(indices))
    return [cells for _, cells in histograms]


def assert_same_histogram(got, expected):
    assert (got.bits, got.ndim) == (expected.bits, expected.ndim)
    assert np.array_equal(got.codes, expected.codes)
    assert np.array_equal(got.counts, expected.counts)


def assert_plugin_mi_equals_oracle(cells, oracle):
    """`plugin_mi` equals the oracle's bit for bit; a triple above CMI_MAX_BITS raises."""
    if cells.ndim == 3 and cells.bits > CMI_MAX_BITS:
        with pytest.raises(AlphabetCapacityError):
            plugin_mi(cells)
    else:
        assert plugin_mi(cells) == oracle_plugin_mi(*oracle)


@st.composite
def histograms(draw):
    """Index vectors of k parties at b bits, n of them.

    `joint_cells` counts the packed code space 2^(k b) densely from
    n = 2^(k b) on. The n drawn up to 3000 fall on either side of that
    limit for small code spaces; where the code space is 2^18, n is also
    drawn on either side of it.
    """
    k = draw(st.sampled_from([2, 3]))
    bits = draw(st.integers(min_value=1, max_value=16))
    size = 1 << (k * bits)
    if size == 1 << 18 and draw(st.booleans()):
        n = draw(st.sampled_from([size - 1, size]))
    else:
        n = draw(st.integers(min_value=1, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    top = (1 << bits) - 1
    spread = draw(st.sampled_from([1, 3, top + 1]))
    x = rng.integers(0, top + 1, size=n)
    x[0] = top  # packed at b bits; the oracle's other alphabets may be smaller
    indices = [x] + [(x + rng.integers(0, spread, size=n)) & top for _ in range(k - 1)]
    return [v.astype(np.uint16) for v in indices], bits


# Two 16-bit index vectors: a 32-bit code space, counted by an int64 sort. As
# int32, the codes 2^31 of (32768, 0) and 2^32 - 1 of (65535, 65535) would wrap.
WIDE_PAIR = ([np.array([65535, 32768, 0, 32768, 65535, 1], dtype=np.uint16),
              np.array([65535, 0, 32768, 0, 65535, 65535], dtype=np.uint16)], 16)


@settings(max_examples=300, deadline=None)
@given(histograms())
@example(WIDE_PAIR)
def test_packed_cells_count_as_the_coordinate_tuple_cells(case):
    indices, bits = case
    cells = joint_cells(*indices)
    assert (cells.bits, cells.ndim) == (bits, len(indices))
    assert_cells_equal_oracle(cells, oracle_joint_cells(*indices))


@settings(max_examples=300, deadline=None)
@given(histograms())
def test_packed_plugin_mi_equals_the_coordinate_tuple_plugin_mi_bit_for_bit(case):
    indices, bits = case
    cells = joint_cells(*indices)
    assert_plugin_mi_equals_oracle(cells, oracle_joint_cells(*indices))


@settings(max_examples=300, deadline=None)
@given(histograms(), st.integers(min_value=0, max_value=16))
@example(WIDE_PAIR, 0)  # unshifted: the int64-sorted cells themselves
def test_packed_coarsening_equals_the_coordinate_tuple_coarsening(case, shift):
    indices, bits = case
    shift %= bits + 1  # drawn up front, not from the case, so that an @example can name it
    coarse = chain(indices, bits, bits, bits - shift)[-1]
    oracle = oracle_coarsen_cells(*oracle_joint_cells(*indices), shift)
    assert_cells_equal_oracle(coarse, oracle)
    assert_plugin_mi_equals_oracle(coarse, oracle)


@settings(max_examples=300, deadline=None)
@given(histograms(), st.data())
def test_cells_built_at_a_shallower_depth_equal_the_deepest_cells_coarsened(case, data):
    # A chain starts from the shifted indices, as the engine's (A, B, E)
    # chain does at the deepest depth whose CMI is reported.
    indices, bits = case
    shift = data.draw(st.integers(min_value=0, max_value=bits))
    built = chain(indices, bits, bits - shift)[0]
    coarse = chain(indices, bits, bits, bits - shift)[-1]
    assert_same_histogram(built, coarse)


@st.composite
def chains(draw):
    """Index vectors of a depth b, as `histograms` draws them, b, and two shifts s1 + s2 <= b.

    The vectors may be shifted right by up to two bits at the same depth, so
    that their largest index lies below 2^(b-1), and the top bins are empty.
    """
    indices, bits = draw(histograms())
    low = draw(st.integers(min_value=0, max_value=min(2, bits)))
    s1 = draw(st.integers(min_value=0, max_value=bits))
    s2 = draw(st.integers(min_value=0, max_value=bits - s1))
    return [v >> low for v in indices], bits, s1, s2


def dense_chain(n, bits, seed):
    """Two wide index vectors of ``bits`` bits, n of them, nearly one cell per sample."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 1 << bits, size=n).astype(np.uint16) for _ in range(2)]


# At N = 2^16, 12 -> 10 -> 8 bits recounts twice (2^20 codes for about
# 2^16 cells, then 2^16 codes for 63,523 cells). 16 -> 14 -> 12 bits at
# N = 3000 recounts twice, the second time shifting the deepest indices by
# the total, 4. The 16 cells of two 2-bit indices at 4 bits merge into the
# 2^4 codes of 2 bits, all in one cell, and 1 bit counts them again: a
# merge followed by a recount needs a second shift smaller than the first.
@settings(max_examples=300, deadline=None)
@given(chains())
@example((dense_chain(1 << 16, 12, 1), 12, 2, 2))
@example((dense_chain(3000, 16, 2), 16, 2, 2))
@example(([np.arange(16, dtype=np.uint16) >> 2, np.arange(16, dtype=np.uint16) & 3], 4, 2, 1))
def test_chained_coarsening_equals_one_step_coarsening(case):
    indices, bits, s1, s2 = case
    depth = bits - s1 - s2
    chained = chain(indices, bits, bits, bits - s1, depth)[-1]
    direct = chain(indices, bits, bits, depth)[-1]
    built = chain(indices, bits, depth)[0]
    for coarse in (chained, direct):
        assert_same_histogram(coarse, built)
    assert_cells_equal_oracle(built, oracle_joint_cells(*(v >> (s1 + s2) for v in indices)))


def record_histograms(monkeypatch):
    """(fields, bits, weights) of every `_histogram` call until the patch is undone."""
    calls, build = [], infotheory._histogram

    def recording(fields, bits, weights=None):
        fields = list(fields)
        calls.append((fields, bits, weights))
        return build(fields, bits, weights)

    monkeypatch.setattr(infotheory, "_histogram", recording)
    return calls


def test_chained_recount_shifts_the_deepest_indices_by_the_total(monkeypatch):
    indices = dense_chain(3000, 16, 2)
    calls = record_histograms(monkeypatch)
    coarse = chain(indices, 16, 16, 14, 12)[-1]
    monkeypatch.undo()
    # A count at 16 bits and two recounts, no merge.
    assert [(bits, weights) for _, bits, weights in calls] == [(16, None), (14, None), (12, None)]
    first, _ = calls[-1][0]
    assert np.array_equal(first, indices[0] >> 4)
    assert_same_histogram(coarse, chain(indices, 16, 12)[0])


@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.int32])
def test_histograms_leave_their_inputs_unchanged(dtype):
    # Fields are packed into a copy of the first: shifting a caller's int64
    # vector in place would corrupt every histogram built from it later,
    # and merging a histogram must leave its cells as they were.
    rng = np.random.default_rng(5)
    indices = [rng.integers(0, 1 << 10, size=5000).astype(dtype) for _ in range(3)]
    before = [v.copy() for v in indices]
    for k in (2, 3):
        made = [(cells, cells.codes.copy(), cells.counts.copy())  # sorted, recounted and merged
                for _, cells in histograms_by_depth(indices[:k], 10, range(10, -1, -1))]
        for cells, codes, counts in made:
            assert np.array_equal(cells.codes, codes) and np.array_equal(cells.counts, counts)
    for v, w in zip(indices, before):
        assert v.dtype == dtype and np.array_equal(v, w)
