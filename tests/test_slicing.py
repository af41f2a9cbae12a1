import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesec import (
    BinEdges,
    Numbering,
    Positioning,
    SlicingScheme,
    assign_bins,
    bin_indices,
    build_labels,
    compute_edges,
    slice_samples,
)


class TestSchemeParsing:
    def test_parse_basic(self):
        s = SlicingScheme.parse("eqprob:gray:4")
        assert s.positioning is Positioning.EQUAL_PROBABILITY
        assert s.numbering is Numbering.GRAY
        assert s.bits == 4
        assert s.n_bins == 16
        assert str(s) == "eqprob:gray:4"

    def test_parse_is_case_insensitive(self):
        s = SlicingScheme.parse("EQWIDTH:FLFSR:6")
        assert s.positioning is Positioning.EQUAL_WIDTH
        assert s.numbering is Numbering.FLFSR

    @pytest.mark.parametrize("bad", [
        "eqprob:gray", "huh:gray:4", "eqprob:huh:4", "eqprob:gray:x",
        "eqprob:gray:0", "eqprob:gray:17", "",
    ])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            SlicingScheme.parse(bad)

    def test_width_multiplier_must_be_positive(self):
        with pytest.raises(ValueError):
            SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.GRAY, 4, width_multiplier=0.0)

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_width_multiplier_must_be_finite(self, k):
        with pytest.raises(ValueError):
            SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.GRAY, 4, width_multiplier=k)


class TestComputeEdges:
    def test_single_bit_symmetric_data(self):
        samples = np.array([-1.0, 1.0])
        for positioning in Positioning:
            scheme = SlicingScheme(positioning, Numbering.BINARY, 1)
            edges = compute_edges(samples, scheme)
            assert edges.boundaries == pytest.approx([0.0])

    def test_equal_probability_quantiles(self):
        # order-statistic oracle for {1..8}: linear interpolation gives
        # 2.75 / 4.5 / 6.25 and occupancies 2,2,2,2
        samples = np.arange(1.0, 9.0)
        scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, 2)
        edges = compute_edges(samples, scheme)
        assert edges.boundaries == pytest.approx([2.75, 4.5, 6.25])
        assert np.bincount(assign_bins(samples, edges)).tolist() == [2, 2, 2, 2]

    def test_equal_width_spans_k_sigma(self):
        # mean 0, std 1 -> boundaries at -3 + j * 6/4
        samples = np.array([-1.0, -1.0, 1.0, 1.0])
        scheme = SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.BINARY, 2)
        edges = compute_edges(samples, scheme)
        assert edges.boundaries == pytest.approx([-1.5, 0.0, 1.5])

    def test_rejects_degenerate_samples(self):
        scheme = SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.BINARY, 1)
        with pytest.raises(ValueError, match="zero variance"):
            compute_edges(np.full(10, 3.0), scheme)

    def test_rejects_too_few_samples(self):
        scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, 4)
        with pytest.raises(ValueError):
            compute_edges(np.arange(10.0), scheme)

    def test_rejects_heavy_ties_in_quantiles(self):
        scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, 2)
        samples = np.array([0.0] * 30 + [1.0])
        with pytest.raises(ValueError):
            compute_edges(samples, scheme)

    @pytest.mark.parametrize("positioning", list(Positioning))
    def test_rejects_nan(self, positioning):
        # One NaN sorts last, so equal-probability edges alone would not show it.
        samples = np.append(np.arange(100.0), np.nan)
        with pytest.raises(ValueError, match="finite"):
            compute_edges(samples, SlicingScheme(positioning, Numbering.BINARY, 1))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 3000),
    bits=st.integers(1, 11),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    decimals=st.sampled_from([None, 0, 1]),
)
def test_equal_probability_edges_equal_numpy_quantile(seed, n, bits, scale, decimals):
    # Depths up to log2(n) include 2^b near N, where edges are a sample apart.
    bits = min(bits, n.bit_length() - 1)
    samples = scale * np.random.default_rng(seed).normal(size=n)
    if decimals is not None:  # ties, and interpolation between equal values
        samples = np.round(samples, decimals)
    levels = np.arange(1, 1 << bits) / (1 << bits)
    expected = np.quantile(samples, levels, method="linear")
    scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, bits)
    try:
        edges = compute_edges(samples, scheme).boundaries
    except ValueError:
        assert samples.std() == 0.0 or not np.all(np.diff(expected) > 0)
        return
    assert np.array_equal(edges, expected)


class TestAssignBins:
    def test_hand_evaluated_assignment(self):
        edges = BinEdges(np.array([-1.5, 0.0, 1.5]))
        assert assign_bins(np.array([-2.0, -1.0, 0.0, 2.0]), edges).tolist() == [0, 1, 2, 3]

    def test_below_everything_is_bin_zero(self):
        edges = BinEdges(np.array([0.0, 1.0]))
        assert assign_bins(np.array([-100.0]), edges).tolist() == [0]

    def test_boundary_value_goes_to_higher_bin(self):
        edges = BinEdges(np.array([-1.0, 0.0, 1.0]))
        assert assign_bins(np.array([-1.0, 0.0, 1.0]), edges).tolist() == [1, 2, 3]

    def test_rejects_nan(self):
        edges = BinEdges(np.array([0.0]))
        with pytest.raises(ValueError):
            assign_bins(np.array([np.nan]), edges)

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            BinEdges(np.array([0.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(256, 3000),
    top=st.integers(1, 8),
    shallower=st.integers(0, 7),
    positioning=st.sampled_from(list(Positioning)),
    width_multiplier=st.floats(0.25, 8.0),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    decimals=st.sampled_from([None, 1]),
)
def test_shallower_bins_are_exact_right_shifts(
    seed, n, top, shallower, positioning, width_multiplier, scale, decimals
):
    bits = max(1, top - shallower)
    samples = 5.0 + scale * np.random.default_rng(seed).normal(size=n)
    if decimals is not None:  # coarse values put many samples on boundaries
        samples = np.round(samples, decimals)

    def indices(b):
        scheme = SlicingScheme(positioning, Numbering.BINARY, b, width_multiplier)
        return bin_indices(samples, scheme)

    try:
        deep = indices(top)
    except ValueError:  # zero variance or heavy ties: this depth has no valid edges
        return
    assert deep.dtype == np.uint16
    assert np.array_equal(deep >> (top - bits), indices(bits))


class TestLabels:
    def test_binary_b2(self):
        assert build_labels(Numbering.BINARY, 2).as_strings() == ["00", "01", "10", "11"]

    def test_gray_b2(self):
        table = build_labels(Numbering.GRAY, 2)
        assert table.as_strings() == ["00", "01", "11", "10"]

    def test_flfsr_b4_worked_sequence(self):
        labels = build_labels(Numbering.FLFSR, 4).as_strings()
        assert labels[:4] == ["0001", "1000", "0100", "0010"]

    @pytest.mark.parametrize("b", range(1, 17))
    def test_gray_adjacency(self, b):
        labels = build_labels(Numbering.GRAY, b).labels
        diffs = (labels[1:] != labels[:-1]).sum(axis=1)
        assert (diffs == 1).all()

    @pytest.mark.parametrize("b", range(2, 11))
    def test_binary_has_multibit_jump(self, b):
        labels = build_labels(Numbering.BINARY, b).labels
        diffs = (labels[1:] != labels[:-1]).sum(axis=1)
        assert diffs.max() >= 2

    @pytest.mark.parametrize("numbering", [Numbering.BINARY, Numbering.GRAY])
    @pytest.mark.parametrize("b", range(1, 11))
    def test_binary_and_gray_are_bijections(self, numbering, b):
        table = build_labels(numbering, b)
        assert table.collisions == 0

    @pytest.mark.parametrize("b", range(1, 17))
    def test_flfsr_register_prefix(self, b):
        # label(0) is always 0^(b-1) followed by '1'; the recurrence then
        # prepends the XOR of the last two bits and shifts right.
        labels = build_labels(Numbering.FLFSR, b).as_strings()
        assert labels[0] == "0" * (b - 1) + "1"
        for prev, cur in zip(labels, labels[1:]):
            fed = int(prev[-1]) ^ int(prev[-2]) if b >= 2 else int(prev[-1])
            assert cur == str(fed) + prev[:-1]

    def test_flfsr_short_period_duplicates_labels(self):
        # at b=5 the register period is 21 < 32, so labels must repeat
        assert build_labels(Numbering.FLFSR, 5).collisions > 0

    @pytest.mark.parametrize("b", [0, 17])
    def test_label_width_limits(self, b):
        with pytest.raises(ValueError):
            build_labels(Numbering.BINARY, b)


class TestSlicePipeline:
    def test_single_bit_hand_example(self):
        edges = BinEdges(np.array([0.0]))
        idx = assign_bins(np.array([-2.0, 0.5, -0.1, 3.0]), edges)
        labels = build_labels(Numbering.BINARY, 1)
        assert labels.labels[idx][:, 0].tolist() == [0, 1, 0, 1]

    def test_rows_match_labels(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=500)
        scheme = SlicingScheme.parse("eqprob:flfsr:4")
        mat = slice_samples(samples, scheme)
        table = build_labels(scheme.numbering, scheme.bits)
        assert np.array_equal(mat.bits, table.labels[mat.symbol_index])

    def test_identical_inputs_give_identical_matrices(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=300)
        scheme = SlicingScheme.parse("eqwidth:gray:3")
        m1 = slice_samples(samples, scheme)
        m2 = slice_samples(samples.copy(), scheme)
        assert np.array_equal(m1.bits, m2.bits)
        assert np.array_equal(m1.symbol_index, m2.symbol_index)


@settings(max_examples=30, deadline=None)
@given(
    b=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=200, max_value=2000),
)
def test_equal_probability_occupancy_property(b, seed, n):
    # with continuous (tie-free) data every bin count is within 1 of N / 2^b
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=n)
    scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, b)
    idx = assign_bins(samples, compute_edges(samples, scheme))
    counts = np.bincount(idx, minlength=scheme.n_bins)
    assert np.abs(counts - n / scheme.n_bins).max() <= 1
