import dataclasses
import re
from unittest import mock

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
from slicesec import slicing
from slicesec.cli import CSV_FIELDS
from slicesec.slicing import _label_table, _ranked_bins, party_bins


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

    def test_a_scheme_is_its_name_and_its_columns(self):
        # A scheme field that no CSV column records makes a row read back as a
        # different scheme, so every field is a column and the name is the scheme.
        # The one other scheme column is a property computed from the fields.
        fields = {f.name for f in dataclasses.fields(SlicingScheme)}
        assert fields == {"positioning", "numbering", "bits"}
        read = {path.split(".")[1] for path in CSV_FIELDS.values() if path.startswith("scheme.")}
        assert read == fields | {"label_collisions"}
        assert isinstance(vars(SlicingScheme)["label_collisions"], property)
        schemes = [SlicingScheme(p, n, b) for p in Positioning for n in Numbering
                   for b in range(1, slicing.MAX_BITS + 1)]
        assert len(set(schemes)) == 96
        for s in schemes:
            assert SlicingScheme.parse(str(s)) == s
        with pytest.raises(TypeError):
            SlicingScheme("eqwidth", "gray", 4, 2.0)

    @pytest.mark.parametrize("bits", [4.0, 4.5, np.float64(4.0), True, np.bool_(True)],
                             ids=["float", "fraction", "numpy-float", "bool", "numpy-bool"])
    def test_bits_must_be_an_integer(self, bits):
        # 4.0 used to build a scheme that printed as eqwidth:gray:4.0.
        with pytest.raises(ValueError, match="bits must be an integer"):
            SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.GRAY, bits)

    def test_numpy_integer_bits_become_an_int(self):
        s = SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.GRAY, np.int64(4))
        assert type(s.bits) is int and str(s) == "eqwidth:gray:4"

    def test_names_are_coerced_to_members(self):
        s = SlicingScheme("eqwidth", "binary", 2)
        assert s.positioning is Positioning.EQUAL_WIDTH and s.numbering is Numbering.BINARY
        assert s == SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.BINARY, 2)
        assert str(s) == "eqwidth:binary:2"

    @pytest.mark.parametrize("positioning", list(Positioning))
    def test_string_and_member_schemes_bin_alike(self, positioning):
        samples = np.random.default_rng(3).normal(size=1000)
        by_name = SlicingScheme(positioning.value, "gray", 3)
        by_member = SlicingScheme(positioning, Numbering.GRAY, 3)
        assert np.array_equal(bin_indices(samples, by_name), bin_indices(samples, by_member))

    @pytest.mark.parametrize("positioning,numbering", [
        ("nope", "gray"), ("eqwidth", "nada"), ("nope", "nada"), ("EQWIDTH", "gray"),
    ])
    def test_unknown_names_raise(self, positioning, numbering):
        with pytest.raises(ValueError):
            SlicingScheme(positioning, numbering, 2)

    def test_parse_error_names_the_text(self):
        with pytest.raises(ValueError, match="'huh' is not a valid Numbering in 'eqprob:huh:4'"):
            SlicingScheme.parse("eqprob:huh:4")
        with pytest.raises(ValueError, match=r"bits must lie in \[1, 16\], got 17 in"):
            SlicingScheme.parse("eqprob:gray:17")


# Samples that both positionings reject, and the message they give.
DEGENERATE_SAMPLES = pytest.mark.parametrize("samples, message", [
    (np.insert(np.arange(100.0), 50, np.nan), "samples must be finite"),
    (np.append(np.arange(100.0), np.inf), "samples must be finite"),
    (np.insert(np.arange(100.0), 0, -np.inf), "samples must be finite"),
    (np.full(8, np.inf), "samples must be finite"),
    (np.full(8, -np.inf), "samples must be finite"),
    (np.full(8, 3.0), "zero variance"),
    (np.array([0.0, -0.0] * 4), "zero variance"),
    # Constant, but a std over them reads 1.4e-17: their float mean is not 0.1.
    (np.full(3, 0.1), "zero variance"),
    (np.full(6, 0.1), "zero variance"),
], ids=["nan", "inf", "-inf", "all-inf", "all--inf", "constant", "signed-zeros",
        "constant-inexact-mean", "constant-inexact-mean-6"])


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

    @DEGENERATE_SAMPLES
    def test_equal_probability_rejects_from_the_ends_of_the_sorted_copy(self, samples, message):
        for bits in range(1, len(samples).bit_length()):  # every depth with enough samples
            scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, bits)
            for given in (samples, np.sort(samples)):  # sorted input is not sorted again
                with pytest.raises(ValueError, match=message):
                    compute_edges(given, scheme)

    @DEGENERATE_SAMPLES
    def test_equal_width_rejects_from_the_ends_of_the_samples(self, samples, message):
        # The std of [0.1] * 6 is 1.4e-17, not 0: at 2 bits its boundaries
        # would be 0.09999999999999998, 0.09999999999999999 and 0.1, with
        # every sample in the top bin.
        for bits in range(1, len(samples).bit_length()):
            scheme = SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.BINARY, bits)
            with pytest.raises(ValueError, match=message):
                compute_edges(samples, scheme)

    # Finite samples whose squares, and so whose std, are not. At k = 3 no
    # finite std overflows the span: a std whose square is finite is below
    # about 1.34e154.
    @pytest.mark.parametrize("samples", [np.array([-1e200, 1e200] * 4)], ids=["std"])
    def test_equal_width_names_an_overflow(self, samples):
        scheme = SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.BINARY, 2)
        with pytest.raises(ValueError, match="equal-width boundaries overflow a float"):
            compute_edges(samples, scheme)

    @pytest.mark.parametrize("samples, std", [
        (np.array([-1e-320, 1e-320] * 4), "0"),  # distinct samples whose squares underflow
        (np.array([1e6, np.nextafter(1e6, 2e6)] * 4), "8.23e-11"),  # 8 bins within one ulp
    ], ids=["underflow", "below-ulp"])
    def test_equal_width_names_boundaries_that_collapse(self, samples, std):
        scheme = SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.BINARY, 3)
        with pytest.raises(ValueError, match=rf"^equal-width boundaries collapse \(std {std}\)$"):
            compute_edges(samples, scheme)


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
        assert np.ptp(samples) == 0.0 or not np.all(np.diff(expected) > 0)
        return
    assert np.array_equal(edges, expected)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 3000),
    bits=st.integers(1, 11),
    decimals=st.sampled_from([0, 1, 2]),
)
def test_sorted_input_gives_the_edges_of_shuffled_input(seed, n, bits, decimals):
    # Rounding makes ties, and -0.0 next to 0.0; the sorted copy is np.sort's own.
    bits = min(bits, n.bit_length() - 1)
    shuffled = np.round(np.random.default_rng(seed).normal(size=n), decimals)
    ordered = np.sort(shuffled)
    scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, bits)
    try:
        expected = compute_edges(shuffled, scheme).boundaries
    except ValueError as exc:  # zero variance or heavy ties
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            compute_edges(ordered, scheme)
        return
    assert compute_edges(ordered, scheme).boundaries.tobytes() == expected.tobytes()


def test_sorted_input_is_not_sorted_again():
    ordered = np.sort(np.random.default_rng(5).normal(size=1000))
    scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, 4)
    with mock.patch.object(np, "sort", side_effect=AssertionError("sorted again")):
        compute_edges(ordered, scheme)
        bin_indices(ordered[::-1], scheme)


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
    scale=st.floats(1e-3, 1e3),  # any scale, so the edge arithmetic rounds non-dyadic products
    decimals=st.sampled_from([None, 1]),
)
def test_shallower_bins_are_exact_right_shifts(
    seed, n, top, shallower, positioning, scale, decimals
):
    bits = max(1, top - shallower)
    samples = 5.0 + scale * np.random.default_rng(seed).normal(size=n)
    if decimals is not None:  # coarse values put many samples on boundaries
        samples = np.round(samples, decimals)

    def indices(b):
        return bin_indices(samples, SlicingScheme(positioning, Numbering.BINARY, b))

    try:
        deep = indices(top)
    except ValueError:  # zero variance or heavy ties: this depth has no valid edges
        return
    assert deep.dtype == np.uint16
    assert np.array_equal(deep >> (top - bits), indices(bits))


@pytest.mark.parametrize("bits", [1, 2, 5, 9, 12, 16])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    loc=st.sampled_from([0.0, 5.0, -1e4]),
    scale=st.floats(1e-3, 1e3),  # any scale, so the edge arithmetic rounds non-dyadic products
    decimals=st.sampled_from([None, 0, 2]),
)
def test_equal_width_bins_by_rank_equal_searchsorted(bits, seed, loc, scale, decimals):
    samples = loc + scale * np.random.default_rng(seed).normal(size=max(1 << bits, 500))
    if decimals is not None:  # coarse values put many samples on boundaries
        samples = np.round(samples, decimals)
    scheme = SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.BINARY, bits)
    try:
        edges = compute_edges(samples, scheme)
    except ValueError:  # zero variance, or a step below the float spacing
        return
    # Values on every boundary and one ulp either side, and far outside +-k sigma,
    # ranked against the samples' edges.
    boundaries = edges.boundaries
    far = np.array([-1e300, 1e300, loc - 1e6 * scale, loc + 1e6 * scale, -0.0])
    probes = np.concatenate([
        samples, boundaries, np.nextafter(boundaries, -np.inf),
        np.nextafter(boundaries, np.inf), far,
    ])
    expected = np.searchsorted(boundaries, probes, side="right")
    order = np.argsort(probes)
    idx, counts = _ranked_bins(order, probes[order], edges)
    assert np.array_equal(idx, expected)
    assert np.array_equal(counts, np.bincount(expected, minlength=1 << bits))
    assert counts.sum() == len(probes)
    # The samples alone: from 12 bits on, at N = 2^b, the tails leave bins empty.
    expected = expected[: len(samples)]
    [(idx, counts)] = party_bins({"party": samples}, "party", [scheme])
    assert np.array_equal(idx, expected)
    assert np.array_equal(counts, np.bincount(expected, minlength=1 << bits))
    assert counts.sum() == len(samples)
    assert bits < 12 or not counts.all()
    assert np.array_equal(bin_indices(samples, scheme), expected)


@pytest.mark.parametrize("positioning", list(Positioning))
def test_rank_rule_reads_edges_in_the_order_that_fixes_them(positioning):
    # A sum's last bits depend on the order of its terms, so equal-width edges
    # (mean and std) read the samples as given; quantiles read the sorted copy.
    samples = np.random.default_rng(9).normal(size=1000)
    scheme = SlicingScheme(positioning, Numbering.BINARY, 3)
    with mock.patch.object(slicing, "compute_edges", wraps=compute_edges) as spy:
        bin_indices(samples, scheme)
    (read, _), _ = spy.call_args
    by_width = positioning is Positioning.EQUAL_WIDTH
    assert np.array_equal(read, samples if by_width else np.sort(samples))


@pytest.mark.parametrize("bits", [1, 2, 5, 9, 16])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    loc=st.sampled_from([0.0, 5.0, -1e4]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    decimals=st.sampled_from([None, 0, 2]),
)
def test_equal_probability_bins_by_rank_equal_searchsorted(bits, seed, loc, scale, decimals):
    samples = loc + scale * np.random.default_rng(seed).normal(size=max(1 << bits, 500))
    if decimals is not None:  # coarse values put many samples on boundaries
        samples = np.round(samples, decimals)
    scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, bits)
    try:
        edges = compute_edges(samples, scheme).boundaries
    except ValueError as exc:  # zero variance or heavy ties
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            bin_indices(samples, scheme)
        return
    idx = bin_indices(samples, scheme)
    expected = np.searchsorted(edges, samples, side="right")
    assert idx.dtype == np.uint16
    assert np.array_equal(idx, expected)
    [(_, counts)] = party_bins({"party": samples}, "party", [scheme])
    assert np.array_equal(counts, np.bincount(expected, minlength=1 << bits))
    assert counts.sum() == len(samples)


@pytest.mark.parametrize("samples", [
    np.array([0.0] * 30 + [1.0]),
    np.full(10, 3.0),
    np.arange(3.0),
    np.append(np.arange(100.0), np.nan),
    np.append(np.arange(100.0), -np.inf),
], ids=["heavy-ties", "zero-variance", "too-few", "nan", "inf"])
def test_equal_probability_bins_reject_what_edges_reject(samples):
    scheme = SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.BINARY, 2)
    with pytest.raises(ValueError) as rejected:
        compute_edges(samples, scheme)
    # The same error, naming the scheme's group as `party_bins` does.
    suffix = r" \(party at 2 bits, in eqprob group\)$"
    with pytest.raises(ValueError, match="^" + re.escape(str(rejected.value)) + suffix):
        bin_indices(samples, scheme)


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

    @pytest.mark.parametrize("b", range(1, 17))
    def test_flfsr_equals_the_bit_register_loop(self, b):
        # The register stepped as a row of bits: the recurrence stated independently.
        labels = np.empty((1 << b, b), dtype=np.uint8)
        reg = np.zeros(b, dtype=np.uint8)
        reg[-1] = 1
        for i in range(1 << b):
            labels[i] = reg
            fed = reg[-1] ^ reg[-2] if b >= 2 else reg[-1]
            reg = np.concatenate(([fed], reg[:-1]))
        assert np.array_equal(build_labels(Numbering.FLFSR, b).labels, labels)

    @pytest.mark.parametrize("numbering", list(Numbering))
    @pytest.mark.parametrize("b", range(1, 17))
    def test_codes_are_the_labels_read_as_integers(self, numbering, b):
        table = build_labels(numbering, b)
        weights = 1 << np.arange(b - 1, -1, -1)
        assert np.array_equal(table.labels @ weights, table.codes)
        # Distinct label rows, counted as before the codes existed.
        assert table.collisions == (1 << b) - len(np.unique(table.labels, axis=0))
        assert table.collisions == (1 << b) - len(set(table.codes.tolist()))

    @pytest.mark.parametrize("b", [5.0, np.float64(5.0), True],
                             ids=["float", "numpy-float", "bool"])
    def test_bit_count_must_be_an_integer(self, b):
        # Rejected whether or not the table of the equal int is cached: the
        # cache would serve 5.0 from the entry of 5, which hashes alike.
        _label_table.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="b must be an integer"):
                build_labels(Numbering.GRAY, b)
            build_labels(Numbering.GRAY, int(b))

    def test_tables_are_built_once(self):
        table = build_labels(Numbering.FLFSR, 12)
        assert build_labels(Numbering.FLFSR, 12) is table

    @pytest.mark.parametrize("numbering", list(Numbering))
    def test_names_give_the_member_tables(self, numbering):
        # A name is coerced before the cache lookup, so it shares its member's entry.
        table = build_labels(numbering, 5)
        assert build_labels(numbering.value, 5) is table
        assert np.array_equal(_label_table.__wrapped__(numbering, 5).codes, table.codes)

    def test_unknown_numbering_raises(self):
        with pytest.raises(ValueError):
            build_labels("nonsense", 3)

    @pytest.mark.parametrize("field", ["codes", "labels"])
    def test_tables_are_read_only(self, field):
        table = build_labels(Numbering.GRAY, 4)
        with pytest.raises(ValueError, match="read-only"):
            getattr(table, field)[0] = 1
        with pytest.raises(AttributeError):
            setattr(table, field, np.zeros(16))


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
