import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesec import (
    AlphabetCapacityError,
    MIEstimate,
    binary_entropy,
    bit_error_rate,
    build_labels,
    conditional_mi,
    mutual_information_bitwise,
    mutual_information_symbols,
    plugin_bias,
)
from slicesec import infotheory
from slicesec.infotheory import (
    CMI_MAX_BITS,
    JointCells,
    bit_error_rate_from_tables,
    bitwise_mi_from_tables,
    histograms_by_depth,
    joint_cells,
    label_bit_tables,
    pair_label_counts,
    plugin_mi,
    plugin_mi_2x2,
)
from slicesec.slicing import BitMatrix, Numbering


def entropy(pmf):
    """Shannon entropy of a probability vector, in bits."""
    p = np.asarray(pmf, dtype=float)
    if (p < 0).any():
        raise ValueError("probabilities must be nonnegative")
    total = p.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1, got {total}")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def brute_force_mi(joint):
    """Independent oracle: direct double sum over the joint pmf."""
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                total += joint[i, j] * math.log2(joint[i, j] / (px[i] * py[j]))
    return total


def brute_force_cmi(joint3):
    """Independent oracle: triple sum over the 3-way joint pmf."""
    p = np.asarray(joint3, dtype=float)
    pz = p.sum(axis=(0, 1))
    pxz = p.sum(axis=1)
    pyz = p.sum(axis=0)
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            for k in range(p.shape[2]):
                if p[i, j, k] > 0:
                    total += p[i, j, k] * math.log2(
                        pz[k] * p[i, j, k] / (pxz[i, k] * pyz[j, k])
                    )
    return total


def matrix(rows):
    rows = np.asarray(rows, dtype=np.uint8)
    return BitMatrix(bits=rows, symbol_index=np.zeros(rows.shape[0], dtype=np.int64))


class TestEntropy:
    def test_binary_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_binary_entropy_value(self):
        # direct evaluation oracle
        p = 0.11
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert expected == pytest.approx(0.49992, abs=1e-5)
        assert binary_entropy(p) == pytest.approx(expected)

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_binary_entropy_domain(self, p):
        with pytest.raises(ValueError):
            binary_entropy(p)

    def test_entropy_values(self):
        assert entropy([0.25] * 4) == pytest.approx(2.0)
        assert entropy([1.0, 0.0, 0.0]) == 0.0
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5)

    def test_entropy_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            entropy([-0.1, 1.1])


class TestSymbolMI:
    def test_identical_uniform_streams(self):
        a = np.tile(np.arange(4), 1000)
        est = mutual_information_symbols(a, a)
        assert est.value == pytest.approx(2.0)
        assert est.alphabet_sizes == (4, 4)

    def test_exact_count_joint(self):
        # counts 40/10/10/40 realize [[0.4,0.1],[0.1,0.4]] exactly
        a = np.repeat([0, 0, 1, 1], [40, 10, 10, 40])
        b = np.repeat([0, 1, 0, 1], [40, 10, 10, 40])
        expected = brute_force_mi([[0.4, 0.1], [0.1, 0.4]])
        assert expected == pytest.approx(0.27807, abs=1e-5)
        assert mutual_information_symbols(a, b).value == pytest.approx(expected, abs=1e-12)

    def test_independent_streams_bias_bound(self):
        n = 1_000_000
        rng = np.random.default_rng(42)
        a = rng.integers(0, 16, size=n)
        b = rng.integers(0, 16, size=n)
        # plug-in bias oracle ~ 225 / (2 N ln 2) ~ 1.6e-4
        assert mutual_information_symbols(a, b).value <= 0.001

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 8, size=5000)
        b = (a + rng.integers(0, 2, size=5000)) % 8
        assert (mutual_information_symbols(a, b).value
                == mutual_information_symbols(b, a).value)

    def test_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            mutual_information_symbols(np.arange(3), np.arange(4))
        with pytest.raises(ValueError):
            mutual_information_symbols(np.array([]), np.array([]))

    def test_rejects_non_integer_indices(self):
        # Casting would truncate 0.5 and 1.7 to 0 and 1: a silent 1.0 bit.
        with pytest.raises(ValueError, match="must hold integers, got dtype float64"):
            mutual_information_symbols([0.5, 1.7], [0, 1])

    def test_rejects_negative_indices(self):
        # A packed cell code would alias -1 with another cell.
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\^16\), got -1"):
            mutual_information_symbols([0, -1], [0, 1])

    @pytest.mark.parametrize("estimator", [mutual_information_symbols, conditional_mi],
                             ids=["mi", "cmi"])
    @pytest.mark.parametrize("top", [2**16, 2**40])
    def test_rejects_an_index_beyond_16_bits(self, estimator, top):
        # A bin index takes at most MAX_BITS = 16 bits.
        vectors = [[0, top]] + [[0, 1]] * (2 if estimator is conditional_mi else 1)
        with pytest.raises(ValueError, match=rf"must lie in \[0, 2\^16\), got {top}"):
            estimator(*vectors)
        vectors[0][1] = (1 << 16) - 1 if estimator is mutual_information_symbols else 255
        assert estimator(*vectors).value >= 0

    def test_bounded_by_entropy(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 4, size=2000)
        b = rng.integers(0, 4, size=2000)
        pa = np.bincount(a) / len(a)
        pb = np.bincount(b) / len(b)
        assert mutual_information_symbols(a, b).value <= min(entropy(pa), entropy(pb)) + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=2, max_value=8),
)
def test_relabeling_invariance_property(seed, k):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, k, size=1000)
    b = rng.integers(0, k, size=1000)
    perm = rng.permutation(k)
    assert (mutual_information_symbols(perm[a], b).value
            == pytest.approx(mutual_information_symbols(a, b).value, abs=1e-12))


class TestBitwiseMI:
    def test_identical_balanced_matrices(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2, size=(4096, 4)).astype(np.uint8)
        m = matrix(rows)
        est = mutual_information_bitwise(m, m)
        # each balanced, non-constant column contributes its empirical
        # entropy, which is ~1; with exactly balanced columns it is 1
        assert est.value == pytest.approx(4.0, abs=0.01)

    def test_independent_matrices(self):
        rng = np.random.default_rng(1)
        a = matrix(rng.integers(0, 2, size=(1_000_000, 4)))
        b = matrix(rng.integers(0, 2, size=(1_000_000, 4)))
        assert mutual_information_bitwise(a, b).value <= 0.01

    def test_bsc_oracle(self):
        n = 1_000_000
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, size=(n, 1)).astype(np.uint8)
        flips = (rng.random((n, 1)) < 0.11).astype(np.uint8)
        y = x ^ flips
        expected = 1.0 - binary_entropy(0.11)
        assert mutual_information_bitwise(matrix(x), matrix(y)).value == pytest.approx(
            expected, abs=0.01
        )

    def test_column_flip_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, size=(3000, 3)).astype(np.uint8)
        b = rng.integers(0, 2, size=(3000, 3)).astype(np.uint8)
        flipped = b ^ np.array([1, 0, 1], dtype=np.uint8)
        assert (mutual_information_bitwise(matrix(a), matrix(flipped)).value
                == mutual_information_bitwise(matrix(a), matrix(b)).value)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information_bitwise(
                matrix(np.zeros((5, 2))), matrix(np.zeros((5, 3)))
            )


# The parties of each pair in a `label_bit_tables` stack: (A, B), (A, E), (B, E).
PAIRS = ((0, 1), (0, 2), (1, 2))


def party_label_tables(parties, tables):
    """`label_bit_tables` of three parties' bin indices: each pair's histogram
    built from the samples, and each party's marginal bincounted on its own."""
    k = 1 << tables[0].bits
    marginals = np.stack([np.bincount(v, minlength=k) for v in parties])
    pairs = [joint_cells(parties[x], parties[y]) for x, y in PAIRS]
    return label_bit_tables(np.stack([pair_label_counts(c, tables) for c in pairs]),
                            marginals, tables)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bits=st.integers(min_value=1, max_value=16),
    numberings=st.lists(st.sampled_from(list(Numbering)), min_size=1, max_size=3, unique=True),
    n=st.integers(min_value=1, max_value=3000),
    noise=st.integers(min_value=0, max_value=3),
)
def test_label_bit_tables_are_marginals_of_the_symbol_joint(seed, bits, numberings, n, noise):
    # Against the BitMatrix path: expand labels to N x b bits and count per
    # bit. One to three codebooks share one call, so `pair_label_counts`
    # packs and extracts each codebook's field; an F-LFSR codebook repeats
    # labels, up to 65,281 of its bins at b = 16.
    rng = np.random.default_rng(seed)
    k = 1 << bits
    a = rng.integers(0, k, size=n)
    b, e = (np.clip(a + rng.integers(-noise, noise + 1, size=n), 0, k - 1) for _ in range(2))
    codebooks = [build_labels(numbering, bits) for numbering in numberings]
    tables = party_label_tables((a, b, e), codebooks)
    mi, ber = bitwise_mi_from_tables(tables), bit_error_rate_from_tables(tables)
    m = len(codebooks)
    assert tables.shape == (3, m, bits, 2, 2) and mi.shape == ber.shape == (3, m)

    for p, (x, y) in enumerate(PAIRS):
        for i, table in enumerate(codebooks):
            bx, by = (table.labels[v] for v in ((a, b, e)[x], (a, b, e)[y]))
            for j in range(bits):
                expected = np.bincount(2 * bx[:, j] + by[:, j], minlength=4).reshape(2, 2)
                assert np.array_equal(tables[p, i, j], expected)
            assert mi[p, i] == mutual_information_bitwise(matrix(bx), matrix(by)).value
            assert ber[p, i] == bit_error_rate(matrix(bx), matrix(by))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sizes=st.tuples(*[st.integers(min_value=1, max_value=5)] * 3),
    n=st.integers(min_value=1, max_value=400),
)
def test_sparse_estimators_match_brute_force_on_the_empirical_pmf(seed, sizes, n):
    rng = np.random.default_rng(seed)
    a, b, z = (rng.integers(0, k, size=n) for k in sizes)
    # Make b depend on a and z, so both estimates are usually positive.
    b = (b + a * rng.integers(0, 2, size=n) + z) % sizes[1]
    joint = np.zeros(sizes)
    np.add.at(joint, (a, b, z), 1.0 / n)
    assert mutual_information_symbols(a, b).value == pytest.approx(
        brute_force_mi(joint.sum(axis=2)), abs=1e-12
    )
    assert conditional_mi(a, b, z).value == pytest.approx(brute_force_cmi(joint), abs=1e-12)


class TestConditionalMI:
    def test_conditioning_on_self_is_zero(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 4, size=2000)
        b = rng.integers(0, 4, size=2000)
        assert conditional_mi(a, b, b).value == 0.0

    def test_independent_condition_matches_mi(self):
        n = 100_000
        rng = np.random.default_rng(8)
        u = rng.random(n)
        # realize the 0.4/0.1/0.1/0.4 joint by inverse transform
        a = (u >= 0.5).astype(np.int64)
        b = np.where(u < 0.4, 0, np.where(u < 0.5, 1, np.where(u < 0.6, 0, 1)))
        z = rng.integers(0, 2, size=n)
        expected = brute_force_mi([[0.4, 0.1], [0.1, 0.4]])
        assert conditional_mi(a, b, z).value == pytest.approx(expected, abs=0.01)

    def test_xor_triple(self):
        n = 100_000
        rng = np.random.default_rng(9)
        a = rng.integers(0, 2, size=n)
        b = rng.integers(0, 2, size=n)
        z = a ^ b
        # brute force over the 8-outcome joint: I(A;B) = 0 but I(A;B|Z) = 1
        joint = np.zeros((2, 2, 2))
        for i in (0, 1):
            for j in (0, 1):
                joint[i, j, i ^ j] = 0.25
        assert brute_force_cmi(joint) == pytest.approx(1.0)
        assert mutual_information_symbols(a, b).value == pytest.approx(0.0, abs=0.01)
        assert conditional_mi(a, b, z).value == pytest.approx(1.0, abs=0.01)

    def test_capacity_guard(self):
        big = np.array([0, 511], dtype=np.int64)
        with pytest.raises(AlphabetCapacityError):
            conditional_mi(big, big, big)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            conditional_mi(np.arange(3), np.arange(3), np.arange(4))


class TestBitErrorRate:
    def test_identical_and_complement(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 2, size=(100, 4)).astype(np.uint8)
        assert bit_error_rate(matrix(a), matrix(a)) == 0.0
        assert bit_error_rate(matrix(a), matrix(a ^ 1)) == 1.0

    def test_single_differing_bit(self):
        a = matrix([[0, 0, 0, 0]])
        b = matrix([[0, 1, 0, 0]])
        assert bit_error_rate(a, b) == 0.25

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            bit_error_rate(matrix(np.zeros((2, 2))), matrix(np.zeros((3, 2))))


def test_mi_estimate_rejects_negative():
    with pytest.raises(ValueError):
        MIEstimate(value=-0.1, alphabet_sizes=(2, 2))


def test_plugin_bias_oracle_scale():
    assert plugin_bias(16, 16, 1_000_000) == pytest.approx(
        225 / (2e6 * math.log(2)), abs=1e-12
    )


def dense_cells(indices):
    """Independent oracle for `joint_cells`: a dense histogram read in row-major order."""
    shape = tuple(int(v.max()) + 1 for v in indices)
    dense = np.zeros(shape, dtype=np.int64)
    np.add.at(dense, tuple(indices), 1)
    coords = np.nonzero(dense)
    return coords, dense[coords]


def assert_same_cells(got, expected):
    exp_coords, exp_counts = expected
    assert got.ndim == len(exp_coords)
    assert got.codes.dtype == np.int64 and (np.diff(got.codes) > 0).all()
    for i, e in enumerate(exp_coords):
        assert np.array_equal(got.coordinate(i), e)
    assert got.counts.dtype == np.int64 and np.array_equal(got.counts, exp_counts)


def table_cells(table):
    """The occupied cells of a 2x2 count table, as a sparse joint histogram."""
    x, y = np.nonzero(table)
    return JointCells(x << 1 | y, table[x, y].astype(np.int64), 1, 2)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3),
    n=st.integers(min_value=1, max_value=2000),
)
def test_joint_cells_counts_by_bincount_and_by_unique_alike(seed, sizes, n):
    # Small alphabets against large n take the bincount path, the rest the
    # sorted-codes path; both must equal the dense oracle, dtypes included.
    rng = np.random.default_rng(seed)
    indices = [rng.integers(0, k, size=n).astype(np.uint16) for k in sizes]
    assert_same_cells(joint_cells(*indices), dense_cells(indices))


def record(monkeypatch, name, module=np):
    """The results of every call of ``module.name`` until the patch is undone."""
    results, fn = [], getattr(module, name)

    def recording(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recording)
    return results


def record_histograms(monkeypatch):
    """(code space, inputs, weighted) of every `_histogram` call until the patch is undone."""
    calls, build = [], infotheory._histogram

    def recording(fields, bits, weights=None):
        fields = list(fields)
        calls.append((1 << len(fields) * bits, len(fields[0]), weights is not None))
        return build(fields, bits, weights)

    monkeypatch.setattr(infotheory, "_histogram", recording)
    return calls


@pytest.mark.parametrize("sizes,n", [
    ((2, 3), 6), ((2, 3), 5), ((50, 50), 10), ((4, 4, 4), 64), ((2, 3), 3), ((3, 3), 4),
    ((256, 256), 10), ((1 << 17,), 10), ((1 << 17,), 1 << 17), ((1 << 17,), (1 << 17) - 1),
    ((2, 3), 16), ((2, 3), 15), ((4, 4, 4), 63), ((256, 256), 1 << 16),
])
@pytest.mark.parametrize("coarsened", [False, True])
def test_joint_cells_path_boundary(sizes, n, coarsened, monkeypatch):
    # A code space is counted densely from n = 2^width on, whatever its
    # width, and sorted below: 2^4, 2^6 and 2^17 codes at n = 2^width and
    # at one input fewer, 2^16 codes at n = 2^16 and n = 10. Coarsened
    # from one bit deeper by `histograms_by_depth`, the cells merge (a
    # weighted, dense count) exactly when 2^width is at most the occupied
    # cells above; otherwise the indices are counted again, by the same
    # rule, so a bincount runs on the same side of the boundary.
    rng = np.random.default_rng(n)
    indices = [np.arange(n) % k for k in sizes]
    for v, k in zip(indices, sizes):
        v[0] = k - 1
    bits = (max(sizes) - 1).bit_length()
    width = len(sizes) * bits
    if coarsened:
        deeper = [v << 1 | rng.integers(0, 2, size=n) for v in indices]
        by_depth = histograms_by_depth(deeper, bits + 1, [bits + 1, bits])
        _, fine = next(by_depth)
        merged = 1 << width <= len(fine.codes)
    calls = record_histograms(monkeypatch)
    bincounts = record(monkeypatch, "bincount")
    cells = next(by_depth)[1] if coarsened else joint_cells(*indices)
    monkeypatch.undo()
    assert bool(bincounts) == (1 << width <= n)
    if coarsened:
        assert calls == [(1 << width, len(fine.codes) if merged else n, merged)]
    assert_same_cells(cells, dense_cells(indices))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bits=st.integers(min_value=1, max_value=10),
    parties=st.integers(min_value=2, max_value=3),
    n=st.integers(min_value=1, max_value=3000),
    data=st.data(),
)
def test_coarsened_cells_equal_cells_of_shifted_indices(seed, bits, parties, n, data):
    shift = data.draw(st.integers(min_value=0, max_value=bits))
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 1 << bits, size=n)
    indices = [x] + [
        np.clip(x + rng.integers(-9, 10, size=n), 0, (1 << bits) - 1) for _ in range(parties - 1)
    ]
    indices = [v.astype(np.uint16) for v in indices]
    depths = sorted({bits, bits - shift}, reverse=True)
    *_, (depth, got) = histograms_by_depth(indices, bits, depths)
    expected = joint_cells(*(v >> shift for v in indices))  # packed at its largest index
    assert (depth, got.bits, got.ndim) == (bits - shift, bits - shift, parties)
    for i in range(parties):
        assert np.array_equal(got.coordinate(i), expected.coordinate(i))
    assert np.array_equal(got.counts, expected.counts)


def test_coarsening_to_more_codes_than_cells_counts_the_indices_again(monkeypatch):
    # The coarse code space exceeds the occupied cells, so no cell is
    # merged: the shifted indices are counted again, densely, as 2000
    # samples fill 2^6 codes.
    rng = np.random.default_rng(5)
    x = rng.integers(0, 16, size=2000)
    y = np.clip(x + rng.integers(0, 3, size=2000), 0, 15)
    by_depth = histograms_by_depth((x, y), 4, [4, 3])
    _, cells = next(by_depth)
    assert len(cells.counts) < 8 * 8
    calls = record_histograms(monkeypatch)
    _, coarse = next(by_depth)
    monkeypatch.undo()
    assert calls == [(8 * 8, 2000, False)]
    assert_same_cells(coarse, dense_cells([x >> 1, y >> 1]))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bits=st.integers(min_value=0, max_value=12),
    parties=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=3000),
    spread=st.sampled_from([1, 3, 1 << 12]),
    data=st.data(),
)
def test_the_depth_chain_merges_only_into_code_spaces_within_the_cells_above(
        seed, bits, parties, n, spread, data):
    # Each weighted count's inputs are the occupied cells above, and it
    # writes a dense array over the coarse code space; every histogram,
    # merged or counted again, is that of the shifted indices.
    depths = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=bits), min_size=1)),
                    reverse=True)
    rng = np.random.default_rng(seed)
    top = (1 << bits) - 1
    x = rng.integers(0, top + 1, size=n)
    indices = [x] + [(x + rng.integers(0, spread, size=n)) & top for _ in range(parties - 1)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = record_histograms(monkeypatch)
        yielded = list(histograms_by_depth(indices, bits, depths))
    assert all(codes <= inputs for codes, inputs, weighted in calls if weighted)
    assert [depth for depth, _ in yielded] == depths
    for depth, got in yielded:
        expected = joint_cells(*(v >> (bits - depth) for v in indices))
        assert (got.bits, got.ndim) == (depth, parties)
        for i in range(parties):
            assert np.array_equal(got.coordinate(i), expected.coordinate(i))
        assert np.array_equal(got.counts, expected.counts)


def test_the_depth_chain_holds_one_histogram_at_a_time():
    # Each histogram, and its arrays, dies once the next depth is yielded
    # and the caller's loop variable moves on, whether the next one was
    # sorted, counted again or merged: a cell's peak memory rests on this.
    rng = np.random.default_rng(6)
    indices = [rng.integers(0, 1 << 10, size=5000).astype(np.uint16) for _ in range(3)]
    for k in (2, 3):
        above = []
        for depth, cells in histograms_by_depth(indices[:k], 10, range(10, -1, -1)):
            assert all(ref() is None for ref in above)
            above = [weakref.ref(cells), weakref.ref(cells.codes), weakref.ref(cells.counts)]
        assert depth == 0


def test_plugin_mi_of_a_triple_holds_four_arrays_per_cell():
    # At its peak, `plugin_mi` of a triple holds `p`, one reused code buffer
    # and two gathered marginals, 8 bytes per occupied cell each (32.5 here,
    # with the small marginal bincounts of 6-bit indices). A fresh code per
    # marginal, or a gather by `np.take`'s default mode="raise", which
    # buffers its `out`, adds one more array: 40 bytes per cell.
    rng = np.random.default_rng(3)
    n = 200_000
    a = rng.integers(0, 64, size=n)
    b, e = ((a + rng.integers(0, 32, size=n)) % 64 for _ in range(2))
    cells = joint_cells(a, b, e)
    expected = plugin_mi(cells)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        assert plugin_mi(cells) == expected
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak / len(cells.codes) <= 36


@pytest.mark.parametrize("bits", [8, 9])
def test_plugin_mi_raises_on_a_triple_above_cmi_max_bits(bits):
    # A triple's (x, z) and (y, z) marginals span 2^(2 b) codes, within
    # `plugin_mi`'s own bound of 2^16 up to CMI_MAX_BITS = 8 bits.
    rng = np.random.default_rng(bits)
    top = (1 << bits) - 1
    x = rng.integers(0, top + 1, size=5000)
    x[0] = top
    y, z = ((x + rng.integers(0, 4, size=5000)) & top for _ in range(2))
    cells = joint_cells(x, y, z)
    assert cells.bits == bits
    if bits <= CMI_MAX_BITS:
        assert plugin_mi(cells) == conditional_mi(x, y, z).value > 0
    else:
        for estimate in (lambda: plugin_mi(cells), lambda: conditional_mi(x, y, z)):
            with pytest.raises(AlphabetCapacityError, match="up to 8 bits per index, got 9"):
                estimate()


def test_symbol_mi_of_a_wide_index_allocates_within_the_rule(monkeypatch):
    # The widest bin index, 2^16 - 1, packs a pair's codes at 32 bits, a code
    # space wider than N, so the cells are sorted, and each marginal spans
    # the 2^16 codes of one MAX_BITS index, `plugin_mi`'s own bound; the
    # value is that of the same data relabelled to small indices.
    rng = np.random.default_rng(20)
    n = 100
    a = rng.integers(0, 10, size=n)
    a[0] = (1 << 16) - 1
    b = np.minimum(a, 11) + rng.integers(0, 2, size=n)
    small = np.unique(a, return_inverse=True)[1]
    expected = mutual_information_symbols(small, b).value
    bincounts = record(monkeypatch, "bincount")
    value = mutual_information_symbols(a, b).value
    monkeypatch.undo()
    assert bincounts and max(len(r) for r in bincounts) <= max(n, 1 << 16)
    assert value == expected > 0


tables_2x2 = st.lists(
    st.lists(st.sampled_from([0, 1, 2, 3, 7, 100, 12345, 2**40 + 1]), min_size=4, max_size=4),
    min_size=1, max_size=30,
).filter(lambda rows: all(sum(r) > 0 for r in rows))


@settings(max_examples=200, deadline=None)
@given(rows=tables_2x2)
def test_batched_2x2_mi_equals_plugin_mi_bit_for_bit(rows):
    tables = np.array(rows, dtype=np.int64).reshape(-1, 2, 2)
    got = plugin_mi_2x2(tables)
    for table, value in zip(tables, got):
        assert value == plugin_mi(table_cells(table))


def test_batched_2x2_mi_on_random_tables():
    rng = np.random.default_rng(2)
    tables = rng.integers(0, 10**6, size=(5000, 2, 2))
    tables[::3, rng.integers(0, 2)] = 0  # empty rows
    tables[1::3, :, rng.integers(0, 2)] = 0  # empty columns
    tables[tables.sum(axis=(1, 2)) == 0] = 1
    # Independent tables whose terms round to a negative sum, clamped to 0.
    tables[:4] = [[[868, 756], [1426, 1242]], [[96, 360], [84, 315]],
                  [[494, 1178], [247, 589]], [[1247, 203], [1548, 252]]]
    got = plugin_mi_2x2(tables)
    assert (got[:4] == 0.0).all()
    for table, value in zip(tables, got):
        assert value == plugin_mi(table_cells(table))


def test_bitwise_mi_of_a_stack_sums_each_table_in_bit_order():
    rng = np.random.default_rng(3)
    stack = rng.integers(0, 50, size=(40, 12, 2, 2)) + 1
    totals = bitwise_mi_from_tables(stack)
    assert totals.shape == (40,)
    for tables, total in zip(stack, totals):
        expected = 0.0
        for table in tables:
            expected += plugin_mi(table_cells(table))
        assert total == expected
        assert bitwise_mi_from_tables(tables) == expected
    # As `label_bit_tables` stacks them: (pairs, codebooks, b, 2, 2).
    assert np.array_equal(bitwise_mi_from_tables(stack.reshape(4, 10, 12, 2, 2)),
                          totals.reshape(4, 10))


def test_bit_error_rate_of_a_stack_equals_each_codebooks_rate():
    rng = np.random.default_rng(4)
    stack = rng.integers(0, 1 << 40, size=(3, 3, 16, 2, 2))
    rates = bit_error_rate_from_tables(stack)
    assert rates.shape == (3, 3)
    for tables, rate in zip(stack.reshape(9, 16, 2, 2), rates.ravel()):
        errors = int(tables[:, 0, 1].sum()) + int(tables[:, 1, 0].sum())
        assert rate == bit_error_rate_from_tables(tables) == errors / int(tables.sum())


@pytest.mark.parametrize("bits", [1, 4, 8, 12, 16])
@pytest.mark.parametrize("numbering", list(Numbering))
def test_label_bit_tables_equal_the_gathered_label_formula(bits, numbering):
    # The formula the histogram form replaced: expand each cell's labels
    # to b bits and weight them by the cell counts. All three numberings
    # share one call, ``numbering`` first, so each codebook takes each packed
    # field of b bits in some case, the top one ending at bit 48 at b = 16.
    rng = np.random.default_rng(bits)
    k = 1 << bits
    a = rng.integers(0, k, size=20_000)
    b, e = (np.clip(a + rng.integers(-(k // 16), k // 16 + 1, size=a.size), 0, k - 1)
            for _ in range(2))
    order = list(Numbering)
    start = order.index(numbering)
    tables = [build_labels(n, bits) for n in order[start:] + order[:start]]
    got = party_label_tables((a, b, e), tables)
    assert got.dtype == np.int64 and got.shape == (3, len(tables), bits, 2, 2)
    for pair, (x, y) in zip(got, PAIRS):
        cells = joint_cells((a, b, e)[x], (a, b, e)[y])
        for stacked, table in zip(pair, tables):
            assert np.array_equal(stacked, gathered_label_tables(cells, table))


def gathered_label_tables(cells, table):
    """Per-bit tables by the formula the histogram form replaced, in int64: each
    cell's labels expanded to b bits and weighted by the cell counts."""
    counts = cells.counts
    lx, ly = (table.labels[cells.coordinate(i)].astype(np.int64) for i in (0, 1))
    n = counts.sum()
    ones_x, ones_y, both = counts @ lx, counts @ ly, counts @ (lx & ly)
    return np.stack(
        [n - ones_x - ones_y + both, ones_y - both, ones_x - both, both], axis=1
    ).reshape(-1, 2, 2)


def pair_cells(triple, x, y):
    """The (x, y) histogram of a triple histogram, its counts summed in int64."""
    codes = triple.coordinate(x) << triple.bits | triple.coordinate(y)
    codes, inverse = np.unique(codes, return_inverse=True)
    counts = np.zeros(codes.size, dtype=np.int64)
    np.add.at(counts, inverse, triple.counts)
    return JointCells(codes, counts, triple.bits, 2)


@pytest.mark.parametrize("bits,every_bin_once", [
    pytest.param(3, False, id="3"), pytest.param(12, False, id="12"),
    pytest.param(12, True, id="12-every-bin-once"),
])
def test_label_bit_tables_are_exact_above_two_to_the_32_samples(bits, every_bin_once):
    # Cell counts near 2^40 make a total near 2^44, past any 32-bit sum and
    # within the 2^53 up to which the float64 products are exact. The
    # distinct (A, B, E) cells of 4000 samples take the chosen counts, and
    # the pairs and marginals are their int64 sums. With every bin once, A
    # is each bin and B and E permutations of it, so each party's int64
    # marginal is near 2^40 in every bin and the total near 2^52.
    rng = np.random.default_rng(bits)
    k = 1 << bits
    if every_bin_once:
        a, b, e = np.arange(k), rng.permutation(k), rng.permutation(k)
    else:
        a = rng.integers(0, k, size=4000)
        b, e = (np.clip(a + rng.integers(-2, 3, size=a.size), 0, k - 1) for _ in range(2))
    distinct = joint_cells(a, b, e)
    counts = rng.integers(1 << 39, 1 << 40, size=distinct.codes.size)
    triple = JointCells(distinct.codes, counts, distinct.bits, 3)
    assert counts.sum() > 1 << 32
    pairs = [pair_cells(triple, x, y) for x, y in PAIRS]
    marginals = np.zeros((3, k), dtype=np.int64)
    for i, marginal in enumerate(marginals):
        np.add.at(marginal, triple.coordinate(i), triple.counts)
    tables = [build_labels(numbering, bits) for numbering in Numbering]
    got = label_bit_tables(np.stack([pair_label_counts(c, tables) for c in pairs]),
                           marginals, tables)
    for pair, cells in zip(got, pairs):
        for stacked, table in zip(pair, tables):
            assert np.array_equal(stacked, gathered_label_tables(cells, table))


@pytest.mark.parametrize("bits", [1, 5, 12])
def test_label_bit_tables_of_several_codebooks_stack_each_codebooks_tables(bits):
    rng = np.random.default_rng(bits)
    a = rng.integers(0, 1 << bits, size=5000)
    b, e = ((a + rng.integers(0, 3, size=a.size)) % (1 << bits) for _ in range(2))
    tables = [build_labels(numbering, bits) for numbering in Numbering]
    got = party_label_tables((a, b, e), tables)
    assert got.shape == (3, len(tables), bits, 2, 2)
    for i, table in enumerate(tables):
        assert np.array_equal(got[:, i], party_label_tables((a, b, e), [table])[:, 0])
