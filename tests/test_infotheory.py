import math

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
    entropy,
    mutual_information_bitwise,
    mutual_information_symbols,
    plugin_bias,
)
from slicesec.infotheory import (
    bit_error_rate_from_tables,
    bitwise_mi_from_tables,
    joint_cells,
    label_bit_tables,
)
from slicesec.slicing import BitMatrix, Numbering


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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bits=st.integers(min_value=1, max_value=6),
    numbering=st.sampled_from(list(Numbering)),
    n=st.integers(min_value=1, max_value=3000),
    noise=st.integers(min_value=0, max_value=3),
)
def test_label_bit_tables_are_marginals_of_the_symbol_joint(seed, bits, numbering, n, noise):
    # Against the BitMatrix path: expand labels to N x b bits and count per bit.
    rng = np.random.default_rng(seed)
    k = 1 << bits
    x = rng.integers(0, k, size=n)
    y = np.clip(x + rng.integers(-noise, noise + 1, size=n), 0, k - 1)
    labels = build_labels(numbering, bits).labels
    tables = label_bit_tables(*joint_cells(x, y, k), labels)

    bx, by = labels[x], labels[y]
    for j in range(bits):
        expected = np.bincount(2 * bx[:, j] + by[:, j], minlength=4).reshape(2, 2)
        assert np.array_equal(tables[j], expected)
    assert (bitwise_mi_from_tables(tables)
            == mutual_information_bitwise(matrix(bx), matrix(by)).value)
    assert bit_error_rate_from_tables(tables) == bit_error_rate(matrix(bx), matrix(by))


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
        MIEstimate(value=-0.1, alphabet_sizes=(2, 2), n=10)


def test_plugin_bias_oracle_scale():
    assert plugin_bias(16, 16, 1_000_000) == pytest.approx(
        225 / (2e6 * math.log(2)), abs=1e-12
    )
