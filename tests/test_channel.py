import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesec import (
    ChannelParams,
    InfiniteInformationError,
    Stream,
    analytic_gaussian_mi,
    channel,
    gaussian_source,
    transmit,
)
from slicesec.channel import ALICE_STREAM, BOB_NOISE_STREAM, EVE_NOISE_STREAM
from slicesec.cli import CSV_FIELDS

N_BIG = 1_000_000
# 3-standard-error bands at N = 10^6: SE(mean) = sigma/sqrt(N),
# SE(var) ~ sqrt(2/N) sigma^2, SE(corr) ~ 1/sqrt(N).
MEAN_TOL = 0.004
VAR_TOL = 0.01
CORR_TOL = 0.004


def test_gaussian_source_is_deterministic():
    s = Stream(123, (5,))
    a = gaussian_source(4, 1.0, s)
    b = gaussian_source(4, 1.0, s)
    assert np.array_equal(a, b)


def test_gaussian_source_moments():
    x = gaussian_source(N_BIG, 1.0, Stream(9))
    assert abs(x.mean()) < MEAN_TOL
    assert abs(x.var() - 1.0) < VAR_TOL


def test_distinct_streams_are_uncorrelated():
    x = gaussian_source(N_BIG, 1.0, Stream(9, (0,)))
    y = gaussian_source(N_BIG, 1.0, Stream(9, (1,)))
    assert abs(np.corrcoef(x, y)[0, 1]) < CORR_TOL


@pytest.mark.parametrize("n,sigma", [
    (0, 1.0), (10, 0.0), (10, -1.0), (10.0, 1.0), (True, 1.0),
    (10, math.nan), (10, math.inf), (10, -math.inf), (10, True), (10, np.bool_(True)),
])
def test_gaussian_source_rejects_bad_args(n, sigma):
    with pytest.raises(ValueError):
        gaussian_source(n, sigma, Stream(0))


@pytest.mark.parametrize("kwargs", [
    dict(transmission=-0.1),
    dict(transmission=1.1),
    dict(transmission=0.5, samples=0),
    dict(transmission=0.5, seed=-1),
    dict(transmission=0.5, seed=2**64),
    # A bool compares as 0 or 1, so the range rule alone would take it.
    dict(transmission=True, samples=100),
])
def test_channel_params_validation(kwargs):
    with pytest.raises(ValueError):
        ChannelParams(**kwargs)


def test_channel_params_are_the_inputs_a_row_records():
    # A channel field that no CSV column records makes a row read back as a
    # default row, so every field is a column and the sigmas are constants.
    fields = {f.name for f in dataclasses.fields(ChannelParams)}
    assert fields == {"transmission", "samples", "seed"}
    # Each column and the `SecrecyReport` attribute it prints.
    assert {col: CSV_FIELDS[col] for col in fields} == {
        "transmission": "transmission", "samples": "n", "seed": "seed"}
    with pytest.raises(TypeError):
        ChannelParams(transmission=0.5, sigma_alice=2.0)
    with pytest.raises(TypeError):
        dataclasses.replace(ChannelParams(transmission=0.5), sigma_vacuum=0.0)


def test_channel_params_reject_a_transmission_that_is_not_a_number():
    # A string would otherwise fail the range rule's comparison with a TypeError.
    with pytest.raises(ValueError, match=r"^transmission must be a number, got '0\.5'$"):
        ChannelParams(transmission="0.5")


def test_largest_u64_seed_is_accepted():
    assert ChannelParams(transmission=0.5, seed=2**64 - 1).seed == 2**64 - 1


def test_transmit_is_deterministic():
    params = ChannelParams(transmission=0.3, samples=1000, seed=77)
    r1 = transmit(params)
    r2 = transmit(params)
    assert np.array_equal(r1.alice, r2.alice)
    assert np.array_equal(r1.bob, r2.bob)
    assert np.array_equal(r1.eve, r2.eve)


def test_full_transmission_is_identity_for_bob():
    r = transmit(ChannelParams(transmission=1.0, samples=N_BIG, seed=1))
    assert np.array_equal(r.bob, r.alice)
    assert abs(np.corrcoef(r.alice, r.eve)[0, 1]) < CORR_TOL


def test_zero_transmission_mirrors_to_eve():
    r = transmit(ChannelParams(transmission=0.0, samples=N_BIG, seed=1))
    assert np.array_equal(r.eve, r.alice)
    assert abs(np.corrcoef(r.alice, r.bob)[0, 1]) < CORR_TOL


def test_half_transmission_statistics():
    # Var(bob) = T sigma_A^2 + (1-T) sigma_v^2 = 1; corr(alice, bob) = sqrt(T)
    r = transmit(ChannelParams(transmission=0.5, samples=N_BIG, seed=3))
    assert abs(r.bob.var() - 1.0) < VAR_TOL
    assert abs(r.eve.var() - 1.0) < VAR_TOL
    assert abs(np.corrcoef(r.alice, r.bob)[0, 1] - math.sqrt(0.5)) < 0.005


def test_variance_law_with_asymmetric_sigmas(monkeypatch):
    # `transmit` scales by the class constants, whatever their values.
    monkeypatch.setattr(ChannelParams, "sigma_alice", 1.3)
    monkeypatch.setattr(ChannelParams, "sigma_vacuum", 0.7)
    r = transmit(ChannelParams(transmission=0.3, samples=N_BIG, seed=5))
    expected = 0.3 * 1.3**2 + 0.7 * 0.7**2
    band = 3.0 * math.sqrt(2.0 / N_BIG) * expected
    assert abs(r.bob.var() - expected) < band


def test_bob_eve_exchange_symmetry_is_exact(monkeypatch):
    # Swapping the noise streams and sending T -> 1-T exchanges Bob's and
    # Eve's roles bit-for-bit, not just statistically. T is chosen so that
    # both T and 1-T are exactly representable doubles.
    t = 0.25
    pt = ChannelParams(transmission=t, samples=2000, seed=11)
    pc = ChannelParams(transmission=1.0 - t, samples=2000, seed=11)
    mirrored = transmit(pc)
    monkeypatch.setattr(channel, "BOB_NOISE_STREAM", EVE_NOISE_STREAM)
    monkeypatch.setattr(channel, "EVE_NOISE_STREAM", BOB_NOISE_STREAM)
    swapped = transmit(pt)
    assert np.array_equal(swapped.alice, mirrored.alice)
    assert np.array_equal(swapped.bob, mirrored.eve)
    assert np.array_equal(swapped.eve, mirrored.bob)


@pytest.mark.parametrize("t", [0.0, 0.05, 0.5, 1.0])
def test_in_place_mix_is_the_formula_bit_for_bit(t):
    # `transmit` mixes Bob's and Eve's samples into their noise draws in
    # place; every float, signed zeros included, is the textbook formula's.
    params = ChannelParams(transmission=t, samples=4000, seed=21)
    r = transmit(params)
    base = Stream(params.seed)
    alice = gaussian_source(params.samples, params.sigma_alice, base.child(ALICE_STREAM))
    v = gaussian_source(params.samples, params.sigma_vacuum, base.child(BOB_NOISE_STREAM))
    w = gaussian_source(params.samples, params.sigma_vacuum, base.child(EVE_NOISE_STREAM))
    bob = math.sqrt(t) * alice + math.sqrt(1 - t) * v
    eve = math.sqrt(1 - t) * alice + math.sqrt(t) * w
    assert np.array_equal(r.alice.view(np.uint64), alice.view(np.uint64))
    assert np.array_equal(r.bob.view(np.uint64), bob.view(np.uint64))
    assert np.array_equal(r.eve.view(np.uint64), eve.view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=256),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_transmit_shape_and_determinism_property(t, n, seed):
    params = ChannelParams(transmission=t, samples=n, seed=seed)
    r1 = transmit(params)
    r2 = transmit(params)
    assert len(r1.alice) == len(r1.bob) == len(r1.eve) == n
    assert np.array_equal(r1.bob, r2.bob) and np.array_equal(r1.eve, r2.eve)


def test_analytic_mi_values():
    assert analytic_gaussian_mi(ChannelParams(0.5), "bob") == pytest.approx(0.5)
    assert analytic_gaussian_mi(ChannelParams(0.0), "bob") == 0.0
    assert analytic_gaussian_mi(ChannelParams(0.8), "bob") == pytest.approx(
        0.5 * math.log2(5.0), abs=1e-12
    )
    # mirror symmetry between the two receivers
    assert analytic_gaussian_mi(ChannelParams(0.3), "eve") == pytest.approx(
        analytic_gaussian_mi(ChannelParams(0.7), "bob")
    )


def test_analytic_mi_zero_noise_signals_infinity():
    with pytest.raises(InfiniteInformationError):
        analytic_gaussian_mi(ChannelParams(1.0), "bob")
    with pytest.raises(ValueError):
        analytic_gaussian_mi(ChannelParams(0.5), "mallory")



@pytest.mark.parametrize("seed,tags", [
    (-1, ()), (2**64, ()), (2**64 + 42, ()), (0, (-1,)), (0, (2**64,)), (0, (1, 2**64 + 1)),
])
def test_stream_rejects_values_outside_u64(seed, tags):
    # Each would alias its value mod 2^64 in the Philox key.
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\^64\)"):
        Stream(seed, tags)


@pytest.mark.parametrize("field, kwargs", [
    ("seed", dict(seed=1.5)),
    ("seed", dict(seed=True)),
    ("seed", dict(seed=42.0)),
    ("samples", dict(samples=2000.0)),
    ("samples", dict(samples=True)),
], ids=["float-seed", "bool-seed", "integral-float-seed", "float-samples", "bool-samples"])
def test_channel_params_reject_a_float_or_bool_count(field, kwargs):
    # A seed of 1.5 would draw seed 1's samples and print 1.5 in the CSV's seed column.
    with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
        ChannelParams(transmission=0.5, **kwargs)


@pytest.mark.parametrize("seed, tags, field", [
    (1.5, (), "seed"), (False, (), "seed"), (0, (2.0,), "tag"), (0, (True,), "tag"),
])
def test_stream_rejects_a_float_or_bool_seed_or_tag(seed, tags, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
        Stream(seed, tags)


def test_numpy_integers_are_integers():
    given = transmit(ChannelParams(transmission=0.5, samples=np.int64(8), seed=np.uint64(3)))
    assert np.array_equal(given.bob, transmit(ChannelParams(0.5, samples=8, seed=3)).bob)


def test_child_tags_are_checked():
    with pytest.raises(ValueError, match=r"tag must lie in \[0, 2\^64\)"):
        Stream(42).child(-1)


def test_largest_u64_seed_and_tag_draw():
    top = 2**64 - 1
    a = gaussian_source(4, 1.0, Stream(top, (top,)))
    b = gaussian_source(4, 1.0, Stream(top, (top - 1,)))
    assert np.isfinite(a).all() and not np.array_equal(a, b)
