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
    gaussian_source,
    transmit,
)
from slicesec.channel import BOB_NOISE_STREAM, EVE_NOISE_STREAM

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


@pytest.mark.parametrize("n,sigma", [(0, 1.0), (10, 0.0), (10, -1.0)])
def test_gaussian_source_rejects_bad_args(n, sigma):
    with pytest.raises(ValueError):
        gaussian_source(n, sigma, Stream(0))


@pytest.mark.parametrize("kwargs", [
    dict(transmission=-0.1),
    dict(transmission=1.1),
    dict(transmission=0.5, sigma_alice=0.0),
    dict(transmission=0.5, samples=0),
    dict(transmission=0.5, seed=-1),
    dict(transmission=0.5, seed=2**64),
    dict(transmission=0.5, sigma_alice=math.nan),
    dict(transmission=0.5, sigma_alice=math.inf),
    dict(transmission=0.5, sigma_vacuum=math.nan),
])
def test_channel_params_validation(kwargs):
    with pytest.raises(ValueError):
        ChannelParams(**kwargs)


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


def test_variance_law_with_asymmetric_sigmas():
    params = ChannelParams(transmission=0.3, sigma_alice=1.3, sigma_vacuum=0.7,
                           samples=N_BIG, seed=5)
    r = transmit(params)
    expected = 0.3 * 1.3**2 + 0.7 * 0.7**2
    band = 3.0 * math.sqrt(2.0 / N_BIG) * expected
    assert abs(r.bob.var() - expected) < band


def test_bob_eve_exchange_symmetry_is_exact():
    # Swapping the noise streams and sending T -> 1-T exchanges Bob's and
    # Eve's roles bit-for-bit, not just statistically. T is chosen so that
    # both T and 1-T are exactly representable doubles.
    t = 0.25
    pt = ChannelParams(transmission=t, samples=2000, seed=11)
    pc = ChannelParams(transmission=1.0 - t, samples=2000, seed=11)
    swapped = transmit(pt, bob_noise_tag=EVE_NOISE_STREAM, eve_noise_tag=BOB_NOISE_STREAM)
    mirrored = transmit(pc)
    assert np.array_equal(swapped.alice, mirrored.alice)
    assert np.array_equal(swapped.bob, mirrored.eve)
    assert np.array_equal(swapped.eve, mirrored.bob)


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

