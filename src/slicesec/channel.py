"""Beamsplitter channel model with counter-based, splittable random streams.

Alice draws zero-mean Gaussian modulation data; Bob and Eve receive
complementary beamsplitter fractions of it plus independent Gaussian noise.
Every random draw is keyed by (master seed, tag tuple) through the Philox
counter-based generator, so any sub-stream can be regenerated in isolation
and parallel schedules cannot perturb results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

# Purpose tags for the per-realization sub-streams.
ALICE_STREAM = 0
BOB_NOISE_STREAM = 1
EVE_NOISE_STREAM = 2


class InfiniteInformationError(ValueError):
    """The analytic channel has exactly zero noise variance."""


def check_integer(name: str, value) -> None:
    """Reject a ``value`` that is not an int or a numpy integer; a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value) -> None:
    """Reject a ``value`` that is not an integer >= 1 (see `check_integer`)."""
    check_integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_transmission(t) -> None:
    """Reject a transmission outside [0, 1]; NaN is outside, a bool is no number."""
    if isinstance(t, bool) or not isinstance(t, numbers.Real):
        raise ValueError(f"transmission must be a number, got {t!r}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmission {t} outside [0, 1]")


def _check_u64(name: str, value: int) -> None:
    """Seeds and tags enter the Philox key as u64 words; a larger value would
    alias itself mod 2^64 while reporting itself unchanged."""
    check_integer(name, value)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {value}")


@dataclass(frozen=True)
class Stream:
    """Identifier of one deterministic random sub-stream.

    ``seed`` is the u64 master seed; ``tags`` is a tuple of u64 integers
    (sweep cell index, purpose, ...) folded into the Philox key.
    The same Stream always yields the same draws, and distinct tag tuples
    yield statistically independent streams.
    """

    seed: int
    tags: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_u64("seed", self.seed)
        for tag in self.tags:
            _check_u64("tag", tag)

    def generator(self) -> np.random.Generator:
        # Fold the tag tuple into the second 64-bit key word (splitmix64-style
        # mixing), keeping the master seed verbatim in the first word.
        mask = 0xFFFFFFFFFFFFFFFF
        folded = 0x9E3779B97F4A7C15
        for tag in self.tags:
            folded = ((folded ^ tag) * 0xBF58476D1CE4E5B9) & mask
            folded ^= folded >> 31
        key = np.array([self.seed, folded], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *tags: int) -> "Stream":
        return Stream(self.seed, self.tags + tags)


@dataclass(frozen=True)
class ChannelParams:
    """Physical and sampling parameters of one simulated channel.

    ``seed`` is the u64 master seed of `Stream`. The fields are exactly the
    three inputs that a sweep's CSV row records. Alice's and the vacuum's
    standard deviations are the paper's unit constants (shot-noise units),
    which `transmit` applies to its unit normal draws.
    """

    sigma_alice: ClassVar[float] = 1.0
    sigma_vacuum: ClassVar[float] = 1.0
    transmission: float
    samples: int = 200_000
    seed: int = 42

    def __post_init__(self) -> None:
        check_transmission(self.transmission)
        check_count("samples", self.samples)
        _check_u64("seed", self.seed)


@dataclass(frozen=True)
class ChannelRealization:
    """Correlated (alice, bob, eve) sample triple from one transmission."""

    alice: np.ndarray
    bob: np.ndarray
    eve: np.ndarray
    params: ChannelParams

    def __post_init__(self) -> None:
        n = len(self.alice)
        if len(self.bob) != n or len(self.eve) != n:
            raise ValueError("alice/bob/eve vectors must have identical length")
        for arr in (self.alice, self.bob, self.eve):
            arr.setflags(write=False)


def gaussian_source(n: int, stream: Stream) -> np.ndarray:
    """Draw n i.i.d. unit normal samples, N(0, 1), fully determined by stream."""
    check_count("n", n)
    return stream.generator().standard_normal(n)


def transmit(params: ChannelParams, base_stream: Stream | None = None) -> ChannelRealization:
    """Generate one channel realization.

    alice = sigma_alice * a,
    bob = sqrt(T) * alice + (sqrt(1-T) * sigma_vacuum) * v,
    eve = sqrt(1-T) * alice + (sqrt(T) * sigma_vacuum) * w,
    where a, v and w are independent unit normal draws from disjoint
    sub-streams, each scaled in place: a by sigma_alice, v and w by the
    factors in parentheses.

    ``base_stream`` defaults to Stream(params.seed); sweeps pass a child
    stream per transmission cell. Bob's and Eve's samples are mixed in
    place into their noise draws, so the four N-sample arrays that are
    alive at once (Alice's, both draws and one product) are the peak. IEEE
    addition commutes, so (sqrt(1-T) * sigma_vacuum) * v + sqrt(T) * alice
    is the formula's bob bit for bit, and likewise eve.
    """
    if base_stream is None:
        base_stream = Stream(params.seed)
    t = params.transmission
    n = params.samples

    alice = gaussian_source(n, base_stream.child(ALICE_STREAM))
    alice *= params.sigma_alice
    ct, cr = math.sqrt(t), math.sqrt(1.0 - t)

    v = gaussian_source(n, base_stream.child(BOB_NOISE_STREAM))
    w = gaussian_source(n, base_stream.child(EVE_NOISE_STREAM))
    v *= cr * params.sigma_vacuum
    v += ct * alice
    w *= ct * params.sigma_vacuum
    w += cr * alice
    return ChannelRealization(alice=alice, bob=v, eve=w, params=params)


def analytic_gaussian_mi(params: ChannelParams, party: str) -> float:
    """Closed-form Alice<->party mutual information of the continuous channel, in bits.

    Used only as an oracle for estimator sanity checks; the simulator itself
    never consumes it.
    """
    t = params.transmission
    if party == "bob":
        signal = t * params.sigma_alice**2
        noise = (1.0 - t) * params.sigma_vacuum**2
    elif party == "eve":
        signal = (1.0 - t) * params.sigma_alice**2
        noise = t * params.sigma_vacuum**2
    else:
        raise ValueError(f"party must be 'bob' or 'eve', got {party!r}")

    if signal == 0.0:
        return 0.0
    if noise == 0.0:
        raise InfiniteInformationError(
            f"noise variance for {party} is exactly zero: mutual information is infinite"
        )
    return 0.5 * math.log2(1.0 + signal / noise)

