"""Beamsplitter channel model with counter-based, splittable random streams.

Alice draws zero-mean Gaussian modulation data; Bob and Eve receive
complementary beamsplitter fractions of it plus independent Gaussian noise.
Every random draw is keyed by (master seed, tag tuple) through the Philox
counter-based generator, so any sub-stream can be regenerated in isolation
and parallel schedules cannot perturb results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Purpose tags for the per-realization sub-streams.
ALICE_STREAM = 0
BOB_NOISE_STREAM = 1
EVE_NOISE_STREAM = 2


class InfiniteInformationError(ValueError):
    """The analytic channel has exactly zero noise variance."""


@dataclass(frozen=True)
class Stream:
    """Identifier of one deterministic random sub-stream.

    ``seed`` is the 64-bit master seed; ``tags`` is a tuple of small
    integers (sweep cell index, purpose, ...) folded into the Philox key.
    The same Stream always yields the same draws, and distinct tag tuples
    yield statistically independent streams.
    """

    seed: int
    tags: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        # Fold the tag tuple into the second 64-bit key word (splitmix64-style
        # mixing), keeping the master seed verbatim in the first word.
        mask = 0xFFFFFFFFFFFFFFFF
        folded = 0x9E3779B97F4A7C15
        for tag in self.tags:
            folded = (folded ^ (tag & mask)) & mask
            folded = (folded * 0xBF58476D1CE4E5B9) & mask
            folded ^= folded >> 31
        key = np.array([self.seed & mask, folded], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *tags: int) -> "Stream":
        return Stream(self.seed, self.tags + tags)


@dataclass(frozen=True)
class ChannelParams:
    """Physical and sampling parameters of one simulated channel.

    ``seed`` is the u64 master seed; a larger value would alias seed mod
    2^64 in the Philox key while reporting itself unchanged.
    """

    transmission: float
    sigma_alice: float = 1.0
    sigma_vacuum: float = 1.0
    samples: int = 200_000
    seed: int = 42

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError(f"transmission must lie in [0, 1], got {self.transmission}")
        if not 0 < self.sigma_alice < math.inf:
            raise ValueError(f"sigma_alice must be positive and finite, got {self.sigma_alice}")
        if not 0 <= self.sigma_vacuum < math.inf:
            raise ValueError(
                f"sigma_vacuum must be nonnegative and finite, got {self.sigma_vacuum}"
            )
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


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


def gaussian_source(n: int, sigma: float, stream: Stream) -> np.ndarray:
    """Draw n i.i.d. samples from N(0, sigma^2), fully determined by stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return stream.generator().normal(0.0, sigma, size=n)


def transmit(
    params: ChannelParams,
    base_stream: Stream | None = None,
    bob_noise_tag: int = BOB_NOISE_STREAM,
    eve_noise_tag: int = EVE_NOISE_STREAM,
) -> ChannelRealization:
    """Generate one channel realization.

    bob = sqrt(T) * alice + sqrt(1-T) * v,  eve = sqrt(1-T) * alice + sqrt(T) * w,
    with v, w independent N(0, sigma_vacuum^2) noise from disjoint sub-streams.

    ``base_stream`` defaults to Stream(params.seed); sweeps pass a child
    stream per transmission cell. The noise tags exist so the exact Bob/Eve
    exchange symmetry (swap noise streams, T -> 1-T) is testable bit-for-bit.
    """
    if base_stream is None:
        base_stream = Stream(params.seed)
    t = params.transmission
    n = params.samples

    alice = gaussian_source(n, params.sigma_alice, base_stream.child(ALICE_STREAM))
    ct, cr = math.sqrt(t), math.sqrt(1.0 - t)

    if params.sigma_vacuum > 0:
        v = gaussian_source(n, params.sigma_vacuum, base_stream.child(bob_noise_tag))
        w = gaussian_source(n, params.sigma_vacuum, base_stream.child(eve_noise_tag))
    else:
        v = np.zeros(n)
        w = np.zeros(n)

    bob = ct * alice + cr * v
    eve = cr * alice + ct * w
    return ChannelRealization(alice=alice, bob=bob, eve=eve, params=params)


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

