"""The four sampling models and the cross-model simulation.

Each model has one counts core: an int64 array of per-color counts aligned
with ``urn.colors``, which is all a fingerprint needs.  The ``SampleBatch``
draw lists, for ``urncount simulate`` and callers that want the draws
themselves, are views over the same cores.

All samplers are pure functions of (urn, parameters, stream): identical
inputs reproduce identical outputs byte for byte, and the stream advances
exactly as one scalar ``RngStream`` call per draw, color or chunk would
advance it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream, binomial_chunk_max, binomial_inversion, poisson_inversion
from .urn import UrnSpec

MODEL_MULTINOMIAL = "multinomial"
MODEL_HYPERGEOMETRIC = "hypergeometric"
MODEL_BERNOULLI = "bernoulli"
MODEL_POISSONIZED = "poissonized"
MODEL_SIMULATED = "simulated-with-replacement"

# Colors per Bernoulli uniform block (at most 64 uniforms each unless chunked),
# so memory stays flat in k.
_COLOR_BLOCK = 4096


@dataclass(frozen=True)
class SampleBatch:
    """An ordered list of observed color ids plus the realized sample size."""

    draws: tuple[int, ...]
    nominal_size: int
    model_tag: str

    @property
    def realized_size(self) -> int:
        return len(self.draws)


def _expand(urn: UrnSpec, counts: np.ndarray) -> list[int]:
    """Each color id repeated by its count, in canonical color order."""
    return np.repeat(urn.ids, counts).tolist()


def _multinomial_index(urn: UrnSpec, n: int, rng: RngStream) -> np.ndarray:
    """Color index of each of n independent draws, in draw order."""
    if n < 0:
        raise ValueError("sample size must be >= 0")
    balls = rng.randbelow_many(urn.k, n)
    return np.searchsorted(np.cumsum(urn.mults), balls, side="right")


def multinomial_counts(urn: UrnSpec, n: int, rng: RngStream) -> np.ndarray:
    """Per-color counts of n independent draws, color i with probability k_i / k."""
    return np.bincount(_multinomial_index(urn, n, rng), minlength=urn.C)


def draw_with_replacement(urn: UrnSpec, n: int, rng: RngStream) -> SampleBatch:
    """n independent draws, color i with probability k_i / k."""
    draws = urn.ids[_multinomial_index(urn, n, rng)].tolist()
    return SampleBatch(tuple(draws), n, MODEL_MULTINOMIAL)


def _hypergeometric_index(urn: UrnSpec, n: int, rng: RngStream) -> list[int]:
    """Color indices of a uniformly random size-n sub-multiset, in random order.

    Partial Fisher-Yates over the expanded ball array; O(k) memory.
    """
    if n < 0:
        raise ValueError("sample size must be >= 0")
    if n > urn.k:
        raise ValueError(f"cannot draw {n} balls without replacement from a {urn.k}-ball urn")
    balls = np.repeat(np.arange(urn.C), urn.mults).tolist()
    rng.partial_shuffle(balls, n)
    return balls[:n]


def hypergeometric_counts(urn: UrnSpec, n: int, rng: RngStream) -> np.ndarray:
    """Per-color counts of a uniformly random size-n sub-multiset."""
    index = np.array(_hypergeometric_index(urn, n, rng), dtype=np.int64)
    return np.bincount(index, minlength=urn.C)


def draw_without_replacement(urn: UrnSpec, n: int, rng: RngStream) -> SampleBatch:
    """A uniformly random size-n sub-multiset of the urn, in random order."""
    draws = urn.ids[_hypergeometric_index(urn, n, rng)].tolist()
    return SampleBatch(tuple(draws), n, MODEL_HYPERGEOMETRIC)


def bernoulli_counts(urn: UrnSpec, p: float, rng: RngStream) -> np.ndarray:
    """Per-color inclusion counts Binomial(k_i, p), each ball kept with probability p.

    Each color uses the stream as ``rng.binomial(k_i, p)`` does, and that use
    is fixed in advance: k_i coin-flip uniforms when k_i <= 64, otherwise one
    uniform per inversion chunk, and none at p in {0, 1}.  So the colors share
    uniform blocks drawn in canonical color order.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("inclusion probability must lie in [0, 1]")
    mults = urn.mults
    if p == 0.0:
        return np.zeros(urn.C, dtype=np.int64)
    if p == 1.0:
        return mults.copy()
    chunk_max = binomial_chunk_max(p)
    chunked = mults > 64
    use = np.where(chunked, -(-mults // chunk_max), mults)  # uniforms per color
    out = np.empty(urn.C, dtype=np.int64)
    for c0 in range(0, urn.C, _COLOR_BLOCK):
        block = slice(c0, c0 + _COLOR_BLOCK)
        u = rng.uniforms(int(use[block].sum()))
        offsets = np.cumsum(use[block]) - use[block]
        out[block] = np.add.reduceat(u < p, offsets, dtype=np.int64)
        for c in np.flatnonzero(chunked[block]).tolist():
            remaining, total = int(mults[c0 + c]), 0
            for x in u[offsets[c]:offsets[c] + use[c0 + c]].tolist():
                size = min(remaining, chunk_max)
                total += binomial_inversion(size, p, x)
                remaining -= size
            out[c0 + c] = total
    return out


def draw_bernoulli(urn: UrnSpec, p: float, rng: RngStream) -> SampleBatch:
    """Each of the k balls included independently with probability p.

    Draws are emitted in canonical color order; downstream consumers use
    counts only.
    """
    draws = _expand(urn, bernoulli_counts(urn, p, rng))
    return SampleBatch(tuple(draws), int(round(urn.k * p)), MODEL_BERNOULLI)


def poissonized_color_counts(urn: UrnSpec, n: float, rng: RngStream) -> np.ndarray:
    """Per-color counts N_i ~ Poisson(n * k_i / k), aligned with urn.colors.

    Colors take the stream in canonical order, as ``rng.poisson`` per color
    would: a color with mean below 30 takes one uniform and inverts it through
    its mean's CDF table; a heavier color runs PTRS rejection.  Each run of
    light colors between heavy ones draws its uniforms as one block, and the
    inversion runs once per distinct multiplicity.
    """
    if n < 0:
        raise ValueError("expected sample size must be >= 0")
    out = np.zeros(urn.C, dtype=np.int64)
    if n == 0:
        return out
    values, order, bounds = urn.mult_groups
    means = [n * mult / urn.k for mult in values.tolist()]
    light = sum(1 for lam in means if lam < 30.0)  # means increase with the multiplicity
    u = np.empty(urn.C)
    start = 0
    if light < len(means):
        for h in np.flatnonzero(urn.mults >= values[light]).tolist():
            u[start:h] = rng.uniforms(h - start)
            out[h] = rng._poisson_ptrs(n * int(urn.mults[h]) / urn.k)
            start = h + 1
    u[start:] = rng.uniforms(urn.C - start)
    for g in range(light):
        idx = order[bounds[g]:bounds[g + 1]]
        out[idx] = poisson_inversion(means[g], u[idx])
    return out


def draw_poissonized(urn: UrnSpec, n: float, rng: RngStream) -> SampleBatch:
    """Poisson sampling model: independent per-color counts, total ~ Poi(n).

    The draw list is a uniformly shuffled expansion of the counts; only the
    counts carry information.
    """
    draws = _expand(urn, poissonized_color_counts(urn, n, rng))
    rng.shuffle(draws)
    return SampleBatch(tuple(draws), int(n), MODEL_POISSONIZED)


def simulate_with_from_without(batch: SampleBatch, k: int, rng: RngStream) -> SampleBatch:
    """Turn a without-replacement sample into a with-replacement one.

    Draw i keeps Y_i with probability 1 - (i-1)/k and otherwise reuses an
    earlier output position chosen uniformly; the result is distributed
    exactly as n independent draws.
    """
    n = batch.realized_size
    if n > k:
        raise ValueError(f"batch of size {n} cannot come from a {k}-ball urn")
    ys = batch.draws
    out: list[int] = []
    for i in range(1, n + 1):
        if i > 1 and rng.random() < (i - 1) / k:
            out.append(ys[rng.randbelow(i - 1)])
        else:
            out.append(ys[i - 1])
    return SampleBatch(tuple(out), n, MODEL_SIMULATED)
