"""The four sampling models and the cross-model simulation.

Each model has one counts core: an int64 array of per-color counts aligned
with ``urn.ids``, which is all a fingerprint needs.  ``sample_counts`` and
``sample_draws`` are the only places that map a model name to a sampler;
the draw lists, for ``urncount simulate`` and callers that want the draws
themselves, come from the same cores.

All samplers are pure functions of (urn, parameters, stream): identical
inputs reproduce identical outputs byte for byte, and the stream advances
exactly as one scalar ``RngStream`` call per draw, color or chunk would
advance it.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .rng import _BLOCK, RngStream, binomial_chunk_max, binomial_inversion, poisson_inversion
from .urn import UrnSpec

# every accepted model name -> its canonical name
MODEL_ALIASES = {
    "multi": "multinomial", "multinomial": "multinomial",
    "hyper": "hypergeometric", "hypergeometric": "hypergeometric",
    "bern": "bernoulli", "bernoulli": "bernoulli",
    "poi": "poissonized", "poissonized": "poissonized",
}

# Colors per Bernoulli uniform block (at most 64 uniforms each unless chunked),
# so memory stays flat in k.
_COLOR_BLOCK = 4096


def _multinomial_index(urn: UrnSpec, n: int, rng: RngStream) -> np.ndarray:
    """Color index of each of n independent draws, in draw order."""
    if n < 0:
        raise ValueError("sample size must be >= 0")
    balls = rng.randbelow_many(urn.k, n)
    return np.searchsorted(np.cumsum(urn.mults), balls, side="right")


def multinomial_counts(urn: UrnSpec, n: int, rng: RngStream) -> np.ndarray:
    """Per-color counts of n independent draws, color i with probability k_i / k."""
    return np.bincount(_multinomial_index(urn, n, rng), minlength=urn.C)


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


def bernoulli_counts(urn: UrnSpec, p: float, rng: RngStream) -> np.ndarray:
    """Per-color inclusion counts Binomial(k_i, p), each ball kept with probability p.

    Each color uses the stream as the scalar reference ``binomial(rng, k_i, p)``
    in ``tests/test_counts.py`` does, and that use is fixed in advance: k_i
    coin-flip uniforms when k_i <= 64, otherwise one uniform per inversion
    chunk, and none at p in {0, 1}.  So the colors share uniform blocks drawn
    in canonical color order.
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


def poissonized_color_counts(urn: UrnSpec, n: float, rng: RngStream) -> np.ndarray:
    """Per-color counts N_i ~ Poisson(n * k_i / k), aligned with urn.ids.

    Colors take the stream in canonical order, as the scalar reference
    ``poisson(rng, lam)`` in ``tests/test_counts.py`` would per color: a
    color with mean below 30 takes one uniform and inverts it through its
    mean's CDF and guide table (``poisson_inversion``); a heavier color runs
    PTRS rejection.  The colors go in blocks of ``_BLOCK``: each block draws
    its light colors' uniforms between its heavy colors' rejection runs.
    When the light colors share one multiplicity, the block is inverted in
    place while its uniforms are still in cache; otherwise the uniforms are
    kept and each multiplicity's colors are inverted together at the end.
    """
    if not math.isfinite(n):
        raise ValueError(f"expected sample size n must be finite, got {n}")
    if n < 0:
        raise ValueError("expected sample size must be >= 0")
    out = np.zeros(urn.C, dtype=np.int64)
    if n == 0:
        return out
    values, order, bounds = urn.mult_groups
    means = [n * mult / urn.k for mult in values.tolist()]
    light = sum(1 for lam in means if lam < 30.0)  # means increase with the multiplicity
    heavy = np.flatnonzero(urn.mults >= values[light]).tolist() if light < len(means) else []
    u = np.empty(urn.C) if light > 1 else None
    h0 = 0  # first heavy color not yet drawn
    for c0 in range(0, urn.C, _BLOCK):
        c1 = min(c0 + _BLOCK, urn.C)
        h1 = bisect.bisect_left(heavy, c1, h0)
        parts, drawn, start = [], [], c0
        for h in heavy[h0:h1]:
            # a heavy color's place in the block is inverted and then overwritten
            parts += [rng.uniforms(h - start), np.zeros(1)]
            drawn.append(rng._poisson_ptrs(n * int(urn.mults[h]) / urn.k))
            start = h + 1
        parts.append(rng.uniforms(c1 - start))
        block = np.concatenate(parts) if len(parts) > 1 else parts[0]
        if light == 1:
            out[c0:c1] = poisson_inversion(means[0], block)
        elif light > 1:
            u[c0:c1] = block
        for h, x in zip(heavy[h0:h1], drawn):
            out[h] = x
        h0 = h1
    if u is not None:
        for g in range(light):
            idx = order[bounds[g]:bounds[g + 1]]
            out[idx] = poisson_inversion(means[g], u[idx])
    return out


def sample_counts(urn: UrnSpec, model: str, n, rng: RngStream) -> np.ndarray:
    """Per-color counts of one size-n sample under the canonical ``model``.

    The Bernoulli model includes each ball with probability p = n / k.  The
    cores are looked up by name on every call, so a replacement installed at
    ``urncount.sampling.<core>`` (a test fake, a timing hook) sees every call.
    """
    if model == "multinomial":
        return multinomial_counts(urn, n, rng)
    if model == "hypergeometric":
        return hypergeometric_counts(urn, n, rng)
    if model == "bernoulli":
        return bernoulli_counts(urn, n / urn.k, rng)
    if model == "poissonized":
        return poissonized_color_counts(urn, n, rng)
    raise ValueError(f"model: unknown tag {model!r}")


def sample_draws(urn: UrnSpec, model: str, size, rng: RngStream) -> list[int]:
    """The observed color ids of one sample under the canonical ``model``.

    ``size`` is the inclusion probability p for the Bernoulli model and the
    (expected) sample size n for the others.  Multinomial and hypergeometric
    draws come in draw order.  Bernoulli draws come in canonical color order,
    and Poisson draws are a uniformly shuffled expansion of the counts; only
    the counts carry information.
    """
    if model == "multinomial":
        return urn.ids[_multinomial_index(urn, size, rng)].tolist()
    if model == "hypergeometric":
        return urn.ids[_hypergeometric_index(urn, size, rng)].tolist()
    if model == "bernoulli":
        return np.repeat(urn.ids, bernoulli_counts(urn, size, rng)).tolist()
    if model == "poissonized":
        draws = np.repeat(urn.ids, poissonized_color_counts(urn, size, rng)).tolist()
        rng.shuffle(draws)
        return draws
    raise ValueError(f"model: unknown tag {model!r}")


def simulate_with_from_without(ys: list[int], k: int, rng: RngStream) -> list[int]:
    """Turn a without-replacement sample ``ys`` into a with-replacement one.

    Draw i keeps Y_i with probability 1 - (i-1)/k and otherwise reuses an
    earlier output position chosen uniformly; the result is distributed
    exactly as n independent draws.
    """
    n = len(ys)
    if n > k:
        raise ValueError(f"a sample of size {n} cannot come from a {k}-ball urn")
    out: list[int] = []
    for i in range(1, n + 1):
        if i > 1 and rng.random() < (i - 1) / k:
            out.append(ys[rng.randbelow(i - 1)])
        else:
            out.append(ys[i - 1])
    return out
