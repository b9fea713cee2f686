"""Counts cores against the original one-draw-at-a-time samplers.

The reference samplers below are the scalar implementations the counts cores
replaced, kept verbatim.  Every core must return the same per-color counts
and leave its stream at the same counter as its reference.
"""

import bisect
from collections import Counter

import numpy as np
import pytest

from urncount.rng import POISSON_CDF_CACHE_SIZE, RngStream, _poisson_cdf
from urncount.sampling import (
    MODEL_BERNOULLI,
    MODEL_HYPERGEOMETRIC,
    MODEL_MULTINOMIAL,
    SampleBatch,
    bernoulli_counts,
    draw_bernoulli,
    draw_poissonized,
    draw_with_replacement,
    draw_without_replacement,
    hypergeometric_counts,
    multinomial_counts,
    poissonized_color_counts,
)
from urncount.urn import UrnSpec, make_hard_pair, make_uniform_support

# -- reference samplers (verbatim) ----------------------------------------------

_VECTOR_COLOR_THRESHOLD = 32


def _require_nonempty(urn: UrnSpec) -> None:
    if urn.C == 0:
        raise ValueError("cannot sample from an empty urn")


def _ball_array(urn: UrnSpec) -> list[int]:
    balls: list[int] = []
    for cid, mult in urn.colors:
        balls.extend([cid] * mult)
    return balls


def ref_draw_with_replacement(urn: UrnSpec, n: int, rng: RngStream) -> SampleBatch:
    """n independent draws, color i with probability k_i / k."""
    _require_nonempty(urn)
    if n < 0:
        raise ValueError("sample size must be >= 0")
    cum = []
    total = 0
    for _, mult in urn.colors:
        total += mult
        cum.append(total)
    ids = [cid for cid, _ in urn.colors]
    k = urn.k
    draws = []
    for _ in range(n):
        ball = rng.randbelow(k)
        draws.append(ids[bisect.bisect_right(cum, ball)])
    return SampleBatch(tuple(draws), n, MODEL_MULTINOMIAL)


def ref_draw_without_replacement(urn: UrnSpec, n: int, rng: RngStream) -> SampleBatch:
    """A uniformly random size-n sub-multiset of the urn, in random order.

    Partial Fisher-Yates over the expanded ball array; O(k) memory.
    """
    _require_nonempty(urn)
    if n < 0:
        raise ValueError("sample size must be >= 0")
    if n > urn.k:
        raise ValueError(f"cannot draw {n} balls without replacement from a {urn.k}-ball urn")
    balls = _ball_array(urn)
    k = len(balls)
    for i in range(n):
        j = i + rng.randbelow(k - i)
        balls[i], balls[j] = balls[j], balls[i]
    return SampleBatch(tuple(balls[:n]), n, MODEL_HYPERGEOMETRIC)


def ref_draw_bernoulli(urn: UrnSpec, p: float, rng: RngStream) -> SampleBatch:
    """Each of the k balls included independently with probability p.

    Per color the inclusion count is Binomial(k_i, p).  Draws are emitted in
    canonical color order; downstream consumers use counts only.
    """
    _require_nonempty(urn)
    if not 0.0 <= p <= 1.0:
        raise ValueError("inclusion probability must lie in [0, 1]")
    draws: list[int] = []
    for cid, mult in urn.colors:
        taken = rng.binomial(mult, p)
        draws.extend([cid] * taken)
    return SampleBatch(tuple(draws), int(round(urn.k * p)), MODEL_BERNOULLI)


def ref_poissonized_color_counts(urn: UrnSpec, n: float, rng: RngStream) -> np.ndarray:
    """Per-color counts N_i ~ Poisson(n * k_i / k), aligned with urn.colors.

    This is the counting stage of the Poisson model.  When every per-color
    mean is below 30 it consumes exactly one uniform per color, in canonical
    color order, so the scalar and vectorized paths agree bit for bit.
    """
    _require_nonempty(urn)
    if n < 0:
        raise ValueError("expected sample size must be >= 0")
    k = urn.k
    means = [n * mult / k for _, mult in urn.colors]
    if urn.C >= _VECTOR_COLOR_THRESHOLD and all(m < 30.0 for m in means):
        distinct = set(means)
        if len(distinct) == 1:
            return rng.poisson_many(means[0], urn.C)
        u = rng.uniforms(urn.C)
        out = np.empty(urn.C, dtype=np.int64)
        means_arr = np.array(means)
        for lam in sorted(distinct):
            mask = means_arr == lam
            if lam == 0.0:
                out[mask] = 0
                continue
            cdf = _poisson_cdf(lam)
            idx = np.searchsorted(cdf, u[mask], side="left")
            out[mask] = np.minimum(idx, len(cdf) - 1)
        return out
    return np.array([rng.poisson(lam) for lam in means], dtype=np.int64)


# -- the grid -------------------------------------------------------------------

def _counts(urn: UrnSpec, batch: SampleBatch) -> np.ndarray:
    seen = Counter(batch.draws)
    return np.array([seen.get(cid, 0) for cid, _ in urn.colors], dtype=np.int64)


REFERENCES = {
    "multinomial": (multinomial_counts,
                    lambda urn, n, rng: _counts(urn, ref_draw_with_replacement(urn, n, rng))),
    "hypergeometric": (hypergeometric_counts,
                       lambda urn, n, rng: _counts(urn, ref_draw_without_replacement(urn, n, rng))),
    "bernoulli": (bernoulli_counts,
                  lambda urn, p, rng: _counts(urn, ref_draw_bernoulli(urn, p, rng))),
    "poissonized": (poissonized_color_counts, ref_poissonized_color_counts),
}

ONE = UrnSpec(((7, 1),))  # k = 1: randbelow(1) consumes nothing
ONE_HEAVY = UrnSpec(((7, 100),))
SMALL = UrnSpec(((3, 2), (1, 1), (9, 4)))
UNIFORM = make_uniform_support(1000, 300)
# multiplicities on both sides of the 64-flip cutoff, one needing many chunks
CHUNKED = UrnSpec(((1, 65), (2, 64), (3, 1000), (4, 5), (5, 20_000)))
# heavy colors (mean >= 30 at n = k) between runs of light ones
HEAVY_MID = UrnSpec(tuple([(i, 1) for i in range(1, 200)] + [(500, 3000)]
                          + [(i, 2) for i in range(600, 800)] + [(900, 40)]
                          + [(1000, 4000)] + [(i, 1) for i in range(1001, 1050)]))
# more colors than one Bernoulli block, with chunked colors in two blocks
WIDE = UrnSpec(tuple((i, {4500: 500, 8500: 70}.get(i, 1 + i % 3)) for i in range(1, 9001)))
# 400 distinct light means at n = 5000 (largest mean 24.9)
MANY_MEANS = UrnSpec(tuple((i, i) for i in range(1, 401)))

CASES = [
    *[(model, urn, 0) for model in ("multinomial", "hypergeometric", "poissonized")
      for urn in (ONE, SMALL, UNIFORM)],
    ("multinomial", ONE, 5),
    ("multinomial", SMALL, 40),
    ("multinomial", UNIFORM, 700),
    ("multinomial", CHUNKED, 3000),
    ("hypergeometric", ONE, 1),
    ("hypergeometric", ONE_HEAVY, 100),
    ("hypergeometric", SMALL, 7),  # n = k
    ("hypergeometric", UNIFORM, 333),
    ("hypergeometric", UNIFORM, 1000),  # n = k
    *[("bernoulli", urn, p) for urn in (ONE, SMALL, UNIFORM, CHUNKED)
      for p in (0.0, 1.0, 0.3)],
    ("bernoulli", CHUNKED, 0.999),  # chunk_max = 101: many inversion chunks
    ("bernoulli", CHUNKED, 1e-4),
    ("bernoulli", ONE_HEAVY, 0.5),
    ("bernoulli", WIDE, 0.3),
    ("bernoulli", WIDE, 0.999),
    ("multinomial", WIDE, 5000),
    ("hypergeometric", WIDE, 5000),
    ("poissonized", WIDE, 20_000),
    ("poissonized", ONE, 3),
    ("poissonized", ONE_HEAVY, 50),
    ("poissonized", SMALL, 2.5),
    ("poissonized", UNIFORM, 500),
    ("poissonized", HEAVY_MID, HEAVY_MID.k),
    ("poissonized", HEAVY_MID, 3 * HEAVY_MID.k),
    ("poissonized", MANY_MEANS, 5000),
]


@pytest.mark.parametrize("model,urn,param", CASES)
def test_counts_and_stream_match_reference(model, urn, param):
    core, reference = REFERENCES[model]
    for seed in range(3):
        got_rng, ref_rng = RngStream(seed, 11), RngStream(seed, 11)
        got = core(urn, param, got_rng)
        want = reference(urn, param, ref_rng)
        assert got.dtype == np.int64 and got.shape == (urn.C,)
        assert np.array_equal(got, want), (model, param, seed)
        assert got_rng._counter == ref_rng._counter, (model, param, seed)


@pytest.mark.parametrize("draw,reference,param", [
    (draw_with_replacement, ref_draw_with_replacement, 500),
    (draw_without_replacement, ref_draw_without_replacement, 600),
    (draw_bernoulli, ref_draw_bernoulli, 0.4),
])
def test_draw_lists_match_reference(draw, reference, param):
    got_rng, ref_rng = RngStream(5, 2), RngStream(5, 2)
    assert draw(UNIFORM, param, got_rng) == reference(UNIFORM, param, ref_rng)
    assert got_rng._counter == ref_rng._counter


def test_poissonized_draw_list_is_a_shuffled_expansion():
    got_rng, ref_rng = RngStream(8, 1), RngStream(8, 1)
    batch = draw_poissonized(HEAVY_MID, 2000, got_rng)
    counts = ref_poissonized_color_counts(HEAVY_MID, 2000, ref_rng)
    draws = [cid for (cid, _), cnt in zip(HEAVY_MID.colors, counts) for _ in range(cnt)]
    ref_rng.shuffle(draws)
    assert batch.draws == tuple(draws)
    assert got_rng._counter == ref_rng._counter


# -- stream primitives ----------------------------------------------------------

def test_u64s_match_next_u64():
    a, b = RngStream(3, 4), RngStream(3, 4)
    assert a.u64s(300).tolist() == [b.next_u64() for _ in range(300)]
    assert a._counter == b._counter


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 100_000, 2**40 + 3])
@pytest.mark.parametrize("count", [0, 1, 2000])
def test_randbelow_many_matches_scalar(n, count):
    a, b = RngStream(9, n), RngStream(9, n)
    got = a.randbelow_many(n, count)
    assert got.dtype == np.int64
    assert got.tolist() == [b.randbelow(n) for _ in range(count)]
    assert a._counter == b._counter


@pytest.mark.parametrize("k,n", [(1, 1), (2, 2), (50, 0), (50, 1), (50, 25), (50, 50), (4097, 4000)])
def test_partial_shuffle_matches_scalar_steps(k, n):
    a, b = RngStream(2, k), RngStream(2, k)
    got, want = list(range(k)), list(range(k))
    a.partial_shuffle(got, n)
    for i in range(n):
        j = i + b.randbelow(k - i)
        want[i], want[j] = want[j], want[i]
    assert got == want
    assert a._counter == b._counter


def test_hard_pair_uses_the_same_shuffle():
    # frozen ids of the alternative urn from the scalar shuffle loop
    pair = make_hard_pair(20, 4, seed=3)
    ids = list(range(1, 21))
    rng = RngStream(3, 0)
    for i in range(12):
        j = i + rng.randbelow(20 - i)
        ids[i], ids[j] = ids[j], ids[i]
    assert sorted(cid for cid, _ in pair.alt_urn.colors) == sorted(ids[:12])


# -- the Poisson CDF cache ------------------------------------------------------

def test_poisson_cdf_cache_is_bounded():
    first = _poisson_cdf(0.123).copy()
    for i in range(POISSON_CDF_CACHE_SIZE + 300):
        _poisson_cdf(1.0 + i / 997)
    assert _poisson_cdf.cache_info().currsize <= POISSON_CDF_CACHE_SIZE
    assert np.array_equal(_poisson_cdf(0.123), first)  # evicted, rebuilt identically
    assert not _poisson_cdf(0.123).flags.writeable


def test_more_distinct_means_than_cache_entries():
    urn = UrnSpec(tuple((i, i) for i in range(1, POISSON_CDF_CACHE_SIZE + 200)))
    n = 25 * urn.k // urn.C  # every mean below 30
    a, b = RngStream(4, 0), RngStream(4, 0)
    assert np.array_equal(poissonized_color_counts(urn, n, a),
                          ref_poissonized_color_counts(urn, n, b))
    assert a._counter == b._counter
    assert _poisson_cdf.cache_info().currsize <= POISSON_CDF_CACHE_SIZE
