"""Counts cores against the original one-draw-at-a-time samplers.

The reference samplers below are the scalar implementations the counts cores
replaced, kept verbatim but for returning plain draw lists.  Every core must
return the same per-color counts and leave its stream at the same counter as
its reference.
"""

import bisect
import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import urncount.rng
import urncount.sampling
from urncount.rng import _BLOCK, _SCALAR_STEPS, RngStream, finish, fisher_yates_sources
from urncount.sampling import (
    _GUIDE_CELLS,
    _PIECE,
    BINOMIAL_CDF_CACHE_SIZE,
    POISSON_CDF_CACHE_SIZE,
    _BinomialCdf,
    _binomial_cdf,
    _COLOR_BLOCK,
    _poisson_ptrs,
    _poisson_table,
    bernoulli_counts,
    binomial_chunk_max,
    hypergeometric_counts,
    multinomial_counts,
    poisson_from_unfinished,
    poissonized_color_counts,
    sample_draws,
)
from urncount.urn import UrnSpec, make_hard_pair, make_uniform_support

from test_urn import colors

# -- scalar variates (verbatim, once RngStream methods) -------------------------

def poisson(rng: RngStream, lam: float) -> int:
    """Poisson variate: CDF inversion below mean 30, else transformed
    rejection with squeeze (Hormann's PTRS)."""
    if lam < 0:
        raise ValueError("poisson requires lam >= 0")
    if lam == 0:
        return 0
    if lam < 30.0:
        return _poisson_inversion(rng, lam)
    return _poisson_ptrs(rng, lam)


def _poisson_inversion(rng: RngStream, lam: float) -> int:
    u = rng.random()
    x = 0
    p = math.exp(-lam)
    s = p
    while u > s:
        x += 1
        p *= lam / x
        s += p
        if p == 0.0:
            break
    return x


def binomial_inversion(n: int, p: float, u: float) -> int:
    """Binomial(n, p) by CDF inversion of one uniform; needs (1-p)^n normal."""
    q = 1.0 - p
    pmf = q ** n
    s = pmf
    ratio = p / q
    x = 0
    while u > s:
        x += 1
        if x > n:
            return n
        pmf *= ratio * (n - x + 1) / x
        s += pmf
        if pmf == 0.0:
            break
    return x


def binomial(rng: RngStream, n: int, p: float) -> int:
    """Binomial(n, p) variate: n coin flips when n <= 64, else CDF
    inversion on chunks small enough that (1-p)^chunk stays normal."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("binomial requires 0 <= p <= 1")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    if n <= 64:
        total = 0
        for _ in range(n):
            if rng.random() < p:
                total += 1
        return total
    chunk_max = binomial_chunk_max(p)
    total = 0
    remaining = n
    while remaining > 0:
        c = min(remaining, chunk_max)
        total += binomial_inversion(c, p, rng.random())
        remaining -= c
    return total


# -- reference samplers (verbatim) ----------------------------------------------

_VECTOR_COLOR_THRESHOLD = 32


def _require_nonempty(urn: UrnSpec) -> None:
    if urn.C == 0:
        raise ValueError("cannot sample from an empty urn")


def _ball_array(urn: UrnSpec) -> list[int]:
    balls: list[int] = []
    for cid, mult in colors(urn):
        balls.extend([cid] * mult)
    return balls


def ref_draw_with_replacement(urn: UrnSpec, n: int, rng: RngStream) -> list[int]:
    """n independent draws, color i with probability k_i / k."""
    _require_nonempty(urn)
    if n < 0:
        raise ValueError("sample size must be >= 0")
    cum = []
    total = 0
    for _, mult in colors(urn):
        total += mult
        cum.append(total)
    ids = [cid for cid, _ in colors(urn)]
    k = urn.k
    draws = []
    for _ in range(n):
        ball = rng.randbelow(k)
        draws.append(ids[bisect.bisect_right(cum, ball)])
    return draws


def ref_draw_without_replacement(urn: UrnSpec, n: int, rng: RngStream) -> list[int]:
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
    return balls[:n]


def ref_draw_bernoulli(urn: UrnSpec, p: float, rng: RngStream) -> list[int]:
    """Each of the k balls included independently with probability p.

    Per color the inclusion count is Binomial(k_i, p).  Draws are emitted in
    canonical color order; downstream consumers use counts only.
    """
    _require_nonempty(urn)
    if not 0.0 <= p <= 1.0:
        raise ValueError("inclusion probability must lie in [0, 1]")
    draws: list[int] = []
    for cid, mult in colors(urn):
        taken = binomial(rng, mult, p)
        draws.extend([cid] * taken)
    return draws


def ref_poissonized_color_counts(urn: UrnSpec, n: float, rng: RngStream) -> np.ndarray:
    """Per-color counts N_i ~ Poisson(n * k_i / k), aligned with colors(urn).

    This is the counting stage of the Poisson model.  When every per-color
    mean is below 30 it consumes exactly one uniform per color, in canonical
    color order, so the scalar and vectorized paths agree bit for bit.
    """
    _require_nonempty(urn)
    if n < 0:
        raise ValueError("expected sample size must be >= 0")
    k = urn.k
    means = [n * mult / k for _, mult in colors(urn)]
    if urn.C >= _VECTOR_COLOR_THRESHOLD and all(m < 30.0 for m in means):
        distinct = set(means)
        if len(distinct) == 1:
            return np.array([poisson(rng, means[0]) for _ in range(urn.C)], dtype=np.int64)
        u = (rng.u64s(urn.C) >> np.uint64(11)) * 2.0 ** -53
        out = np.empty(urn.C, dtype=np.int64)
        means_arr = np.array(means)
        for lam in sorted(distinct):
            mask = means_arr == lam
            if lam == 0.0:
                out[mask] = 0
                continue
            cdf = _poisson_table(lam)[0]
            idx = np.searchsorted(cdf, u[mask], side="left")
            out[mask] = np.minimum(idx, len(cdf) - 1)
        return out
    return np.array([poisson(rng, lam) for lam in means], dtype=np.int64)


def ref_poissonized_draws(urn: UrnSpec, n: float, rng: RngStream) -> list[int]:
    """The reference counts expanded in canonical color order."""
    counts = ref_poissonized_color_counts(urn, n, rng)
    return [cid for (cid, _), cnt in zip(colors(urn), counts) for _ in range(cnt)]


def _scalar_partial_shuffle(items: list, n: int, rng: RngStream) -> None:
    """The first n forward steps: step i swaps items i and i + randbelow(len - i)."""
    for i in range(n):
        j = i + rng.randbelow(len(items) - i)
        items[i], items[j] = items[j], items[i]


# -- the grid -------------------------------------------------------------------

def _counts(urn: UrnSpec, draws: list[int]) -> np.ndarray:
    seen = Counter(draws)
    return np.array([seen.get(cid, 0) for cid, _ in colors(urn)], dtype=np.int64)


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
# 1, 8 and 9 chunked colors among light ones (some sharing a multiplicity),
# and a color of 100_003 balls, whose chunks take two sizes at p = 0.01, 0.3, 0.9
_BIG = [65, 1000, 1000, 5000, 66, 70_000, 1000, 2000, 3000]
FEW_CHUNKED = [UrnSpec(tuple((i, _BIG[i // 3] if i % 3 == 0 and i // 3 < count else 1 + i % 7)
                             for i in range(3 * count + 4))) for count in (1, 8, 9)]
FEW_CHUNKED.append(UrnSpec(((1, 3), (2, 100_003), (3, 20))))
# more colors than one Bernoulli block, with chunked colors in two blocks
WIDE = UrnSpec(tuple((i, {4500: 500, 8500: 70}.get(i, 1 + i % 3)) for i in range(1, 9001)))
# 400 distinct light means at n = 5000 (largest mean 24.9)
MANY_MEANS = UrnSpec(tuple((i, i) for i in range(1, 401)))
# more colors than one Poisson piece: two light multiplicities (the reference's
# vectorized multi-mean path), and one light multiplicity with heavy colors at
# colors _PIECE - 1 and _PIECE (the reference's scalar path)
TWO_LIGHT_WIDE = UrnSpec(tuple((i, 1 + i % 2) for i in range(_PIECE + 5000)))
HEAVY_AT_BLOCK_EDGE = UrnSpec(tuple((i, 40 if i in (_PIECE - 1, _PIECE) else 1)
                                    for i in range(_PIECE + 100)))
# the Poisson walk's stretches at n = k (heavy colors have mean >= 30): a
# heavy first color; heavy colors adjacent and last; only heavy colors; and
# two light multiplicities with heavy colors on both sides of the piece edge
# that splits the stretch [4, _PIECE + 5)
POISSON_WALKS = [
    UrnSpec(((1, 200),) + tuple((i, 1 + i % 3) for i in range(2, 100))),
    UrnSpec(tuple((i, 1) for i in range(1, 60)) + ((60, 300), (61, 90))),
    UrnSpec(((1, 40), (2, 500), (3, 77))),
    UrnSpec(tuple((i, 100 if i in (3, _PIECE + 5) else 1 + i % 2)
                  for i in range(_PIECE + 40))),
]

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
    ("poissonized", make_uniform_support(31, 31), 20),  # the reference's scalar path
    ("poissonized", TWO_LIGHT_WIDE, TWO_LIGHT_WIDE.k),
    ("poissonized", HEAVY_AT_BLOCK_EDGE, HEAVY_AT_BLOCK_EDGE.k),
    # last, so that the cases above keep their ids
    *[("bernoulli", urn, p) for urn in FEW_CHUNKED for p in (0.01, 0.3, 0.9)],
    *[("poissonized", urn, urn.k) for urn in POISSON_WALKS],
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


DRAW_REFERENCES = {"multinomial": ref_draw_with_replacement,
                   "hypergeometric": ref_draw_without_replacement}

DRAW_CASES = {  # model -> (reference draw list, urn, n)
    "multinomial": (ref_draw_with_replacement, UNIFORM, 500),
    "hypergeometric": (ref_draw_without_replacement, UNIFORM, 600),
    "bernoulli": (ref_draw_bernoulli, UNIFORM, 400),
    "poissonized": (ref_poissonized_draws, HEAVY_MID, 2000),
}


@pytest.mark.parametrize("model", DRAW_CASES)
def test_draw_lists_match_reference(model):
    reference, urn, n = DRAW_CASES[model]
    got_rng, ref_rng = RngStream(5, 2), RngStream(5, 2)
    size = n / urn.k if model == "bernoulli" else n  # the Bernoulli reference takes p = n / k
    assert sample_draws(urn, model, n, got_rng) == reference(urn, size, ref_rng)
    assert got_rng._counter == ref_rng._counter


# -- stream primitives ----------------------------------------------------------

def test_u64s_match_next_u64():
    a, b = RngStream(3, 4), RngStream(3, 4)
    assert a.u64s(300).tolist() == [b.next_u64() for _ in range(300)]
    assert a._counter == b._counter


@pytest.mark.parametrize("count", range(11))
def test_short_blocks_match_scalar_calls(count):
    a, b = RngStream(3, count), RngStream(3, count)
    got = a.u64s(count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [b.next_u64() for _ in range(count)]
    assert a._counter == b._counter


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_u64s_across_step_table_chunks_match_next_u64(count):
    a, b = RngStream(6, count), RngStream(6, count)
    a.u64s(7)  # start the chunks off counter 0
    for _ in range(7):
        b.next_u64()
    got = a.u64s(count)
    assert got.tolist() == [b.next_u64() for _ in range(count)]
    assert a._counter == b._counter


def _unfinish(z: np.ndarray) -> np.ndarray:
    """The outputs y before their last xorshift, ``finish(y) == z``."""
    return z ^ (z >> np.uint64(31)) ^ (z >> np.uint64(62))


def _edge_and_random_u64s() -> np.ndarray:
    edges = [0, 1, 2**31 - 1, 2**31, 2**32, 2**33 - 1, 2**62, 2**63, 2**63 + 2**32, 2**64 - 1]
    return np.concatenate([np.array(edges, dtype=np.uint64), RngStream(2, 9).u64s(20_000)])


def test_last_xorshift_keeps_the_top_31_bits():
    y = _edge_and_random_u64s()
    z = finish(y.copy())
    for bits in range(1, 32):
        shift = np.uint64(64 - bits)
        assert np.array_equal(z >> shift, y >> shift), bits
    shift = np.uint64(32)
    assert not np.array_equal(z >> shift, y >> shift)  # bit 32 takes bit 63


def test_unfinish_inverts_the_last_xorshift():
    z = _edge_and_random_u64s()
    assert np.array_equal(finish(_unfinish(z)), z)
    assert np.array_equal(_unfinish(finish(z.copy())), z)
    a, b = RngStream(5, 5), RngStream(5, 5)
    assert np.array_equal(a.unfinished_u64s(1000), _unfinish(b.u64s(1000)))
    assert a._counter == b._counter


# 31 top bits skip the last xorshift, 32 take it.  At 32 bits the xorshift
# moves only bit 32, and only where bit 63 is set, so the draws below 2**31
# that m = 2**31 + 5 accepts barely show a missed xorshift; 2**32 - 5 does.
@pytest.mark.parametrize("m", [2**31, 2**31 + 5, 2**32 - 5])
def test_top_bit_draws_either_side_of_the_xorshift_branch(m):
    steps = 100
    a, ref = RngStream(3, m), RngStream(3, m)
    assert a.randbelow_shrinking(m, steps).tolist() == [ref.randbelow(m - t) for t in range(steps)]
    assert a._counter == ref._counter
    assert a.randbelow_many(m, steps).tolist() == [ref.randbelow(m) for _ in range(steps)]
    assert a._counter == ref._counter


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
    want = list(range(k))
    got = a.sample_positions(k, n)
    for i in range(n):
        j = i + b.randbelow(k - i)
        want[i], want[j] = want[j], want[i]
    assert got.tolist() == want[:n]
    assert a._counter == b._counter


@pytest.mark.parametrize("m,n", [(5, 6), (40, 45), (5, -1), (0, 1)])
def test_sample_positions_refuses_n_outside_range(m, n):
    rng = RngStream(2, 0)
    with pytest.raises(ValueError, match=f"0 <= n <= m, got m={m}, n={n}"):
        rng.sample_positions(m, n)
    assert rng._counter == 0


def test_hard_pair_uses_the_same_shuffle():
    # frozen ids of the alternative urn from the scalar shuffle loop
    pair = make_hard_pair(20, 4, seed=3)
    ids = list(range(1, 21))
    rng = RngStream(3, 0)
    for i in range(12):
        j = i + rng.randbelow(20 - i)
        ids[i], ids[j] = ids[j], ids[i]
    assert sorted(cid for cid, _ in colors(pair.alt_urn)) == sorted(ids[:12])


def test_hard_pair_past_the_scalar_cutoff():
    # 800 steps take the array path; both multiplicity blocks are non-empty
    k, delta, seed = 1000, 100, 5
    pair = make_hard_pair(k, delta, seed)
    remaining = k - 2 * delta
    # the shuffled ids take the smaller multiplicity first, in draw order
    mults = sorted(pair.alt_urn.mults.tolist())
    assert remaining > _SCALAR_STEPS and len(set(mults)) == 2
    ids = list(range(1, k + 1))
    _scalar_partial_shuffle(ids, remaining, RngStream(seed, 0))
    assert list(colors(pair.alt_urn)) == sorted(zip(ids[:remaining], mults))


# -- array Fisher-Yates against the scalar swap loop ------------------------------

@pytest.mark.parametrize("k,n", [
    (64, 63), (65, 64), (1024, 1000), (1025, 1025), (2**14, 2**13), (2**14 + 1, 2**13 + 1),
    (1000, 999), (1000, 1000),  # n = k - 1 and n = k
    (70, 69), (100, 40),  # every range, or the last, of at most _SCALAR_STEPS steps
    *[(5000, n) for n in (_SCALAR_STEPS - 1, _SCALAR_STEPS, _SCALAR_STEPS + 1)],
    (_SCALAR_STEPS + 1, _SCALAR_STEPS + 1),  # a full pass just past the cutoff
    (150_000, 100_000),  # a range's steps spread over more than one _BLOCK of outputs
])
def test_array_fisher_yates_matches_scalar_swaps(k, n):
    steps = min(n, k - 1)
    want, ref = list(range(k)), RngStream(4, k + n)
    _scalar_partial_shuffle(want, steps, ref)
    b = RngStream(4, k + n)
    positions = b.sample_positions(k, n)
    assert positions.dtype == np.int64 and positions.tolist() == want[:n]
    assert b._counter == ref._counter
    c, ref = RngStream(4, k + n), RngStream(4, k + n)
    r = c.randbelow_shrinking(k, steps)
    assert r.dtype == np.int64 and r.tolist() == [ref.randbelow(k - t) for t in range(steps)]
    assert c._counter == ref._counter


@pytest.mark.parametrize("m,steps,blocks", [
    (10**5, 3 * 10**4, 1), (10**5, 7 * 10**4, 3),
    (10**6, 5 * 10**5, 12),  # about 677k outputs in (2^19, 2^20], then one range
])
@pytest.mark.parametrize("seed", [1, 2])
def test_randbelow_shrinking_draws_one_block_per_range(monkeypatch, m, steps, blocks, seed):
    # one block per power-of-two range, plus one per _BLOCK outputs inside a
    # longer range
    sizes = []
    unfinished_u64s = RngStream.unfinished_u64s

    def counted(self, count):
        sizes.append(count)
        return unfinished_u64s(self, count)

    monkeypatch.setattr(RngStream, "unfinished_u64s", counted)
    a, ref = RngStream(seed, m), RngStream(seed, m)
    got = a.randbelow_shrinking(m, steps)
    assert len(sizes) == blocks
    assert got.tolist() == [ref.randbelow(m - t) for t in range(steps)]
    assert a._counter == ref._counter


def test_sample_positions_on_a_huge_range():
    # m * steps overflows int64, so the resolution sorts by target alone
    m, n = 2**63 - 1, _SCALAR_STEPS + 8
    a, b = RngStream(1, 1), RngStream(1, 1)
    held = {}
    for t in range(n):
        j = t + b.randbelow(m - t)
        held[t], held[j] = held.get(j, j), held.get(t, t)
    assert a.sample_positions(m, n).tolist() == [held.get(t, t) for t in range(n)]
    assert a._counter == b._counter


def test_fisher_yates_sources_matches_swaps():
    # small ranges force repeated targets and self-swaps
    gen = np.random.default_rng(12)
    for _ in range(500):
        m = int(gen.integers(1, 40))
        steps = int(gen.integers(0, m))
        targets = np.array([t + int(gen.integers(0, m - t)) for t in range(steps)], dtype=np.int64)
        items = list(range(m))
        for t, j in enumerate(targets.tolist()):
            items[t], items[j] = items[j], items[t]
        assert fisher_yates_sources(targets).tolist() == items[:steps]


@pytest.mark.parametrize("model,n", [("multinomial", 3000), ("hypergeometric", 700)])
def test_urns_past_the_ball_table_use_the_cumulative_search(monkeypatch, model, n):
    urn = UrnSpec(colors(CHUNKED))  # its own lazy table, unbuilt
    monkeypatch.setattr(urncount.sampling, "_BALL_TABLE_MAX", urn.k - 1)
    reference = DRAW_REFERENCES[model]
    got_rng, ref_rng = RngStream(8, 1), RngStream(8, 1)
    assert sample_draws(urn, model, n, got_rng) == reference(urn, n, ref_rng)
    assert got_rng._counter == ref_rng._counter
    core, reference = REFERENCES[model]
    got_rng, ref_rng = RngStream(8, 2), RngStream(8, 2)
    assert np.array_equal(core(urn, n, got_rng), reference(urn, n, ref_rng))
    assert "ball_colors" not in urn.__dict__


# -- the binomial inversion tables ------------------------------------------------

@pytest.mark.parametrize("size,p", [(65, 0.3), (101, 0.999), (1000, 0.25), (20_000, 1e-4),
                                    (1009, 0.5)])
def test_binomial_inversion_matches_scalar_at_table_edges(size, p):
    whole = _BinomialCdf(size, p)
    whole.invert(np.array([1.0]))  # accumulated to its end or to 1
    cdf = np.array(whole.sums)
    u = np.concatenate([
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),  # on and beside each entry
        [0.0, 1.0 - 2.0 ** -53],
        (RngStream(8, 1).u64s(1000) >> np.uint64(11)) * 2.0 ** -53,
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    ref = {x: binomial_inversion(size, p, x) for x in set(u.tolist())}
    assert _BinomialCdf(size, p).invert(u).tolist() == [ref[x] for x in u.tolist()]
    # grown a few uniforms at a time, in stream order and then increasing
    for us in (u.tolist(), sorted(u.tolist())):
        table = _BinomialCdf(size, p)
        got = []
        for i in range(0, len(us), 5):
            got += table.invert(np.array(us[i:i + 5])).tolist()
        assert got == [ref[x] for x in us]
        table = _BinomialCdf(size, p)  # one uniform at a time
        assert [table.invert(np.array([x])).item() for x in us] == [ref[x] for x in us]


def test_binomial_table_grows_only_as_far_as_its_uniforms():
    table = _BinomialCdf(1000, 0.25)
    assert table.invert(np.array([0.5])).tolist() == [binomial_inversion(1000, 0.25, 0.5)]
    assert len(table.sums) - 1 == 250 == table.invert(np.array([0.5])).item()
    assert table.sums[-2] < 0.5 <= table.sums[-1]  # the first entry at or above 0.5
    short = _BinomialCdf(70, 0.9)  # the pmf ends at x = size, under 1 - 2**-53
    last = 1.0 - 2.0 ** -53
    assert short.invert(np.array([last])).tolist() == [binomial_inversion(70, 0.9, last)] == [70]
    assert len(short.sums) == 71 and short.ended


def test_binomial_cdf_cache_is_bounded():
    assert _binomial_cdf.cache_info().maxsize == BINOMIAL_CDF_CACHE_SIZE
    first = _binomial_cdf(77, 0.123)
    for i in range(BINOMIAL_CDF_CACHE_SIZE + 50):
        _binomial_cdf(65 + i, 0.4)
    assert _binomial_cdf.cache_info().currsize <= BINOMIAL_CDF_CACHE_SIZE
    again = _binomial_cdf(77, 0.123)  # evicted, rebuilt
    assert again is not first
    u = np.array([0.9])
    want = [binomial_inversion(77, 0.123, 0.9)]
    assert again.invert(u).tolist() == first.invert(u).tolist() == want


def test_bernoulli_tables_are_shared_safely_across_threads():
    # distinct streams may run concurrently: one thread's table growth must
    # not meet another's search of the same cached table
    urn = UrnSpec(tuple((i, 65 + i % 40) for i in range(4000)))

    def three_calls(t):
        rng = RngStream(8, t)
        return [bernoulli_counts(urn, 0.3, rng) for _ in range(3)]

    want = [three_calls(t) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            _binomial_cdf.cache_clear()
            got, errors = [None] * 8, []

            def run(t):
                try:
                    got[t] = three_calls(t)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            for t in range(8):
                assert all(np.array_equal(a, b) for a, b in zip(got[t], want[t]))
    finally:
        sys.setswitchinterval(interval)


# sizes that repeat, sizes met once, colors of many chunks and colors of at
# most 64 flips, over two color blocks
MANY_CHUNKED = UrnSpec(tuple(
    (i, 1000 if i % 7 == 0 else 65 + i if i % 11 == 0 else 20_000 if i % 997 == 0 else 1 + i % 5)
    for i in range(1, _COLOR_BLOCK + 600)))


@pytest.mark.parametrize("p", [0.3, 0.999, 1e-4, 0.05,
                               # where the integer coin threshold could be off by one
                               1.0 - 2.0 ** -53, 2.0 ** -60,
                               np.nextafter(0.5, 0.0).item(), 0.5, np.nextafter(0.5, 1.0).item()])
def test_bernoulli_chunks_grouped_by_size_match_reference(p):
    got_rng, ref_rng = RngStream(6, 1), RngStream(6, 1)
    want = _counts(MANY_CHUNKED, ref_draw_bernoulli(MANY_CHUNKED, p, ref_rng))
    assert np.array_equal(bernoulli_counts(MANY_CHUNKED, p, got_rng), want)
    assert got_rng._counter == ref_rng._counter


@pytest.mark.parametrize("p", [1e-17, 1e-300])
def test_bernoulli_at_tiny_p(p):
    # binomial_chunk_max(p) would pass the int64 range
    assert binomial_chunk_max(p) == 2**63 - 1
    urn = UrnSpec(((1, 100), (2, 3)))
    got_rng, ref_rng = RngStream(2, 2), RngStream(2, 2)
    want = _counts(urn, ref_draw_bernoulli(urn, p, ref_rng))
    assert np.array_equal(bernoulli_counts(urn, p, got_rng), want)
    assert got_rng._counter == ref_rng._counter


# -- the Poisson inversion table ------------------------------------------------

class _FixedUniform:
    """A stand-in stream whose every ``random()`` is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def _uniform_of(z: int) -> float:
    """The uniform ``RngStream.random()`` makes of the raw output z."""
    return (z >> 11) * 2.0 ** -53


def _scalar_variates(lam: float, z: np.ndarray) -> list[int]:
    return [_poisson_inversion(_FixedUniform(_uniform_of(x)), lam) for x in z.tolist()]


POISSON_TABLE_MEANS = [1e-12, 0.37, 1.0, 2.0, 4.0, 12.5, 29.999]


@pytest.mark.parametrize("lam", POISSON_TABLE_MEANS)
def test_poisson_inversion_matches_scalar_at_table_edges(lam):
    cdf, _ = _poisson_table(lam)
    first = [j << 54 for j in range(_GUIDE_CELLS)]
    last = [z | (2**54 - 1) for z in first]  # both end outputs of every cell
    # the last output whose uniform does not pass each CDF entry, and the next
    steps = [(f << 11) | 0x7FF for f in (math.floor(c * 2**53) for c in cdf.tolist())
             if f < 2**53]
    z = np.concatenate([
        np.array(first + last + steps + [x + 1 for x in steps if x < 2**64 - 1], dtype=np.uint64),
        RngStream(8, 0).u64s(5000),
    ])
    got = poisson_from_unfinished(lam, _unfinish(z))
    assert got.dtype == np.int64
    assert got.tolist() == _scalar_variates(lam, z)


@pytest.mark.parametrize("lam", [2.0, 29.999])
def test_straddling_tail_cell_reaches_the_search(lam):
    # the saturated tail crowds several CDF entries into the last cell, so
    # its outputs are inverted by the search of the CDF, not by the cell
    cdf, cells = _poisson_table(lam)
    assert cells[-1] == -1
    ends = np.array([(_GUIDE_CELLS - 1) << 54, 2**64 - 1], dtype=np.uint64)
    got = poisson_from_unfinished(lam, _unfinish(ends))
    assert got[0] < got[1]
    assert got.tolist() == _scalar_variates(lam, ends)


@pytest.mark.parametrize("lam", POISSON_TABLE_MEANS)
def test_straddling_cells_are_at_most_the_cdf_steps(lam):
    # a cell straddles only a step of cdf[:-1] that lies inside it
    cdf, cells = _poisson_table(lam)
    assert 0 < np.count_nonzero(cells < 0) <= len(cdf) - 1


# -- the Poisson CDF cache ------------------------------------------------------

def test_poisson_cdf_cache_is_bounded():
    first = [a.copy() for a in _poisson_table(0.123)]
    for i in range(POISSON_CDF_CACHE_SIZE + 300):
        _poisson_table(1.0 + i / 997)
    assert _poisson_table.cache_info().currsize <= POISSON_CDF_CACHE_SIZE
    cdf, cells = _poisson_table(0.123)  # evicted, rebuilt identically
    assert np.array_equal(cdf, first[0]) and np.array_equal(cells, first[1])
    assert not cdf.flags.writeable and not cells.flags.writeable
    assert cells.dtype == np.intp and cells.shape == (_GUIDE_CELLS,)
    # the cells share the CDF's entry: an inversion at a new mean adds one
    # entry to the one Poisson cache; sampling holds no cache but the two
    # inversion tables', and the stream module none
    before = _poisson_table.cache_info()
    poisson_from_unfinished(0.4567, np.array([2**63], dtype=np.uint64))
    after = _poisson_table.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)
    assert [name for name, obj in vars(urncount.sampling).items()
            if hasattr(obj, "cache_info")] == ["_binomial_cdf", "_poisson_table"]
    assert not [name for name, obj in vars(urncount.rng).items() if hasattr(obj, "cache_info")]


def test_more_distinct_means_than_cache_entries():
    urn = UrnSpec(tuple((i, i) for i in range(1, POISSON_CDF_CACHE_SIZE + 200)))
    n = 25 * urn.k // urn.C  # every mean below 30
    a, b = RngStream(4, 0), RngStream(4, 0)
    assert np.array_equal(poissonized_color_counts(urn, n, a),
                          ref_poissonized_color_counts(urn, n, b))
    assert a._counter == b._counter
    assert _poisson_table.cache_info().currsize <= POISSON_CDF_CACHE_SIZE
