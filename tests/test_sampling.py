import math
import re
from collections import Counter

import numpy as np
import pytest

from urncount.fingerprint import fingerprint_from_count_values
from urncount.rng import RngStream
from urncount.sampling import (
    _poisson_ptrs,
    bernoulli_counts,
    hypergeometric_counts,
    multinomial_counts,
    poissonized_color_counts,
    sample_counts,
    sample_draws,
)
from urncount.urn import UrnSpec, make_uniform_support

from test_urn import colors

TWO = UrnSpec(((1, 1), (2, 1)))
THREE = UrnSpec(((1, 1), (2, 1), (3, 1)))


class TestRngStream:
    def test_vectorized_uniforms_match_scalar(self):
        a = RngStream(42, 7)
        b = RngStream(42, 7)
        scalar = np.array([a.random() for _ in range(257)])
        assert np.array_equal(scalar, (b.u64s(257) >> np.uint64(11)) * 2.0 ** -53)

    def test_streams_differ(self):
        assert RngStream(1, 0).next_u64() != RngStream(1, 1).next_u64()
        assert RngStream(1, 0).next_u64() != RngStream(2, 0).next_u64()

    def test_poisson_mean_variance_rejection_path(self):
        rng = RngStream(11, 0)
        vals = [_poisson_ptrs(rng, 50.0) for _ in range(40_000)]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert abs(mean - 50.0) < 0.2  # 4 sigma ~ 0.14
        assert abs(var - 50.0) < 2.0

    def test_binomial_inversion_and_chunking(self):
        # one color of more than 64 balls: inversion on chunks of the stream
        rng, urn = RngStream(13, 0), UrnSpec(((1, 1000),))
        vals = [int(bernoulli_counts(urn, 0.25, rng)[0]) for _ in range(20_000)]
        assert abs(sum(vals) / len(vals) - 250.0) < 0.4  # 4 sigma ~ 0.39
        rng, urn = RngStream(13, 1), UrnSpec(((1, 5000),))
        vals = [int(bernoulli_counts(urn, 0.9, rng)[0]) for _ in range(5_000)]
        assert abs(sum(vals) / len(vals) - 4500.0) < 1.2

    def test_randbelow_bounds(self):
        rng = RngStream(0, 0)
        assert all(0 <= rng.randbelow(7) < 7 for _ in range(200))
        with pytest.raises(ValueError):
            rng.randbelow(0)


class TestDispatch:
    def test_counts_dispatch_reaches_each_core(self):
        urn = make_uniform_support(500, 120)
        for model, core, param in (("multinomial", multinomial_counts, 300),
                                   ("hypergeometric", hypergeometric_counts, 300),
                                   ("bernoulli", bernoulli_counts, 300 / 500),
                                   ("poissonized", poissonized_color_counts, 300)):
            assert np.array_equal(sample_counts(urn, model, 300, RngStream(3, 1)),
                                  core(urn, param, RngStream(3, 1))), model

    def test_only_canonical_model_names(self):
        for dispatch in (sample_counts, sample_draws):
            with pytest.raises(ValueError, match="^model: unknown tag 'multi'$"):
                dispatch(TWO, "multi", 1, RngStream(0, 0))


class TestWithReplacement:
    def test_zero_samples(self):
        assert sample_draws(TWO, "multinomial", 0, RngStream(0, 0)) == []

    def test_single_color_forces_outcome(self):
        urn = UrnSpec(((7, 1),))
        draws = sample_draws(urn, "multinomial", 5, RngStream(0, 0))
        assert draws == [7] * 5

    def test_empirical_fraction(self):
        draws = sample_draws(TWO, "multinomial", 100_000, RngStream(3, 0))
        frac = sum(1 for d in draws if d == 1) / 100_000
        assert 0.49 <= frac <= 0.51

    def test_negative_size(self):
        with pytest.raises(ValueError):
            sample_draws(TWO, "multinomial", -1, RngStream(0, 0))

    def test_determinism(self):
        b1 = sample_draws(TWO, "multinomial", 100, RngStream(9, 4))
        b2 = sample_draws(TWO, "multinomial", 100, RngStream(9, 4))
        assert b1 == b2


@pytest.mark.parametrize("core", [
    multinomial_counts,
    hypergeometric_counts,
    lambda urn, n, rng: sample_counts(urn, "bernoulli", n, rng),
    lambda urn, n, rng: sample_draws(urn, "bernoulli", n, rng),
], ids=["multinomial_counts", "hypergeometric_counts", "sample_counts-bernoulli",
        "sample_draws-bernoulli"])
@pytest.mark.parametrize("n", [True, False, 5.0, 1.5, np.int64(1), np.True_, np.False_])
def test_fixed_size_cores_refuse_non_int_size(core, n):
    rng = RngStream(0, 0)
    with pytest.raises(ValueError, match=re.escape(f"sample size must be an int >= 0, got {n!r}")):
        core(make_uniform_support(10, 5), n, rng)
    assert rng._counter == 0


@pytest.mark.parametrize("n", [0.3, 3.0, np.int64(3)])
@pytest.mark.parametrize("dispatch", [sample_counts, sample_draws])
def test_bernoulli_size_is_an_int(dispatch, n):
    # the Bernoulli model is sized by n like the other fixed-size models
    rng = RngStream(0, 0)
    with pytest.raises(ValueError, match=re.escape(f"sample size must be an int >= 0, got {n!r}")):
        dispatch(make_uniform_support(10, 5), "bernoulli", n, rng)
    assert rng._counter == 0


@pytest.mark.parametrize("size", [True, False, np.True_, np.False_])
@pytest.mark.parametrize("call", [
    lambda urn, size, rng: bernoulli_counts(urn, size, rng),
    lambda urn, size, rng: poissonized_color_counts(urn, size, rng),
    lambda urn, size, rng: sample_counts(urn, "poissonized", size, rng),
], ids=["bernoulli_counts", "poissonized_color_counts", "sample_counts-poissonized"])
def test_float_sizes_refuse_bools(call, size):
    # True would pass as p = 1 (every ball) or n = 1
    rng = RngStream(0, 0)
    with pytest.raises(ValueError, match=re.escape(f"not a bool, got {size!r}")):
        call(make_uniform_support(10, 5), size, rng)
    assert rng._counter == 0


@pytest.mark.parametrize("call", [
    lambda rng: rng.u64s(-1),
    lambda rng: rng.randbelow_many(5, -2),
    lambda rng: rng.randbelow_many(1, -2),
    # a float count used to advance the counter to a float; a bool counted as 1
    lambda rng: rng.u64s(9.0),
    lambda rng: rng.u64s(True),
    lambda rng: rng.randbelow_many(5, True),
], ids=["u64s", "randbelow_many", "randbelow_many-1",
        "u64s-float", "u64s-bool", "randbelow_many-bool"])
def test_negative_counts_are_refused(call):
    rng = RngStream(0, 0)
    with pytest.raises(ValueError, match=">= 0, got"):
        call(rng)
    assert rng._counter == 0
    assert rng.u64s(9).tolist() == RngStream(0, 0).u64s(9).tolist()


@pytest.mark.parametrize("call, message", [
    (lambda rng: rng.sample_positions(10, True), "n must be an int, got True"),
    (lambda rng: rng.sample_positions(10.0, 2), "m must be an int, got 10.0"),
    (lambda rng: rng.randbelow(True), "n must be an int >= 1, got True"),
    (lambda rng: rng.randbelow_many(np.int64(5), 2), "n must be an int >= 1, got np.int64(5)"),
    (lambda rng: RngStream(1.5, 0), "master_seed must be an int, got 1.5"),
    (lambda rng: RngStream(0, np.uint64(3)), "stream_index must be an int, got np.uint64(3)"),
    (lambda rng: rng.randbelow_shrinking(10.0, 3), "m must be an int, got 10.0"),
    (lambda rng: rng.randbelow_shrinking(np.int64(10), 3), "m must be an int, got np.int64(10)"),
    (lambda rng: rng.randbelow_shrinking(True, 0), "m must be an int, got True"),
    (lambda rng: rng.randbelow_shrinking(10, 3.0), "steps must be an int, got 3.0"),
    (lambda rng: rng.randbelow_shrinking(10, True), "steps must be an int, got True"),
    (lambda rng: rng.randbelow_shrinking(10, np.int64(3)), "steps must be an int, got np.int64(3)"),
], ids=["sample_positions-n", "sample_positions-m", "randbelow", "randbelow_many-n",
        "master_seed", "stream_index", "randbelow_shrinking-m-float",
        "randbelow_shrinking-m-numpy", "randbelow_shrinking-m-bool",
        "randbelow_shrinking-steps-float", "randbelow_shrinking-steps-bool",
        "randbelow_shrinking-steps-numpy"])
def test_non_int_arguments_are_refused(call, message):
    # sample_positions keeps its range message for an int n, so a bool n is
    # named by the int rule alone
    rng = RngStream(0, 0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(rng)
    assert rng._counter == 0


@pytest.mark.parametrize("m, steps", [(10, 10), (10, -1), (2**63, 1)])
def test_randbelow_shrinking_keeps_its_range_message(m, steps):
    rng = RngStream(0, 0)
    with pytest.raises(ValueError, match=re.escape("requires 0 <= steps < m < 2**63")):
        rng.randbelow_shrinking(m, steps)
    assert rng._counter == 0


class TestWithoutReplacement:
    def test_exhaustive_draw_is_permutation(self):
        urn = UrnSpec(((1, 2), (2, 2), (3, 1)))
        draws = sample_draws(urn, "hypergeometric", 5, RngStream(2, 0))
        assert sorted(draws) == [1, 1, 2, 2, 3]

    def test_forced_composition(self):
        urn = UrnSpec(((1, 2), (2, 1)))
        for t in range(50):
            draws = sample_draws(urn, "hypergeometric", 3, RngStream(4, t))
            assert sorted(draws) == [1, 1, 2]

    def test_oversized_draw_rejected(self):
        with pytest.raises(ValueError):
            sample_draws(TWO, "hypergeometric", 3, RngStream(0, 0))

    def test_pair_frequencies(self):
        # each unordered pair of 3 singletons appears w.p. exactly 1/3
        counts = Counter()
        for t in range(60_000):
            draws = sample_draws(THREE, "hypergeometric", 2, RngStream(17, t))
            counts[frozenset(draws)] += 1
        for pair, cnt in counts.items():
            assert abs(cnt / 60_000 - 1 / 3) <= 0.01

    def test_orderings_exchangeable(self):
        # all 3! orderings equifrequent within 4 sigma over 6e4 trials
        counts = Counter()
        for t in range(60_000):
            draws = sample_draws(THREE, "hypergeometric", 3, RngStream(19, t))
            counts[tuple(draws)] += 1
        assert len(counts) == 6
        tol = 4 * math.sqrt((1 / 6) * (5 / 6) / 60_000)
        for cnt in counts.values():
            assert abs(cnt / 60_000 - 1 / 6) <= tol


class TestBernoulli:
    def test_p_zero_and_one(self):
        # n = 0 and n = k keep each ball with p = 0 and p = 1
        urn = make_uniform_support(20, 5)
        assert sample_draws(urn, "bernoulli", 0, RngStream(0, 0)) == []
        full = sample_draws(urn, "bernoulli", 20, RngStream(0, 0))
        assert sorted(full) == sorted(
            cid for cid, mult in colors(urn) for _ in range(mult)
        )

    def test_invalid_probability(self):
        # n outside [0, k] would give p = n / k outside [0, 1]
        for dispatch in (sample_counts, sample_draws):
            for n, said in ((-1, "sample size must be an int >= 0, got -1"),
                            (TWO.k + 1, "sample size: the bernoulli model needs 0 <= n <= k, "
                                        f"got n = {TWO.k + 1}, k = 2")):
                rng = RngStream(0, 0)
                with pytest.raises(ValueError, match=f"^{re.escape(said)}$"):
                    dispatch(TWO, "bernoulli", n, rng)
                assert rng._counter == 0

    @pytest.mark.parametrize("urn", [make_uniform_support(10_000, 10_000),
                                     UrnSpec(((1, 10_000),))])
    def test_realized_size_band(self, urn):
        # Binomial(1e4, 0.3): 4 sigma ~ 183 < 200; covers both sampler paths
        draws = sample_draws(urn, "bernoulli", 3000, RngStream(21, 0))
        assert abs(len(draws) - 3000) <= 200


class TestPoissonized:
    def test_zero_rate(self):
        assert sample_draws(TWO, "poissonized", 0, RngStream(0, 0)) == []

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            sample_draws(TWO, "poissonized", -1, RngStream(0, 0))

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_non_finite_rate_is_rejected_before_drawing(self, n):
        # a heavy color would otherwise reach PTRS with a NaN or infinite mean
        urn = UrnSpec(((1, 1), (2, 100)))
        rng = RngStream(0, 0)
        with pytest.raises(ValueError, match=f"^expected sample size n must be finite, got {n}$"):
            poissonized_color_counts(urn, n, rng)
        assert rng._counter == 0

    @pytest.mark.parametrize("n", [1e300, 1e308])
    def test_huge_rate_is_rejected_before_drawing(self, n):
        # the heavy color's mean would break PTRS or overflow its int64 count
        urn = UrnSpec(((1, 1), (2, 3)))
        rng = RngStream(0, 0)
        said = re.escape(f"expected sample size n = {n} gives a largest Poisson mean of ")
        with pytest.raises(ValueError, match=f"^{said}\\S+, above 9\\.22337e\\+18$"):
            poissonized_color_counts(urn, n, rng)
        assert rng._counter == 0

    @pytest.mark.parametrize("n", [1e25, 1e29])
    def test_count_past_int64_is_a_value_error(self, n):
        # a mean past 2**63 is rejected before any variate is drawn
        urn = UrnSpec(((1, 1), (2, 3)))
        rng = RngStream(0, 0)
        said = re.escape(f"expected sample size n = {n} gives a largest Poisson mean of "
                         f"{0.75 * n:g}, above 9.22337e+18")
        with pytest.raises(ValueError, match=f"^{said}$"):
            poissonized_color_counts(urn, n, rng)
        assert rng._counter == 0

    def test_count_past_int64_below_the_mean_limit_is_a_value_error(self):
        # largest mean just below 2**63: the variate itself is checked, after
        # the stream has moved
        urn = UrnSpec(((1, 1), (2, 3)))
        n = 1.2297829382473032e19
        said = re.escape(f"expected sample size n = {n} gives a Poisson count of ")
        with pytest.raises(ValueError, match=f"^{said}\\d+ at mean 9\\.22337e\\+18, past the int64 range$"):
            poissonized_color_counts(urn, n, RngStream(1, 0))

    def test_counts_just_inside_int64_are_drawn(self):
        # largest mean 7.5e18, below 2**63: the variates are written as before
        urn = UrnSpec(((1, 1), (2, 3)))
        counts = poissonized_color_counts(urn, 1e19, RngStream(1, 0))
        assert counts.tolist() == [2500000000099606528, 7500000006173329408]

    def test_counts_leave_the_ball_table_unbuilt(self):
        # only the multinomial and hypergeometric cores read ball_colors
        urn = make_uniform_support(500, 120)
        poissonized_color_counts(urn, 300, RngStream(9, 3))
        bernoulli_counts(urn, 0.5, RngStream(9, 3))
        assert "ball_colors" not in urn.__dict__

    def test_mean_realized_size(self):
        urn = UrnSpec(((1, 1),))
        total = 0
        for t in range(10_000):
            total += len(sample_draws(urn, "poissonized", 4, RngStream(31, t)))
        assert abs(total / 10_000 - 4.0) <= 0.08  # 4 sigma band

    def test_counts_independent(self):
        urn = UrnSpec(((1, 1), (2, 3)))
        xs, ys = [], []
        for t in range(10_000):
            counts = poissonized_color_counts(urn, 8, RngStream(37, t))
            xs.append(counts[0])
            ys.append(counts[1])
        mx, my = sum(xs) / 1e4, sum(ys) / 1e4
        assert abs(mx - 2.0) <= 4 * math.sqrt(2 / 1e4)
        assert abs(my - 6.0) <= 4 * math.sqrt(6 / 1e4)
        cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / 1e4
        assert abs(cov) <= 4 * math.sqrt(12 / 1e4)

    def test_counts_stage_matches_full_draw(self):
        urn = make_uniform_support(500, 120)
        counts = poissonized_color_counts(urn, 300, RngStream(9, 3))
        draws = sample_draws(urn, "poissonized", 300, RngStream(9, 3))
        assert fingerprint_from_count_values(counts) == fingerprint_from_count_values(
            list(Counter(draws).values()))


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


class TestSimulateWithFromWithout:
    def test_first_draw_always_kept(self):
        for t in range(200):
            rng = RngStream(43, t)
            draws = sample_draws(THREE, "hypergeometric", 2, rng)
            sim = simulate_with_from_without(draws, 3, rng)
            assert sim[0] == draws[0]

    def test_second_draw_reuse_frequency(self):
        hits = 0
        for t in range(100_000):
            rng = RngStream(23, t)
            draws = sample_draws(TWO, "hypergeometric", 2, rng)
            sim = simulate_with_from_without(draws, 2, rng)
            if sim[1] == 1:
                hits += 1
        assert abs(hits / 100_000 - 0.5) <= 0.01

    def test_empty_batch(self):
        draws = sample_draws(TWO, "hypergeometric", 0, RngStream(0, 0))
        assert simulate_with_from_without(draws, 2, RngStream(0, 1)) == []

    def test_oversized_batch_rejected(self):
        draws = sample_draws(TWO, "multinomial", 5, RngStream(0, 0))
        with pytest.raises(ValueError):
            simulate_with_from_without(draws, 2, RngStream(0, 1))

    def test_joint_law_total_variation(self):
        # (X1, X2) from the simulation vs the exact 1/4-each law, TV <= 0.02
        counts = Counter()
        trials = 100_000
        for t in range(trials):
            rng = RngStream(103, t)
            draws = sample_draws(TWO, "hypergeometric", 2, rng)
            sim = simulate_with_from_without(draws, 2, rng)
            counts[tuple(sim)] += 1
        tv = 0.5 * sum(
            abs(counts.get((a, b), 0) / trials - 0.25)
            for a in (1, 2) for b in (1, 2)
        )
        assert tv <= 0.02
