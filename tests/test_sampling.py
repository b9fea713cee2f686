import math
from collections import Counter

import numpy as np
import pytest

from urncount.fingerprint import fingerprint_from_count_values
from urncount.rng import RngStream
from urncount.sampling import (
    draw_bernoulli,
    draw_poissonized,
    draw_with_replacement,
    draw_without_replacement,
    poissonized_color_counts,
    simulate_with_from_without,
)
from urncount.urn import UrnSpec, make_uniform_support

TWO = UrnSpec(((1, 1), (2, 1)))
THREE = UrnSpec(((1, 1), (2, 1), (3, 1)))


class TestRngStream:
    def test_vectorized_uniforms_match_scalar(self):
        a = RngStream(42, 7)
        b = RngStream(42, 7)
        scalar = np.array([a.random() for _ in range(257)])
        assert np.array_equal(scalar, b.uniforms(257))

    def test_streams_differ(self):
        assert RngStream(1, 0).next_u64() != RngStream(1, 1).next_u64()
        assert RngStream(1, 0).next_u64() != RngStream(2, 0).next_u64()

    def test_poisson_many_matches_scalar(self):
        a = RngStream(5, 1)
        b = RngStream(5, 1)
        scalar = np.array([a.poisson(2.5) for _ in range(4000)])
        assert np.array_equal(scalar, b.poisson_many(2.5, 4000))

    def test_poisson_mean_variance_rejection_path(self):
        rng = RngStream(11, 0)
        vals = [rng.poisson(50.0) for _ in range(40_000)]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert abs(mean - 50.0) < 0.2  # 4 sigma ~ 0.14
        assert abs(var - 50.0) < 2.0

    def test_binomial_inversion_and_chunking(self):
        rng = RngStream(13, 0)
        vals = [rng.binomial(1000, 0.25) for _ in range(20_000)]
        assert abs(sum(vals) / len(vals) - 250.0) < 0.4  # 4 sigma ~ 0.39
        rng = RngStream(13, 1)
        vals = [rng.binomial(5000, 0.9) for _ in range(5_000)]
        assert abs(sum(vals) / len(vals) - 4500.0) < 1.2

    def test_randbelow_bounds(self):
        rng = RngStream(0, 0)
        assert all(0 <= rng.randbelow(7) < 7 for _ in range(200))
        with pytest.raises(ValueError):
            rng.randbelow(0)


class TestWithReplacement:
    def test_zero_samples(self):
        assert draw_with_replacement(TWO, 0, RngStream(0, 0)).draws == ()

    def test_single_color_forces_outcome(self):
        urn = UrnSpec(((7, 1),))
        batch = draw_with_replacement(urn, 5, RngStream(0, 0))
        assert batch.draws == (7,) * 5

    def test_empirical_fraction(self):
        batch = draw_with_replacement(TWO, 100_000, RngStream(3, 0))
        frac = sum(1 for d in batch.draws if d == 1) / 100_000
        assert 0.49 <= frac <= 0.51

    def test_negative_size(self):
        with pytest.raises(ValueError):
            draw_with_replacement(TWO, -1, RngStream(0, 0))

    def test_determinism(self):
        b1 = draw_with_replacement(TWO, 100, RngStream(9, 4))
        b2 = draw_with_replacement(TWO, 100, RngStream(9, 4))
        assert b1 == b2


class TestWithoutReplacement:
    def test_exhaustive_draw_is_permutation(self):
        urn = UrnSpec(((1, 2), (2, 2), (3, 1)))
        batch = draw_without_replacement(urn, 5, RngStream(2, 0))
        assert sorted(batch.draws) == [1, 1, 2, 2, 3]

    def test_forced_composition(self):
        urn = UrnSpec(((1, 2), (2, 1)))
        for t in range(50):
            batch = draw_without_replacement(urn, 3, RngStream(4, t))
            assert sorted(batch.draws) == [1, 1, 2]

    def test_oversized_draw_rejected(self):
        with pytest.raises(ValueError):
            draw_without_replacement(TWO, 3, RngStream(0, 0))

    def test_pair_frequencies(self):
        # each unordered pair of 3 singletons appears w.p. exactly 1/3
        counts = Counter()
        for t in range(60_000):
            batch = draw_without_replacement(THREE, 2, RngStream(17, t))
            counts[frozenset(batch.draws)] += 1
        for pair, cnt in counts.items():
            assert abs(cnt / 60_000 - 1 / 3) <= 0.01

    def test_orderings_exchangeable(self):
        # all 3! orderings equifrequent within 4 sigma over 6e4 trials
        counts = Counter()
        for t in range(60_000):
            batch = draw_without_replacement(THREE, 3, RngStream(19, t))
            counts[batch.draws] += 1
        assert len(counts) == 6
        tol = 4 * math.sqrt((1 / 6) * (5 / 6) / 60_000)
        for cnt in counts.values():
            assert abs(cnt / 60_000 - 1 / 6) <= tol


class TestBernoulli:
    def test_p_zero_and_one(self):
        urn = make_uniform_support(20, 5)
        assert draw_bernoulli(urn, 0.0, RngStream(0, 0)).draws == ()
        full = draw_bernoulli(urn, 1.0, RngStream(0, 0))
        assert sorted(full.draws) == sorted(
            cid for cid, mult in urn.colors for _ in range(mult)
        )

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            draw_bernoulli(TWO, 1.5, RngStream(0, 0))

    @pytest.mark.parametrize("urn", [make_uniform_support(10_000, 10_000),
                                     UrnSpec(((1, 10_000),))])
    def test_realized_size_band(self, urn):
        # Binomial(1e4, 0.3): 4 sigma ~ 183 < 200; covers both sampler paths
        batch = draw_bernoulli(urn, 0.3, RngStream(21, 0))
        assert abs(batch.realized_size - 3000) <= 200


class TestPoissonized:
    def test_zero_rate(self):
        assert draw_poissonized(TWO, 0, RngStream(0, 0)).draws == ()

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            draw_poissonized(TWO, -1, RngStream(0, 0))

    def test_mean_realized_size(self):
        urn = UrnSpec(((1, 1),))
        total = 0
        for t in range(10_000):
            total += draw_poissonized(urn, 4, RngStream(31, t)).realized_size
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
        batch = draw_poissonized(urn, 300, RngStream(9, 3))
        assert fingerprint_from_count_values(counts) == fingerprint_from_count_values(
            list(Counter(batch.draws).values()))

    def test_scalar_and_vector_paths_agree(self):
        # below the vector threshold the sampler walks colors one by one;
        # the bulk path must reproduce it exactly
        small = make_uniform_support(31, 31)
        scalar = poissonized_color_counts(small, 20, RngStream(41, 0))
        vec = RngStream(41, 0).poisson_many(20 / 31, 31)
        assert np.array_equal(scalar, vec)


class TestSimulateWithFromWithout:
    def test_first_draw_always_kept(self):
        for t in range(200):
            rng = RngStream(43, t)
            batch = draw_without_replacement(THREE, 2, rng)
            sim = simulate_with_from_without(batch, 3, rng)
            assert sim.draws[0] == batch.draws[0]

    def test_second_draw_reuse_frequency(self):
        hits = 0
        for t in range(100_000):
            rng = RngStream(23, t)
            batch = draw_without_replacement(TWO, 2, rng)
            sim = simulate_with_from_without(batch, 2, rng)
            if sim.draws[1] == 1:
                hits += 1
        assert abs(hits / 100_000 - 0.5) <= 0.01

    def test_empty_batch(self):
        batch = draw_without_replacement(TWO, 0, RngStream(0, 0))
        assert simulate_with_from_without(batch, 2, RngStream(0, 1)).draws == ()

    def test_oversized_batch_rejected(self):
        batch = draw_with_replacement(TWO, 5, RngStream(0, 0))
        with pytest.raises(ValueError):
            simulate_with_from_without(batch, 2, RngStream(0, 1))

    def test_joint_law_total_variation(self):
        # (X1, X2) from the simulation vs the exact 1/4-each law, TV <= 0.02
        counts = Counter()
        trials = 100_000
        for t in range(trials):
            rng = RngStream(103, t)
            batch = draw_without_replacement(TWO, 2, rng)
            sim = simulate_with_from_without(batch, 2, rng)
            counts[sim.draws] += 1
        tv = 0.5 * sum(
            abs(counts.get((a, b), 0) / trials - 0.25)
            for a in (1, 2) for b in (1, 2)
        )
        assert tv <= 0.02
