import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urncount.estimator import (
    COEFF_CACHE_SIZE,
    CoefficientVector,
    EstimatorParams,
    ParameterizationError,
    build_estimator,
    estimate,
    exact_bias,
    interp_coeffs,
    naive_coefficients,
    select_params,
)
from urncount.fingerprint import Fingerprint, fingerprint_from_count_values
from urncount.orthopoly import l2_min_value
from urncount.rng import RngStream
from urncount.sampling import poissonized_color_counts
from urncount.urn import UrnSpec, make_hard_pair, make_uniform_support

from test_urn import colors


class TestSelectParams:
    def test_l2_operating_point(self):
        p = select_params(10_000, 5000)
        assert p.regime == "l2"
        assert (p.L, p.M) == (5, 37)

    def test_interpolation_operating_point(self):
        p = select_params(100, 400)
        assert p.regime == "interpolation"
        assert (p.L, p.M) == (5, 5)

    def test_degenerate_oversampling_floors_at_one(self):
        p = select_params(10_000, 10**9)
        assert (p.L, p.M) == (1, 1)

    def test_m_raised_to_l_plus_one(self):
        # forced l2 far past n = k gives ceil(2 k ln k / n) = 1 < L+1; the floor must kick in
        p = select_params(10_000, 10**9, regime="l2")
        assert (p.regime, p.L, p.M) == ("l2", 5, 6)

    @pytest.mark.parametrize("k", [2, 100, 2**53 - 1, 2**53, 2**53 + 1, 10**20])
    def test_regime_switches_past_n_equal_k(self, k):
        # n = k is l2 at every k: the switch compares the integers, not n with a rounded 1.0*k
        assert select_params(k, k).regime == "l2"
        assert select_params(k, k + 1).regime == "interpolation"

    def test_invalid(self):
        with pytest.raises(ValueError):
            select_params(1, 5)
        with pytest.raises(ValueError):
            select_params(10, 0)

    @pytest.mark.parametrize("k,n,regime", [
        (10**400, 5, None), (10**400, 10**399, None), (10**308, 1, None),
        (10**400, 1, "interpolation")], ids=["1e400-5", "1e400-1e399", "1e308-1", "1e400-1-interp"])
    def test_sizes_past_float_range_are_refused(self, k, n, regime):
        said = f"k of {k.bit_length()} bits with n of {n.bit_length()} bits puts L or M past the"
        with pytest.raises(ValueError, match=f"^{said} float range$"):
            select_params(k, n, regime=regime)

    @pytest.mark.parametrize("k,n,bad", [(10.5, 3, "k"), (10, 3.0, "n"), (2, True, "n"),
                                         (True, 3, "k"), (math.nan, 3, "k"), ("10", 3, "k")])
    def test_sizes_must_be_ints(self, k, n, bad):
        # a float or bool k or n used to pass and fail later, inside Fraction
        value = {"k": k, "n": n}[bad]
        floor = {"k": 2, "n": 1}[bad]
        with pytest.raises(ValueError, match=f"{bad} must be an int >= {floor}, got {value!r}"):
            select_params(k, n)
        with pytest.raises(ValueError, match=f"{bad} must be an int >= {floor}, got {value!r}"):
            EstimatorParams(k, n, 1, 2, "l2")

    @pytest.mark.parametrize("call, message", [
        # each of these used to build an object for a k, M or delta that is no int
        (lambda: interp_coeffs(3, 2.5, 1), "k must be an int >= 1, got 2.5"),
        (lambda: interp_coeffs(True, 2, 1), "M must be an int >= 1, got True"),
        (lambda: naive_coefficients(2.5, 1), "k must be an int >= 1, got 2.5"),
        (lambda: EstimatorParams(10, 3, True, 2, "l2"), "L must be an int >= 1, got True"),
        (lambda: make_hard_pair(10, True, 0), "delta must be an int >= 1, got True"),
        (lambda: make_uniform_support(10.0, 5), "k must be an int >= 1, got 10.0"),
    ], ids=["interp_coeffs-k", "interp_coeffs-M", "naive_coefficients", "EstimatorParams-L",
            "make_hard_pair", "make_uniform_support"])
    def test_builder_sizes_must_be_ints(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_regime_forces_either_rule(self):
        k = 10_000
        logk = math.log(k)
        p = select_params(k, 5000, regime="interpolation")
        size = math.ceil(3.5 * (k / 5000) * logk)
        assert (p.regime, p.L, p.M) == ("interpolation", size, size)
        q = select_params(k, 20_000, regime="l2")
        L = math.ceil(0.5 * logk)
        assert (q.regime, q.L, q.M) == ("l2", L, max(L + 1, math.ceil(2 * k * logk / 20_000)))
        assert select_params(k, 5000, regime=None) == select_params(k, 5000)
        with pytest.raises(ValueError, match="regime"):
            select_params(k, 5000, regime="bogus")


class TestBuildEstimator:
    def test_interpolation_example(self):
        p = EstimatorParams(2, 2, 2, 2, "interpolation")
        coeffs = build_estimator(p)
        assert coeffs.u == pytest.approx((1.5, -1.0), rel=1e-12)

    def test_l2_example(self):
        # k = n*M makes k/(nM) = 1, so u_1 = w_1 = 6/5
        p = EstimatorParams(10, 5, 1, 2, "l2")
        coeffs = build_estimator(p)
        assert coeffs.u == pytest.approx((1.2,), rel=1e-12)

    def test_cache_hit_returns_identical_digest(self):
        p = select_params(500, 250)
        assert build_estimator(p).digest == build_estimator(p).digest
        assert build_estimator(p) is build_estimator(p)

    def test_cache_is_bounded_lru(self):
        build_estimator.cache_clear()
        first = select_params(10_000, 5_000)
        build_estimator(first)
        build_estimator(first)
        info = build_estimator.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.maxsize == COEFF_CACHE_SIZE
        for n in range(1, COEFF_CACHE_SIZE + 1):  # COEFF_CACHE_SIZE more keys
            build_estimator(EstimatorParams(10, n, 1, 2, "l2"))
        info = build_estimator.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, COEFF_CACHE_SIZE + 1, COEFF_CACHE_SIZE)
        build_estimator(first)  # the oldest entry was evicted
        assert build_estimator.cache_info().misses == COEFF_CACHE_SIZE + 2
        build_estimator(EstimatorParams(10, COEFF_CACHE_SIZE, 1, 2, "l2"))
        assert build_estimator.cache_info().hits == 2  # the newest one was kept

    def test_stirling_cap_raises_parameterization_error(self):
        p = select_params(100_000, 1000, regime="interpolation")
        assert p.M > 127
        with pytest.raises(ParameterizationError, match="128-node cap"):
            build_estimator(p)

    def test_overflow_raises_parameterization_error(self):
        p = EstimatorParams(10**6, 1, 60, 60, "interpolation")
        with pytest.raises(ParameterizationError, match="l2"):
            build_estimator(p)

    def test_every_kind_is_bound_to_k_and_n(self):
        naive = naive_coefficients(100, 40)
        assert (naive.kind, naive.L, naive.M, naive.k, naive.n) == ("naive", 0, 1, 100, 40)
        assert naive.w_exact == naive.w == naive.u == ()
        for n, kind in ((40, "l2"), (400, "interpolation")):
            coeffs = build_estimator(select_params(100, n))
            assert (coeffs.kind, coeffs.k, coeffs.n) == (kind, 100, n)
            assert coeffs.L == len(coeffs.w_exact) == select_params(100, n).L
            assert coeffs.w == tuple(float(wj) for wj in coeffs.w_exact)


class TestEstimate:
    def test_linear_correction(self):
        coeffs = interp_coeffs(2, 10, 10)  # u = (1.5, -1.0)
        res = estimate(Fingerprint({1: 2}), coeffs)
        assert res.c_tilde == pytest.approx(5.0)
        assert res.c_hat == 5

    def test_naive_degenerates_to_seen(self):
        res = estimate(Fingerprint({1: 2, 3: 1}), naive_coefficients(10, 5))
        assert res.c_hat == res.c_seen == 3

    def test_clamp_at_k(self):
        coeffs = interp_coeffs(2, 10, 10)
        res = estimate(Fingerprint({1: 10}), coeffs)
        assert res.c_tilde == pytest.approx(25.0)
        assert res.c_hat == 10

    def test_clamp_below_at_seen(self):
        coeffs = CoefficientVector("l2", 2, 10, 1, (Fraction(0),), (-2.0,))
        res = estimate(Fingerprint({1: 3}), coeffs)
        assert res.c_hat == 3

    def test_more_seen_than_k_is_error(self):
        coeffs = interp_coeffs(2, 5, 5)
        with pytest.raises(ValueError, match="c_seen = 10 .* k = 5"):
            estimate(Fingerprint({1: 10}), coeffs)

    def test_empty_fingerprint_is_error(self):
        with pytest.raises(ValueError, match="zero samples"):
            estimate(Fingerprint({}), naive_coefficients(10, 5))

    @given(
        st.dictionaries(st.integers(1, 12), st.integers(1, 50), min_size=1, max_size=8),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
        st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_clamp_monotonicity(self, phi, u, extra):
        c_seen = sum(phi.values())
        k = c_seen + extra  # a sample can never reveal more colors than k
        coeffs = CoefficientVector("l2", len(u) + 1, k, 1, tuple(Fraction(0) for _ in u), tuple(u))
        res = estimate(Fingerprint(phi), coeffs)
        assert c_seen <= res.c_hat <= k


class TestExactBias:
    def test_interpolation_zero_bias_hand_case(self):
        # phi(a) = 1.5a - 0.5a^2 satisfies phi(1) = phi(2) = 1
        coeffs = interp_coeffs(2, 6, 6)
        urn = UrnSpec(((1, 1), (2, 1), (3, 2), (4, 2)))
        assert exact_bias(urn, coeffs, exact=True) == 0.0
        assert abs(exact_bias(urn, coeffs)) < 1e-12

    def test_urn_other_than_built_for_is_error(self):
        coeffs = build_estimator(select_params(10_000, 5_000))
        with pytest.raises(ValueError, match="built for k=10000, not k=5000"):
            exact_bias(make_uniform_support(5_000, 5_000), coeffs)

    def test_exact_l2_bias_is_the_fraction_sum(self):
        # exact=True rounds each p(k_i/M) - 1 once, as float(Fraction) does
        k, n = 120, 60
        coeffs = build_estimator(select_params(k, n))
        urn = make_uniform_support(k, 50)
        mults = urn.mults.tolist()
        want = 0.0
        for mult in sorted(set(mults)):
            x = Fraction(mult, coeffs.M)
            gap = sum(wj * x**j for j, wj in enumerate(coeffs.w_exact, start=1)) - 1
            want += mults.count(mult) * math.exp(-n * mult / k) * float(gap)
        assert exact_bias(urn, coeffs, exact=True) == want

    def test_naive_bias_uniform_full(self):
        urn = make_uniform_support(100, 100)
        b = exact_bias(urn, naive_coefficients(100, 50))
        assert b == pytest.approx(-100 * math.exp(-0.5), rel=1e-12)

    def test_l2_bias_matches_node_formula(self):
        # uniform-full urn: bias = k e^{-n/k} (p(1/M) - 1)
        k, n = 200, 100
        params = select_params(k, n)
        coeffs = build_estimator(params)
        urn = make_uniform_support(k, k)
        p_at = sum(wj * (1 / params.M) ** j for j, wj in enumerate(coeffs.w, start=1))
        assert exact_bias(urn, coeffs) == pytest.approx(
            k * math.exp(-n / k) * (p_at - 1), rel=1e-9)
        assert abs(p_at - 1) <= l2_min_value(params.M, params.L) * (1 + 1e-9)

    def test_l2_bias_bounded_by_per_node_sum(self):
        # |bias| <= sum_i e^{-n p_i} |p(k_i/M) - 1| <= k e^{-n/k} * l2 value
        k, n = 120, 60
        params = select_params(k, n)
        coeffs = build_estimator(params)
        for C in (k, k // 2, k // 3):
            urn = make_uniform_support(k, C)
            if max(urn.mults.tolist()) > params.M:
                continue
            per_node = sum(
                math.exp(-n * mult / k)
                * abs(sum(wj * (mult / params.M) ** j
                          for j, wj in enumerate(coeffs.w, start=1)) - 1)
                for _, mult in colors(urn)
            )
            bias = exact_bias(urn, coeffs)
            assert abs(bias) <= per_node * (1 + 1e-9)
            assert per_node <= k * math.exp(-n / k) * l2_min_value(params.M, params.L) * (1 + 1e-9)

    def test_statistical_unbiasedness_interpolation(self):
        k, n, trials = 100, 400, 2000
        urn = make_uniform_support(k, 50)
        params = select_params(k, n)
        coeffs = build_estimator(params)
        tildes = []
        for t in range(trials):
            fp = fingerprint_from_count_values(
                poissonized_color_counts(urn, n, RngStream(611, t)))
            tildes.append(estimate(fp, coeffs).c_tilde)
        mean = sum(tildes) / trials
        std = math.sqrt(sum((x - mean) ** 2 for x in tildes) / (trials - 1))
        assert abs(mean - 50) <= 5 * std / math.sqrt(trials)
