import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urncount.estimator import (
    COEFF_CACHE_SIZE,
    EstimatorParams,
    ParameterizationError,
    build_estimator,
    estimate,
    exact_bias,
    naive_coefficients,
    select_params,
    _coefficients,
)
from urncount import orthopoly
from urncount.fingerprint import Fingerprint, fingerprint_from_count_values
from urncount.orthopoly import CoefficientVector, l2_min_value, solve_l2
from urncount.rng import RngStream
from urncount.sampling import poissonized_color_counts
from urncount.stirling import interp_coeffs
from urncount.urn import UrnSpec, make_uniform_support


class TestSelectParams:
    def test_l2_operating_point(self):
        p = select_params(10_000, 5000)
        assert p.regime == "l2"
        assert (p.L, p.M) == (5, 37)

    def test_interpolation_operating_point(self):
        p = select_params(100, 400)
        assert p.regime == "interpolation"
        assert (p.L, p.M) == (5, 5)
        assert p.beta == 3.5

    def test_degenerate_oversampling_floors_at_one(self):
        p = select_params(10_000, 10**9)
        assert (p.L, p.M) == (1, 1)

    def test_m_raised_to_l_plus_one(self):
        # tiny beta would give M < L+1; the floor must kick in
        p = select_params(1000, 900, beta=0.51)
        assert p.regime == "l2"
        assert p.M >= p.L + 1

    def test_overrides(self):
        p = select_params(1000, 100, alpha=0.3, beta=4.0, eta=2.0)
        assert (p.alpha, p.beta, p.eta) == (0.3, 4.0, 2.0)
        # eta override moves the regime boundary
        assert select_params(100, 150, eta=2.0).regime == "l2"
        assert select_params(100, 150, eta=1.0).regime == "interpolation"

    def test_invalid(self):
        with pytest.raises(ValueError):
            select_params(1, 5)
        with pytest.raises(ValueError):
            select_params(10, 0)
        with pytest.raises(ValueError):
            select_params(100, 10, alpha=2.0, beta=1.0)

    def test_regime_forces_either_rule(self):
        k = 10_000
        logk = math.log(k)
        p = select_params(k, 5000, regime="interpolation")
        size = math.ceil(3.5 * (k / 5000) * logk)
        assert (p.regime, p.L, p.M, p.beta) == ("interpolation", size, size, 3.5)
        q = select_params(k, 20_000, regime="l2")
        L = math.ceil(0.5 * logk)
        assert (q.regime, q.L, q.M, q.beta) == ("l2", L, max(L + 1, math.ceil(2 * k * logk / 20_000)), 2.0)
        assert select_params(k, 5000, regime=None) == select_params(k, 5000)
        with pytest.raises(ValueError, match="regime"):
            select_params(k, 5000, regime="bogus")


class TestBuildEstimator:
    def test_interpolation_example(self):
        p = EstimatorParams(2, 2, 0.5, 3.5, 1.0, 2, 2, "interpolation")
        coeffs = build_estimator(p)
        assert coeffs.u == pytest.approx((1.5, -1.0), rel=1e-12)

    def test_l2_example(self):
        # k = n*M makes k/(nM) = 1, so u_1 = w_1 = 6/5
        p = EstimatorParams(10, 5, 0.5, 2.0, 1.0, 1, 2, "l2")
        coeffs = build_estimator(p)
        assert coeffs.u == pytest.approx((1.2,), rel=1e-12)

    def test_cache_hit_returns_identical_digest(self):
        p = select_params(500, 250)
        assert build_estimator(p).digest == build_estimator(p).digest
        assert build_estimator(p) is build_estimator(p)

    def test_cache_is_bounded_lru(self):
        _coefficients.cache_clear()
        first = select_params(10_000, 5_000)
        build_estimator(first)
        build_estimator(first)
        info = _coefficients.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.maxsize == COEFF_CACHE_SIZE
        for n in range(1, COEFF_CACHE_SIZE + 1):  # COEFF_CACHE_SIZE more keys
            build_estimator(EstimatorParams(10, n, 0.5, 2.0, 1.0, 1, 2, "l2"))
        info = _coefficients.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, COEFF_CACHE_SIZE + 1, COEFF_CACHE_SIZE)
        build_estimator(first)  # the oldest entry was evicted
        assert _coefficients.cache_info().misses == COEFF_CACHE_SIZE + 2
        build_estimator(EstimatorParams(10, COEFF_CACHE_SIZE, 0.5, 2.0, 1.0, 1, 2, "l2"))
        assert _coefficients.cache_info().hits == 2  # the newest one was kept

    def test_stirling_cap_raises_parameterization_error(self):
        p = select_params(100_000, 1000, regime="interpolation")
        assert p.M > 127
        with pytest.raises(ParameterizationError, match="128-node cap"):
            build_estimator(p)

    def test_overflow_raises_parameterization_error(self):
        p = EstimatorParams(10**6, 1, 0.5, 3.5, 1.0, 60, 60, "interpolation")
        with pytest.raises(ParameterizationError, match="l2"):
            build_estimator(p)

    def test_one_error_class(self):
        # raised by interp_coeffs and estimate alike, re-exported here
        assert ParameterizationError is orthopoly.ParameterizationError


class TestEstimate:
    def test_linear_correction(self):
        coeffs = CoefficientVector(kind="interpolation", L=2, M=2,
                                   w=(3.0, -2.0), u=(1.5, -1.0))
        res = estimate(Fingerprint({1: 2}, 2), coeffs, 10)
        assert res.c_tilde == pytest.approx(5.0)
        assert res.c_hat == 5

    def test_naive_degenerates_to_seen(self):
        res = estimate(Fingerprint({1: 2, 3: 1}, 3), naive_coefficients(), 10)
        assert res.c_hat == res.c_seen == 3

    def test_clamp_at_k(self):
        coeffs = CoefficientVector(kind="interpolation", L=2, M=2,
                                   w=(3.0, -2.0), u=(1.5, -1.0))
        res = estimate(Fingerprint({1: 10}, 10), coeffs, 10)
        assert res.c_tilde == pytest.approx(25.0)
        assert res.c_hat == 10

    def test_clamp_below_at_seen(self):
        coeffs = CoefficientVector(kind="l2", L=1, M=2, w=(0.0,), u=(-2.0,))
        res = estimate(Fingerprint({1: 3}, 3), coeffs, 10)
        assert res.c_hat == 3

    def test_more_seen_than_k_is_error(self):
        coeffs = CoefficientVector(kind="interpolation", L=2, M=2,
                                   w=(3.0, -2.0), u=(1.5, -1.0))
        with pytest.raises(ValueError, match="c_seen = 10 .* k = 5"):
            estimate(Fingerprint({1: 10}, 10), coeffs, k=5)

    def test_empty_fingerprint_is_error(self):
        with pytest.raises(ValueError, match="zero samples"):
            estimate(Fingerprint({}, 0), naive_coefficients(), 10)

    def test_unbound_vector_names_the_missing_binding(self):
        with pytest.raises(ParameterizationError, match=r"not bound to sample parameters \(k, n\)"):
            estimate(Fingerprint({1: 2, 2: 1}, 3), solve_l2(5, 2), 10)

    def test_k_mismatch_is_error(self):
        coeffs = build_estimator(select_params(100, 400))
        with pytest.raises(ValueError, match="built for k=100"):
            estimate(Fingerprint({1: 1}, 1), coeffs, 50)

    @given(
        st.dictionaries(st.integers(1, 12), st.integers(1, 50), min_size=1, max_size=8),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
        st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_clamp_monotonicity(self, phi, u, extra):
        c_seen = sum(phi.values())
        k = c_seen + extra  # a sample can never reveal more colors than k
        coeffs = CoefficientVector(kind="l2", L=len(u), M=len(u) + 1,
                                   w=tuple(0.0 for _ in u), u=tuple(u))
        res = estimate(Fingerprint(phi, c_seen), coeffs, k)
        assert c_seen <= res.c_hat <= k


class TestExactBias:
    def test_interpolation_zero_bias_hand_case(self):
        # phi(a) = 1.5a - 0.5a^2 satisfies phi(1) = phi(2) = 1
        coeffs = interp_coeffs(2, 6, 6)
        urn = UrnSpec(((1, 1), (2, 1), (3, 2), (4, 2)))
        assert exact_bias(urn, coeffs, 6, exact=True) == 0.0
        assert abs(exact_bias(urn, coeffs, 6)) < 1e-12

    def test_naive_bias_uniform_full(self):
        urn = make_uniform_support(100, 100)
        b = exact_bias(urn, naive_coefficients(), 50)
        assert b == pytest.approx(-100 * math.exp(-0.5), rel=1e-12)

    def test_l2_bias_matches_node_formula(self):
        # uniform-full urn: bias = k e^{-n/k} (p(1/M) - 1)
        k, n = 200, 100
        params = select_params(k, n)
        coeffs = build_estimator(params)
        urn = make_uniform_support(k, k)
        p_at = sum(wj * (1 / params.M) ** j for j, wj in enumerate(coeffs.w, start=1))
        assert exact_bias(urn, coeffs, n) == pytest.approx(
            k * math.exp(-n / k) * (p_at - 1), rel=1e-9)
        assert abs(p_at - 1) <= l2_min_value(params.M, params.L) * (1 + 1e-9)

    def test_l2_bias_bounded_by_per_node_sum(self):
        # |bias| <= sum_i e^{-n p_i} |p(k_i/M) - 1| <= k e^{-n/k} * l2 value
        k, n = 120, 60
        params = select_params(k, n)
        coeffs = build_estimator(params)
        for C in (k, k // 2, k // 3):
            urn = make_uniform_support(k, C)
            if max(urn.multiplicities()) > params.M:
                continue
            per_node = sum(
                math.exp(-n * mult / k)
                * abs(sum(wj * (mult / params.M) ** j
                          for j, wj in enumerate(coeffs.w, start=1)) - 1)
                for _, mult in urn.colors
            )
            bias = exact_bias(urn, coeffs, n)
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
            tildes.append(estimate(fp, coeffs, k, params).c_tilde)
        mean = sum(tildes) / trials
        std = math.sqrt(sum((x - mean) ** 2 for x in tildes) / (trials - 1))
        assert abs(mean - 50) <= 5 * std / math.sqrt(trials)
