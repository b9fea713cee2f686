"""Acceptance gate: one test per criterion, each printed with its runtime.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
pass lines.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import time
from collections import Counter
from itertools import product

import pytest
from scipy.stats import chi2

from urncount.estimator import build_estimator, estimate, exact_bias, select_params
from urncount.fingerprint import fingerprint_from_count_values
from urncount.harness import correlation_experiment
from urncount.orthopoly import (
    l2_min_value,
    l2_residual_sq_exact,
    orthonormality_deviation,
    solve_l2,
)
from urncount.rng import RngStream
from urncount.sampling import (
    draw_poissonized,
    draw_without_replacement,
    poissonized_color_counts,
    simulate_with_from_without,
)
from urncount.stirling import interp_coeffs, stirling_first
from urncount.urn import UrnSpec, make_uniform_support
from urncount.vandermonde import build_matrix, sigma_min, sigma_min_bound, tm_modulus_check


class _Stopwatch:
    def __init__(self, name, limit_s):
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"PASS {self.name} ({elapsed:.1f}s <= {self.limit_s}s)")
            assert elapsed < self.limit_s, f"{self.name}: runtime {elapsed:.1f}s over budget"
        else:
            print(f"FAIL {self.name} ({elapsed:.1f}s)")
        return False


def test_criterion_1_closed_form_l2_residual():
    with _Stopwatch("criterion 1: closed-form l2 residual", 5):
        for L in range(1, 9):
            for M in range(L + 1, L + 21):
                vec = solve_l2(M, L)
                residual = math.sqrt(float(l2_residual_sq_exact(vec.w_exact, M)))
                closed = l2_min_value(M, L)
                assert abs(residual - closed) / closed <= 1e-9, (M, L)


def test_criterion_2_orthonormality():
    with _Stopwatch("criterion 2: discrete Chebyshev orthonormality", 10):
        worst = 0.0
        for M in range(2, 65):
            worst = max(worst, orthonormality_deviation(M, min(16, M - 1)))
        assert worst <= 1e-9, worst


def test_criterion_3_sigma_min_bound():
    with _Stopwatch("criterion 3: minimum singular value bound", 10):
        spot = sigma_min(build_matrix(2, 1, with_ones=True) / math.sqrt(2))
        assert spot == pytest.approx(0.19854, abs=5e-6)
        assert sigma_min_bound(2, 1) == pytest.approx(1.068e-3, rel=1e-3)
        assert spot >= sigma_min_bound(2, 1)
        for L in range(1, 9):
            for M in range(L + 1, 65):
                s = sigma_min(build_matrix(M, L, with_ones=True) / math.sqrt(M))
                assert s >= sigma_min_bound(M, L), (M, L)


def test_criterion_4_modulus_bound():
    with _Stopwatch("criterion 4: t_m modulus bound", 10):
        for M in range(2, 33):
            for m in range(1, min(8, M - 1) + 1):
                report = tm_modulus_check(M, m, 64)
                assert report.worst_ratio <= 1.0, (M, m)


def test_criterion_5_stirling_exactness():
    with _Stopwatch("criterion 5: Stirling exactness", 1):
        # falling-factorial expansion oracle, independent of the recurrence
        for n in range(13):
            poly = [1]
            for i in range(n):
                nxt = [0] * (len(poly) + 1)
                for j, c in enumerate(poly):
                    nxt[j + 1] += c
                    nxt[j] -= i * c
                poly = nxt
            assert poly == [stirling_first(n, m) for m in range(n + 1)]
        for n in range(51):
            assert sum(abs(stirling_first(n, m)) for m in range(n + 1)) == math.factorial(n)


def test_criterion_6_interpolation_zero_bias():
    with _Stopwatch("criterion 6: interpolation zero bias", 60):
        # exact oracle over the full grid: every k/n in {1/4, 1/2, 1, 2} and
        # urns with multiplicities in [M], including the all-M worst case
        for M in range(1, 31):
            n = 4 * M
            for k in (M, 2 * M, 4 * M, 8 * M):
                coeffs = interp_coeffs(M, k, n)
                c_floor = -(-k // M)
                for C in sorted({c_floor, max(1, (c_floor + k) // 2), k}):
                    urn = make_uniform_support(k, C)
                    assert max(urn.multiplicities()) <= M
                    assert exact_bias(urn, coeffs, n, exact=True) == 0.0
                    assert abs(exact_bias(urn, coeffs, n)) <= 1e-6 * k, (M, k, C)

        # statistical check at the paper's oversampled operating point
        k, n, trials = 100, 400, 10_000
        urn = make_uniform_support(k, 50)
        params = select_params(k, n)
        assert params.regime == "interpolation" and params.M == 5
        coeffs = build_estimator(params)
        tildes = []
        for t in range(trials):
            fp = fingerprint_from_count_values(
                poissonized_color_counts(urn, n, RngStream(601, t)))
            tildes.append(estimate(fp, coeffs, k, params).c_tilde)
        mean = sum(tildes) / trials
        std = math.sqrt(sum((x - mean) ** 2 for x in tildes) / (trials - 1))
        assert abs(mean - 50) <= 4 * std / math.sqrt(trials), (mean, std)


def test_criterion_7_l2_beats_naive():
    with _Stopwatch("criterion 7: l2 estimator beats naive", 120):
        k, n, trials = 10_000, 5_000, 200
        urn = make_uniform_support(k, k)
        params = select_params(k, n)
        assert (params.L, params.M) == (5, 37)
        coeffs = build_estimator(params)

        # deterministic headroom, pre-verified by the exact oracle
        bias_l2 = exact_bias(urn, coeffs, n)
        residual = l2_min_value(params.M, params.L)
        assert residual == pytest.approx(0.785, abs=1e-3)
        assert abs(bias_l2) <= k * math.exp(-0.5) * residual
        assert k * math.exp(-0.5) * residual < k * math.exp(-0.5)

        sq_hat = sq_seen = 0.0
        for t in range(trials):
            fp = fingerprint_from_count_values(
                poissonized_color_counts(urn, n, RngStream(701, t)))
            res = estimate(fp, coeffs, k, params)
            sq_hat += (res.c_hat - k) ** 2
            sq_seen += (fp.c_seen - k) ** 2
        rmse_hat = math.sqrt(sq_hat / trials)
        rmse_seen = math.sqrt(sq_seen / trials)
        assert rmse_hat <= 0.9 * rmse_seen, (rmse_hat, rmse_seen)


def test_criterion_8_sampling_model_consistency():
    with _Stopwatch("criterion 8: sampling-model consistency", 60):
        # (a) poissonized conditioned on realized size == multinomial law;
        # chi^2 goodness of fit on a 3-color urn at a pre-registered seed
        urn = UrnSpec(((1, 1), (2, 1), (3, 2)))
        m_star, trials = 3, 20_000
        conditioned = []
        for t in range(trials):
            batch = draw_poissonized(urn, 3, RngStream(101, t))
            if batch.realized_size == m_star:
                cnt = Counter(batch.draws)
                conditioned.append((cnt.get(1, 0), cnt.get(2, 0), cnt.get(3, 0)))
        p = (0.25, 0.25, 0.5)
        cells = [(a, b, m_star - a - b)
                 for a in range(m_star + 1) for b in range(m_star + 1 - a)]
        observed = Counter(conditioned)
        stat = 0.0
        for cell in cells:
            a, b, c = cell
            pmf = (math.factorial(m_star)
                   / (math.factorial(a) * math.factorial(b) * math.factorial(c))
                   * p[0] ** a * p[1] ** b * p[2] ** c)
            expected = len(conditioned) * pmf
            stat += (observed.get(cell, 0) - expected) ** 2 / expected
        p_value = chi2.sf(stat, len(cells) - 1)
        assert p_value >= 1e-3, (stat, p_value)

        # (b) hyper -> multi simulation matches the exact 2-draw law, TV <= 0.02
        two = UrnSpec(((1, 1), (2, 1)))
        counts = Counter()
        sim_trials = 100_000
        for t in range(sim_trials):
            rng = RngStream(103, t)
            batch = draw_without_replacement(two, 2, rng)
            sim = simulate_with_from_without(batch, 2, rng)
            counts[sim.draws] += 1
        tv = 0.5 * sum(
            abs(counts.get(pair, 0) / sim_trials - 0.25)
            for pair in product((1, 2), repeat=2)
        )
        assert tv <= 0.02, tv


def test_criterion_9_correlation_decay():
    with _Stopwatch("criterion 9: fingerprint correlation decay", 120):
        urn = make_uniform_support(1000, 1000)
        js = (1, 4, 7, 10)
        sums = dict.fromkeys(js, 0.0)
        for seed in range(5):  # pre-registered master seeds 0..4
            rows = {row.j: row for row in correlation_experiment(urn, 1000, 5000, 10, seed)}
            for j in js:
                corr = rows[j].corr
                sums[j] += abs(corr) if corr is not None else 0.0
        averaged = [sums[j] / 5 for j in js]
        assert all(a > b for a, b in zip(averaged, averaged[1:])), averaged
