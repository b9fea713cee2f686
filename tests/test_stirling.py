import importlib.util
import json
import math
import sys
import threading
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import urncount.stirling
from urncount.estimator import (
    EstimatorParams,
    ParameterizationError,
    build_estimator,
    interp_coeffs,
    w_to_u,
)
from urncount.stirling import MAX_TABLE_N, stirling_bound_report, stirling_first, stirling_row


def falling_factorial_coeffs(n):
    """Independent oracle: expand x(x-1)...(x-n+1) by polynomial multiplication."""
    poly = [1]
    for i in range(n):
        nxt = [0] * (len(poly) + 1)
        for j, c in enumerate(poly):
            nxt[j + 1] += c
            nxt[j] -= i * c
        poly = nxt
    return poly


# interp_coeffs bit for bit at M in {1, 2, 12, 60, 127} over six k/n ratios:
# every u as a float hex, and the digest, which covers w too.  Recorded once;
# re-record only for an intended change of the coefficients.
PINS = json.loads((Path(__file__).parent / "data" / "interp_pins.json").read_text())


class TestPinnedBits:
    @pytest.mark.parametrize("cell", list(PINS))
    def test_u_bits_and_digest(self, cell):
        M, k, n = map(int, cell.split(","))
        vec = interp_coeffs(M, k, n)
        assert [uj.hex() for uj in vec.u] == PINS[cell]["u"]
        assert vec.digest == PINS[cell]["digest"]

    @pytest.mark.parametrize("M", [60, 127])
    def test_overflow_cell_raises(self, M):
        params = EstimatorParams(10**6, 1, M, M, "interpolation")
        with pytest.raises(ParameterizationError, match="l2"):
            build_estimator(params)


class TestTable:
    def test_small_values(self):
        assert stirling_first(3, 2) == -3
        assert stirling_first(3, 3) == 1
        assert stirling_first(4, 2) == 11
        assert stirling_first(2, 1) == -1

    def test_diagonal_is_one(self):
        assert all(stirling_first(n, n) == 1 for n in range(51))

    def test_above_diagonal_is_zero(self):
        assert stirling_first(3, 5) == 0

    def test_zero_column(self):
        assert stirling_first(0, 0) == 1
        assert all(stirling_first(n, 0) == 0 for n in range(1, 20))

    def test_matches_polynomial_expansion(self):
        for n in range(13):
            expanded = falling_factorial_coeffs(n)
            assert expanded == [stirling_first(n, m) for m in range(n + 1)]
            assert expanded == list(stirling_row(n))

    def test_row_sum_identity(self):
        for n in range(51):
            assert sum(abs(stirling_first(n, m)) for m in range(n + 1)) == factorial(n)

    def test_sign_pattern(self):
        for n in range(1, 20):
            for m in range(1, n + 1):
                s = stirling_first(n, m)
                if s != 0:
                    assert s > 0 if (n - m) % 2 == 0 else s < 0

    def test_cap(self):
        with pytest.raises(ValueError):
            stirling_first(MAX_TABLE_N + 1, 1)

    def test_cold_table_is_safe_across_threads(self):
        # threads that meet an empty table at once must each read whole,
        # correct rows; a fresh copy of the module starts with no rows built
        want = [falling_factorial_coeffs(n) for n in range(MAX_TABLE_N + 1)]
        path = urncount.stirling.__file__
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                spec = importlib.util.spec_from_file_location("cold_stirling", path)
                cold = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(cold)
                got, errors = [None] * 4, []

                def run(t):
                    try:
                        got[t] = cold.stirling_row(MAX_TABLE_N)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)

                threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert all(list(row) == want[-1] for row in got)
                assert [list(cold.stirling_row(n)) for n in range(MAX_TABLE_N + 1)] == want
        finally:
            sys.setswitchinterval(interval)


class TestInterpCoeffs:
    def test_m2_k_equals_n(self):
        vec = interp_coeffs(2, 5, 5)
        assert vec.u == pytest.approx((1.5, -1.0), rel=1e-12)
        assert vec.w == pytest.approx((3.0, -2.0), rel=1e-12)
        nums, den = vec.w_exact
        assert [Fraction(num, den) for num in nums] == [3, -2]
        # p(x) = 3x - 2x^2 hits 1 at both nodes
        assert 3 * Fraction(1, 2) - 2 * Fraction(1, 4) == 1

    def test_m1_singletons_count_double(self):
        vec = interp_coeffs(1, 9, 9)
        assert vec.u == pytest.approx((1.0,))

    def test_sign_alternation(self):
        for M in range(1, 13):
            vec = interp_coeffs(M, 3, 2)
            for j, uj in enumerate(vec.u, start=1):
                assert uj > 0 if j % 2 == 1 else uj < 0

    def test_w_consistent_with_u(self):
        vec = interp_coeffs(7, 5, 4)
        forward = w_to_u(vec.w, 5, 4, 7)
        for a, b in zip(vec.u, forward):
            assert b == pytest.approx(a, rel=1e-12)

    def test_node_identity_exact_rationals(self):
        # the node identity depends only on M, not on k/n
        for M in range(1, 31):
            nums, den = interp_coeffs(M, 2, 1).w_exact
            for a in range(1, M + 1):
                x = Fraction(a, M)
                acc = Fraction(0)
                for num in reversed(nums):
                    acc = (acc + Fraction(num, den)) * x
                assert acc == 1

    def test_node_identity_float_small_degree(self):
        # float-w evaluation is conditioned like binom(2M, M): only small M
        # can meet a 1e-6 node tolerance in double precision
        for M in range(1, 17):
            vec = interp_coeffs(M, 2, 1)
            for a in range(1, M + 1):
                x = a / M
                acc = 0.0
                for wj in reversed(vec.w):
                    acc = (acc + wj) * x
                assert abs(acc - 1.0) <= 1e-6

    def test_overflow_raises_parameterization_error(self):
        with pytest.raises(ParameterizationError, match="l2"):
            interp_coeffs(60, 10**6, 1)

    def test_cap_raises_parameterization_error(self):
        assert interp_coeffs(MAX_TABLE_N - 1, 1, 1000).L == MAX_TABLE_N - 1
        with pytest.raises(ParameterizationError, match="128-node cap"):
            interp_coeffs(MAX_TABLE_N, 1, 1000)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            interp_coeffs(0, 1, 1)
        with pytest.raises(ValueError):
            interp_coeffs(2, 1, 0)


class TestBoundReport:
    def test_hand_values(self):
        ratio, c = stirling_bound_report(2, 2)
        assert ratio == pytest.approx(0.5)
        assert c == pytest.approx(math.sqrt(2), rel=1e-12)
        ratio, c = stirling_bound_report(2, 1)
        assert ratio == pytest.approx(1.5)
        assert c == pytest.approx(1.5)  # log 2 < 1, denominator clamps to 1

    def test_golden_interval_n_up_to_60(self):
        # regression interval generated once from the exact table
        cs = [stirling_bound_report(n, m)[1] for n in range(1, 61) for m in range(1, n + 1)]
        assert min(cs) == pytest.approx(1.0)
        assert max(cs) == pytest.approx(6.57534196297143, rel=1e-9)
        assert all(1.0 <= c <= 6.5754 for c in cs)

    def test_invalid(self):
        with pytest.raises(ValueError):
            stirling_bound_report(3, 0)
        with pytest.raises(ValueError):
            stirling_bound_report(3, 4)
