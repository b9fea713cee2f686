import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urncount.orthopoly import (
    binomial_ratio_minus_one,
    chebyshev_basis,
    chebyshev_norm,
    l2_min_value,
    l2_residual_sq_exact,
    orthonormality_deviation,
    phi_norm_sq,
    solve_l2,
    t_at_minus_one,
    w_to_u,
)


# -- float oracles for the exact solve ------------------------------------------

def l2_residual(w, M: int) -> float:
    """||Bw - 1||_2 evaluated in floating point."""
    total = 0.0
    for a in range(1, M + 1):
        x = a / M
        acc = 0.0
        for wj in reversed(w):
            acc = (acc + wj) * x
        total += (acc - 1.0) ** 2
    return math.sqrt(total)


def solve_l2_normal_equations(M: int, L: int) -> np.ndarray:
    """Cross-check path for tiny sizes only: solve (B^T B) w = B^T 1."""
    nodes = np.arange(1, M + 1) / M
    B = np.column_stack([nodes**j for j in range(1, L + 1)])
    gram = B.T @ B
    return np.linalg.solve(gram, B.T @ np.ones(M))


class TestBasis:
    def test_t1_at_m3(self):
        # hand expansion of the first difference of p_1(x) = x(x-3)
        basis = chebyshev_basis(3, 2)
        assert basis.coeffs[1] == [Fraction(-2), Fraction(2)]
        assert [basis.eval_exact(1, x) for x in range(3)] == [-2, 0, 2]
        assert basis.norms[1] == 8
        assert sum(basis.eval_exact(1, x) ** 2 for x in range(3)) == 8

    def test_t0_constant(self):
        basis = chebyshev_basis(6, 0)
        assert basis.coeffs[0] == [Fraction(1)]
        assert basis.norms[0] == 6

    def test_exact_orthogonality_m4(self):
        basis = chebyshev_basis(4, 3)
        dot = sum(basis.eval_exact(1, x) * basis.eval_exact(2, x) for x in range(4))
        assert dot == 0

    def test_norms_match_values_exactly(self):
        # degree, exact orthogonality, norm and t_m(-1) fix t_m uniquely
        for M, L in ((3, 2), (5, 4), (9, 8), (40, 20), (127, 12)):
            basis = chebyshev_basis(M, L)
            values = [[basis.eval_exact(m, x) for x in range(M)] for m in range(L + 1)]
            for m in range(L + 1):
                assert len(basis.numerators[m]) == m + 1 and basis.numerators[m][-1] != 0
                assert sum(v * v for v in values[m]) == basis.norms[m]
                for i in range(m):
                    assert sum(a * b for a, b in zip(values[i], values[m])) == 0

    def test_t_at_minus_one_matches_eval(self):
        for M, L in ((2, 1), (5, 4), (11, 4), (40, 20), (127, 12)):
            basis = chebyshev_basis(M, L)
            for m in range(basis.L + 1):
                assert basis.eval_exact(m, -1) == t_at_minus_one(M, m)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            chebyshev_basis(4, 4)

    def test_orthonormality_small_grid(self):
        for M in range(2, 25):
            assert orthonormality_deviation(M, min(8, M - 1)) <= 1e-9


def phi_at_zero(M: int, m: int) -> float:
    """phi_m(0) = t_m(-1) / sqrt(c(M, m)), the pieces solve_l2 projects with."""
    return t_at_minus_one(M, m) / math.sqrt(chebyshev_norm(M, m))


class TestPhiAtZero:
    def test_m3_value(self):
        assert phi_at_zero(3, 1) == pytest.approx(-math.sqrt(2), rel=1e-14)

    def test_norm_sq_closed_form_m2(self):
        assert phi_norm_sq(2, 1) == Fraction(comb(4, 2), comb(2, 2)) - 1 == 5

    def test_constant_basis(self):
        assert phi_at_zero(7, 0) == pytest.approx(1 / math.sqrt(7))
        assert phi_norm_sq(7, 0) == Fraction(1, 7)

    def test_norm_identity_exact_grid(self):
        for L in range(0, 9):
            for M in range(L + 1, L + 15):
                # phi_m(0)^2 = (2m+1)/M prod_{j<=m} (M+j)/(M-j), summed exactly
                by_product = Fraction(0)
                for m in range(L + 1):
                    sq = Fraction(2 * m + 1, M)
                    for j in range(1, m + 1):
                        sq *= Fraction(M + j, M - j)
                    by_product += sq
                assert by_product == binomial_ratio_minus_one(M, L)
                assert phi_norm_sq(M, L) == binomial_ratio_minus_one(M, L)

    def test_telescoping_identity(self):
        for L in range(1, 9):
            for M in range(L + 1, L + 15):
                step = Fraction(2 * L + 1, M)
                for j in range(1, L + 1):
                    step *= Fraction(M + j, M - j)
                assert (binomial_ratio_minus_one(M, L)
                        - binomial_ratio_minus_one(M, L - 1)) == step


class TestL2MinValue:
    def test_m2_l1(self):
        assert l2_min_value(2, 1) == pytest.approx(1 / math.sqrt(5), rel=1e-14)

    def test_m37_l5(self):
        ratio = Fraction(comb(43, 6), comb(37, 6))
        assert float(ratio) == pytest.approx(2.622374, rel=1e-6)
        assert l2_min_value(37, 5) == pytest.approx(0.785099, rel=1e-6)

    def test_square_system_central_binomial(self):
        for L in range(1, 7):
            expect = (comb(2 * L + 2, L + 1) - 1) ** -0.5
            assert l2_min_value(L + 1, L) == pytest.approx(expect, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            l2_min_value(3, 3)


class TestSolveL2:
    def test_m2_l1_closed_solution(self):
        # minimize (w/2 - 1)^2 + (w - 1)^2: stationary at w = 6/5
        vec = solve_l2(2, 1)
        assert vec.w_exact == (Fraction(6, 5),)
        assert l2_residual(vec.w, 2) == pytest.approx(1 / math.sqrt(5), rel=1e-12)

    def test_m3_l2_residual(self):
        vec = solve_l2(3, 2)
        res = math.sqrt(float(l2_residual_sq_exact(vec.w_exact, 3)))
        assert res == pytest.approx(1 / math.sqrt(19), rel=1e-14)

    def test_matches_normal_equations_at_tiny_sizes(self):
        for M, L in ((3, 2), (5, 3), (8, 4)):
            w_ne = solve_l2_normal_equations(M, L)
            vec = solve_l2(M, L)
            assert np.allclose(vec.w, w_ne, rtol=1e-8)

    def test_exact_residual_equals_closed_form_on_grid(self):
        for L in range(1, 7):
            for M in range(L + 1, L + 12):
                vec = solve_l2(M, L)
                res_sq = l2_residual_sq_exact(vec.w_exact, M)
                assert res_sq == 1 / binomial_ratio_minus_one(M, L)

    def test_float_residual_close_on_grid(self):
        for L in range(1, 9):
            for M in range(L + 1, L + 12):
                vec = solve_l2(M, L)
                closed = l2_min_value(M, L)
                assert abs(l2_residual(vec.w, M) - closed) / closed < 1e-8

    def test_invalid(self):
        with pytest.raises(ValueError):
            solve_l2(3, 3)


class TestCoefficientTransform:
    def test_example(self):
        # k/n = 1, M = 2: u_1 = 3 * 1! * (1/2), u_2 = -2 * 2! * (1/4)
        assert w_to_u((3.0, -2.0), 2, 2, 2) == pytest.approx((1.5, -1.0), rel=1e-14)

    def test_zero_maps_to_zero(self):
        assert w_to_u((0.0, 0.0), 5, 3, 4) == (0.0, 0.0)

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            w_to_u((1.0,), 2, 0, 2)

    @given(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=8),
        st.integers(1, 1000),
        st.integers(1, 1000),
        st.integers(1, 20),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, w, k, n, M):
        # inverse oracle: w_j = u_j * (nM/k)^j / j!
        u = w_to_u(tuple(w), k, n, M)
        back = [uj * float(Fraction(n * M, k) ** j / math.factorial(j))
                for j, uj in enumerate(u, start=1)]
        for a, b in zip(w, back):
            assert b == pytest.approx(a, rel=1e-12, abs=1e-15)

    def test_digest_stable_and_distinct(self):
        a = solve_l2(5, 2)
        b = solve_l2(5, 2)
        assert a.digest == b.digest
        assert a.digest != solve_l2(6, 2).digest
        assert a.with_sample_params(10, 5).digest != a.digest


def test_chebyshev_norm_formula():
    assert chebyshev_norm(3, 1) == 8
    assert chebyshev_norm(5, 0) == 5
    assert chebyshev_norm(4, 2) == Fraction(4 * 15 * 12, 5)
