import json
import math
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urncount import verify
from urncount.estimator import EstimatorParams, build_estimator, w_to_u
from urncount.orthopoly import (
    binomial_ratio_minus_one,
    chebyshev_basis,
    chebyshev_norm,
    l2_min_value,
    l2_residual_sq_exact,
    orthonormality_deviations,
    phi_norm_sq,
    poly_numerators,
    solve_l2,
)


def t_at_minus_one(M: int, m: int) -> int:
    """t_m(-1) = (-1)^m * (M+1)(M+2)...(M+m)."""
    v = 1
    for j in range(1, m + 1):
        v *= M + j
    return -v if m % 2 else v


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


def solve_l2_fractions(M: int, L: int) -> tuple[Fraction, ...]:
    """The projection of ``solve_l2`` worked in Fraction arithmetic throughout,
    with m! t_m(Mx - 1) expanded from the basis coefficients by the binomial
    theorem: the reference that the integer solve must equal exactly."""
    S = phi_norm_sq(M, L)
    coeffs = [Fraction(0)] * (L + 1)
    for m, numer in enumerate(chebyshev_basis(M, L).numerators):
        composed = [0] * (m + 1)
        for i, c in enumerate(numer):  # c y^i at y = Mx - 1
            for j in range(i + 1):
                composed[j] += c * comb(i, j) * M**j * (-1) ** (i - j)
        scale = Fraction(-t_at_minus_one(M, m)) / (S * chebyshev_norm(M, m) * factorial(m))
        for j, cj in enumerate(composed):
            coeffs[j] += scale * cj
    assert coeffs[0] == -1
    return tuple(coeffs[1:])


def fractions_of(w_exact) -> tuple[Fraction, ...]:
    """The w_j of an exact pair (nums, den) as Fractions."""
    nums, den = w_exact
    return tuple(Fraction(num, den) for num in nums)


def poly_value_fraction(w_exact, a: int, M: int) -> Fraction:
    """p(a/M) = sum_j w_j (a/M)^j by Horner's rule in Fraction arithmetic,
    for an exact pair w_exact = (nums, den)."""
    acc = Fraction(0)
    for wj in reversed(fractions_of(w_exact)):
        acc = (acc + wj) * Fraction(a, M)
    return acc


def eval_exact(basis, m: int, x) -> Fraction:
    """t_m(x) for integer or rational x, exactly."""
    acc = 0 if isinstance(x, int) else Fraction(0)
    for c in reversed(basis.numerators[m]):
        acc = acc * x + c
    if isinstance(acc, int):
        return Fraction(acc, factorial(m))
    return acc / factorial(m)


class TestBasis:
    def test_t1_at_m3(self):
        # hand expansion of the first difference of p_1(x) = x(x-3)
        basis = chebyshev_basis(3, 2)
        assert basis.numerators[1] == (-2, 2)  # 1! * t_1
        assert [eval_exact(basis, 1, x) for x in range(3)] == [-2, 0, 2]
        assert chebyshev_norm(3, 1) == 8
        assert sum(eval_exact(basis, 1, x) ** 2 for x in range(3)) == 8

    def test_t0_constant(self):
        basis = chebyshev_basis(6, 0)
        assert basis.numerators[0] == (1,)
        assert chebyshev_norm(6, 0) == 6

    def test_exact_orthogonality_m4(self):
        basis = chebyshev_basis(4, 3)
        dot = sum(eval_exact(basis, 1, x) * eval_exact(basis, 2, x) for x in range(4))
        assert dot == 0

    def test_norms_match_values_exactly(self):
        # degree, exact orthogonality, norm and t_m(-1) fix t_m uniquely
        for M, L in ((3, 2), (5, 4), (9, 8), (40, 20), (127, 12)):
            basis = chebyshev_basis(M, L)
            values = [[eval_exact(basis, m, x) for x in range(M)] for m in range(L + 1)]
            for m in range(L + 1):
                assert len(basis.numerators[m]) == m + 1 and basis.numerators[m][-1] != 0
                assert sum(v * v for v in values[m]) == chebyshev_norm(M, m)
                for i in range(m):
                    assert sum(a * b for a, b in zip(values[i], values[m])) == 0

    def test_t_at_minus_one_matches_eval(self):
        for M, L in ((2, 1), (5, 4), (11, 4), (40, 20), (127, 12)):
            basis = chebyshev_basis(M, L)
            for m in range(basis.L + 1):
                assert eval_exact(basis, m, -1) == t_at_minus_one(M, m)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            chebyshev_basis(4, 4)

    def test_orthonormality_small_grid(self):
        for M in range(2, 25):
            assert orthonormality_deviations(M, min(8, M - 1))[-1] <= 1e-9

    def test_deviations_match_per_degree_reference(self):
        # half the nodes mirrored, every degree from one set of rows: bit for
        # bit the deviation of each degree's own full-node matrix
        for M in list(range(1, 40)) + [64, 65]:
            L = min(16, M - 1)
            assert orthonormality_deviations(M, L) == [
                orthonormality_deviation_ref(M, l) for l in range(L + 1)], M
        with pytest.raises(ValueError):
            orthonormality_deviations(4, 4)


def orthonormality_deviation_ref(M: int, L: int) -> float:
    """max_{i,j <= L} |<phi_i, phi_j> - delta_ij|, each node from the exact
    basis, rounded once."""
    basis = chebyshev_basis(M, L)
    v = np.empty((L + 1, M))
    for m in range(L + 1):
        v[m] = np.array([float(eval_exact(basis, m, y)) for y in range(M)])
        v[m] /= math.sqrt(float(chebyshev_norm(M, m)))
    return float(np.max(np.abs(v @ v.T - np.eye(L + 1))))


def phi_norm_sq_ref(M: int, L: int) -> Fraction:
    """sum_m t_m(-1)^2 / c(M, m), one Fraction per term."""
    return sum((Fraction(t_at_minus_one(M, m) ** 2) / chebyshev_norm(M, m)
                for m in range(L + 1)), Fraction(0))


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
                assert phi_norm_sq(M, L) == phi_norm_sq_ref(M, L)

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
        w = fractions_of(solve_l2(2, 1))
        assert w == (Fraction(6, 5),)
        assert l2_residual([float(wj) for wj in w], 2) == pytest.approx(1 / math.sqrt(5), rel=1e-12)

    def test_m3_l2_residual(self):
        res = math.sqrt(float(l2_residual_sq_exact(solve_l2(3, 2), 3)))
        assert res == pytest.approx(1 / math.sqrt(19), rel=1e-14)

    def test_matches_normal_equations_at_tiny_sizes(self):
        for M, L in ((3, 2), (5, 3), (8, 4)):
            w_ne = solve_l2_normal_equations(M, L)
            w = [float(wj) for wj in fractions_of(solve_l2(M, L))]
            assert np.allclose(w, w_ne, rtol=1e-8)

    def test_exact_residual_equals_closed_form_on_grid(self):
        for L in range(1, 7):
            for M in range(L + 1, L + 12):
                res_sq = l2_residual_sq_exact(solve_l2(M, L), M)
                assert res_sq == 1 / binomial_ratio_minus_one(M, L)

    def test_float_residual_close_on_grid(self):
        for L in range(1, 9):
            for M in range(L + 1, L + 12):
                w = [float(wj) for wj in fractions_of(solve_l2(M, L))]
                closed = l2_min_value(M, L)
                assert abs(l2_residual(w, M) - closed) / closed < 1e-8

    def test_equals_fraction_reference_on_verify_grid(self):
        for L in range(1, 9):
            for M in range(L + 1, L + 21):
                nums, den = solve_l2(M, L)
                assert fractions_of((nums, den)) == solve_l2_fractions(M, L), (M, L)
                assert den > 0 and all(type(v) is int for v in (*nums, den))

    @pytest.mark.parametrize("M, L", [(411581, 11), (100000, 10), (5000, 9), (1234, 12)])
    def test_equals_fraction_reference_at_large_m(self, M, L):
        assert fractions_of(solve_l2(M, L)) == solve_l2_fractions(M, L)

    def test_invalid(self):
        with pytest.raises(ValueError):
            solve_l2(3, 3)


class TestPolyNumerators:
    @pytest.mark.parametrize("w_exact, M", [
        (((), 1), 4),  # the naive vector: p = 0
        (((6,), 5), 2),
        (((-54, 315, 14), 126), 5),  # -3/7, 5/2, 1/9
        (solve_l2(37, 5), 37),
    ])
    def test_matches_fraction_horner(self, w_exact, M):
        points = [0, 1, 2, M, M + 3, 3 * M]
        nums, den = poly_numerators(w_exact, points, M)
        assert [Fraction(num, den) for num in nums] == [
            poly_value_fraction(w_exact, a, M) for a in points]

    def test_residual_is_the_fraction_sum(self):
        w = solve_l2(12, 4)
        assert l2_residual_sq_exact(w, 12) == sum(
            (poly_value_fraction(w, a, 12) - 1) ** 2 for a in range(1, 13))


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

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
        st.integers(1, 10**40),
        st.integers(1, 10**40),
        st.integers(1, 10**6),
    )
    @example([1.0, -3.0, 1e300, 5e-324] * 3, 1, 10**30, 1)  # subnormal and zero u_j
    @example([1.0, 2.0], 10**200, 1, 1)  # (k/(nM))^2 * 2! past the float range
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_fraction_formula(self, w, k, n, M):
        # the formula of the rational build: a Fraction ratio raised to each power
        def reference():
            return [float(wj) * float(Fraction(k, n * M) ** j * factorial(j))
                    for j, wj in enumerate(w, start=1)]

        try:
            want = reference()
        except OverflowError:
            with pytest.raises(OverflowError):
                w_to_u(w, k, n, M)
            return
        assert [uj.hex() for uj in w_to_u(w, k, n, M)] == [v.hex() for v in want]

    def test_digest_stable_and_distinct(self):
        def build(k, n, L, M):  # uncached: two separate builds
            return build_estimator.__wrapped__(EstimatorParams(k, n, L, M, "l2"))

        a = build(10, 5, 2, 5)
        assert a.digest == build(10, 5, 2, 5).digest
        assert a.digest != build(10, 5, 2, 6).digest
        assert a.digest != build(10, 6, 2, 5).digest



# build_estimator bit for bit in the l2 regime at L = 1..11, M from L+1 to
# 36842, and (k, n) from u_j near 1e164 down to subnormal and 0.0: every u as
# a float hex, and the digest, which covers w too.  Recorded once; re-record
# only for an intended change of the coefficients.
PINS = json.loads((Path(__file__).parent / "data" / "l2_pins.json").read_text())


class TestPinnedBits:
    @pytest.mark.parametrize("cell", list(PINS))
    def test_u_bits_and_digest(self, cell):
        k, n, L, M = map(int, cell.split(","))
        vec = build_estimator(EstimatorParams(k, n, L, M, "l2"))
        assert [uj.hex() for uj in vec.u] == PINS[cell]["u"]
        assert vec.digest == PINS[cell]["digest"]

def test_chebyshev_norm_formula():
    assert chebyshev_norm(3, 1) == 8
    assert chebyshev_norm(5, 0) == 5
    assert chebyshev_norm(4, 2) == Fraction(4 * 15 * 12, 5)


def _per_cell_orthopoly_report():
    """orthopoly_report as each cell used to be checked: its own node rows
    at its own degree, and every identity as a sum of Fractions."""
    lines = ["M,L,orthonormality_dev,residual_rel_dev,implied_growth_const"]
    worst_res = worst_orth = 0.0
    theta_lo, theta_hi = math.inf, -math.inf
    identities_hold = True
    for L in range(1, 9):
        for M in range(L + 1, L + 21):
            res = math.sqrt(float(l2_residual_sq_exact(solve_l2(M, L), M)))
            closed = l2_min_value(M, L)
            rel = abs(res - closed) / closed
            worst_res = max(worst_res, rel)
            dev = orthonormality_deviation_ref(M, L)
            worst_orth = max(worst_orth, dev)
            ratio = binomial_ratio_minus_one(M, L)
            theta = math.log(float(ratio + 1)) * M / (L * L)
            theta_lo, theta_hi = min(theta_lo, theta), max(theta_hi, theta)
            lines.append(f"{M},{L},{dev!r},{rel!r},{theta!r}")
            step = Fraction(2 * L + 1, M)
            for j in range(1, L + 1):
                step *= Fraction(M + j, M - j)
            if (ratio - binomial_ratio_minus_one(M, L - 1) != step
                    or phi_norm_sq_ref(M, L) != ratio):
                identities_hold = False
    verify._check(lines, f"l2 residual vs closed form (L<=8, M<=L+20): worst rel dev "
                         f"{worst_res:.3e}", worst_res <= 1e-9)
    lines.append(f"implied growth constant log(ratio)*M/L^2 in [{theta_lo:.3f}, {theta_hi:.3f}] "
                 f"(reported)")
    for M in range(2, 65):
        worst_orth = max(worst_orth, orthonormality_deviation_ref(M, min(16, M - 1)))
    verify._check(lines, f"orthonormality (M<=64, L<=16): worst dev {worst_orth:.3e}",
                  worst_orth <= 1e-9)
    verify._check(lines, "telescoping + norm identities (exact rationals)", identities_hold)
    return lines


class TestOrthopolyReport:
    def test_lines_match_per_cell_loop(self):
        lines, ok = verify.orthopoly_report()
        assert ok
        assert lines == _per_cell_orthopoly_report()
