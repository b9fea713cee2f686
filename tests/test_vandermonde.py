import math

import numpy as np
import pytest

from urncount.orthopoly import solve_l2
from urncount.vandermonde import (
    BoundCheckError,
    build_matrix,
    certify_sigma_min_bound,
    power_sums,
    sigma_min,
    sigma_min_bound,
    sigma_min_exceeds,
    tm_bound_at,
    tm_modulus_check,
)


class TestBuildMatrix:
    def test_plain(self):
        m = build_matrix(2, 1, with_ones=False)
        assert m.tolist() == [[0.5], [1.0]]

    def test_with_ones(self):
        m = build_matrix(2, 1, with_ones=True)
        assert m.tolist() == [[1.0, 0.5], [1.0, 1.0]]

    def test_last_row_all_ones(self):
        for M, L in ((3, 2), (10, 4), (17, 8)):
            m = build_matrix(M, L, with_ones=False)
            assert np.all(m[-1] == 1.0)

    def test_immutable(self):
        m = build_matrix(3, 2)
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


class TestSigmaMin:
    def test_spot_value_m2_l1(self):
        bar = build_matrix(2, 1, with_ones=True)
        s = sigma_min(bar / math.sqrt(2))
        assert s == pytest.approx(math.sqrt((13 - math.sqrt(153)) / 16), rel=1e-10)
        assert s == pytest.approx(0.19854, abs=5e-6)

    def test_unit_column(self):
        col = np.ones((5, 1)) / math.sqrt(5)
        assert sigma_min(col) == pytest.approx(1.0, rel=1e-12)

    def test_needs_tall_matrix(self):
        with pytest.raises(ValueError):
            sigma_min(np.ones((2, 3)))

    def test_extra_column_shrinks_sigma(self):
        for L in range(1, 5):
            for M in range(L + 1, 14):
                s_plain = sigma_min(build_matrix(M, L, with_ones=False))
                s_bar = sigma_min(build_matrix(M, L, with_ones=True))
                assert s_plain >= s_bar * (1 - 1e-9)


class TestSigmaMinBound:
    def test_spot_value(self):
        # (1/(1*128*3)) * (3/(2e))^1.5
        b = sigma_min_bound(2, 1)
        assert b == pytest.approx((1 / 384) * (3 / (2 * math.e)) ** 1.5, rel=1e-12)
        assert b == pytest.approx(1.068e-3, rel=1e-3)

    def test_spot_inequality(self):
        bar = build_matrix(2, 1, with_ones=True)
        assert sigma_min(bar / math.sqrt(2)) >= sigma_min_bound(2, 1)

    def test_monotone_decreasing_in_degree(self):
        for M in (12, 24, 48):
            vals = [sigma_min_bound(M, L) for L in range(1, M // 2)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_m_limit_golden(self):
        assert sigma_min_bound(10**6, 1) == pytest.approx(0.000581068996988942, rel=1e-12)
        assert sigma_min_bound(10**6, 1) == pytest.approx((1 / 384) * math.e**-1.5, rel=1e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            sigma_min_bound(3, 3)

    def test_holds_on_grid(self):
        for L in range(1, 7):
            for M in range(L + 1, 33):
                bar = build_matrix(M, L, with_ones=True)
                assert sigma_min(bar / math.sqrt(M)) >= sigma_min_bound(M, L)


CERT_CELLS = [(M, L) for L in range(1, 13) for M in sorted({L + 1, 2 * L + 1, 64})]


def _svd_sigma(M, L):
    return sigma_min(build_matrix(M, L, with_ones=True) / math.sqrt(M))


class TestCertificate:
    def test_power_sums(self):
        assert power_sums(4, 3) == [4, 10, 30, 100]

    @pytest.mark.parametrize("M,L", CERT_CELLS)
    def test_brackets_svd_value(self, M, L):
        # pins the SVD value to 1e-6 relative, also where the Gram matrix is
        # too ill-conditioned for float eigen-solves (L >= 11)
        s = _svd_sigma(M, L)
        sums = power_sums(M, 2 * L)
        assert sigma_min_exceeds(M, L, s * (1 - 1e-6), sums)
        assert not sigma_min_exceeds(M, L, s * (1 + 1e-6), sums)

    @pytest.mark.parametrize("M,L", CERT_CELLS)
    def test_bound_certified(self, M, L):
        assert certify_sigma_min_bound(M, L, _svd_sigma(M, L))

    def test_float_estimate_only_picks_threshold(self):
        # a wrong estimate cannot fake a pass or a failure: the verdict is the
        # exact one at the bound
        for M, L in ((13, 12), (5, 4), (64, 3)):
            assert certify_sigma_min_bound(M, L, 0.0)
            assert certify_sigma_min_bound(M, L, 1e6)

    def test_rejects_bound_above_sigma(self, monkeypatch):
        import urncount.vandermonde as vd

        s = _svd_sigma(13, 12)
        monkeypatch.setattr(vd, "sigma_min_bound", lambda M, L: s * (1 + 1e-6))
        assert not vd.certify_sigma_min_bound(13, 12, s)
        assert not vd.certify_sigma_min_bound(13, 12, 1e6)
        # no power of two in [b, s/2]: decided at b itself
        monkeypatch.setattr(vd, "sigma_min_bound", lambda M, L: s * (1 - 1e-6))
        assert vd.certify_sigma_min_bound(13, 12, s)

    def test_exact_at_analytic_value(self):
        # (M=2, L=1): lambda_min of the Gram matrix is (13 - sqrt(153))/16
        lam = (13 - math.sqrt(153)) / 16
        assert sigma_min_exceeds(2, 1, math.sqrt(lam * (1 - 1e-12)))
        assert not sigma_min_exceeds(2, 1, math.sqrt(lam * (1 + 1e-12)))
        assert sigma_min_exceeds(2, 1, 0)


class TestCoefficientNormBound:
    def test_w_norm_within_sigma_budget(self):
        # ||w*||_2 <= ||1||_2 / sigma_min(B) for the least-squares solution
        for L in range(1, 6):
            for M in range(L + 1, 20):
                vec = solve_l2(M, L)
                w_norm = math.sqrt(sum(wj * wj for wj in vec.w))
                budget = math.sqrt(M) / sigma_min(build_matrix(M, L, with_ones=False))
                assert w_norm <= budget * (1 + 1e-9)


class TestModulusCheck:
    def test_value_spots_m3(self):
        # t_1(x) = 2x - 2 at M = 3
        assert tm_bound_at(3, 1, 1 + 0j) == 1 * 2**6 * 3
        report = tm_modulus_check(3, 1, 16)
        assert report.worst_ratio < 1
        # |t_1(-1)| = 4 against bound 192
        assert 4 <= tm_bound_at(3, 1, -1 + 0j) == 192

    def test_grid_worst_ratio_below_one(self):
        worst = 0.0
        for M in range(2, 17):
            for m in range(1, min(6, M - 1) + 1):
                worst = max(worst, tm_modulus_check(M, m, 32).worst_ratio)
        assert worst < 1

    def test_violation_raises_with_point(self, monkeypatch):
        import urncount.vandermonde as vd

        monkeypatch.setattr(vd, "tm_bound_at", lambda M, m, z: 1e-12)
        with pytest.raises(BoundCheckError, match="z="):
            vd.tm_modulus_check(3, 1, 8)

    def test_report_fields(self):
        report = tm_modulus_check(5, 2, 16)
        assert (report.M, report.m, report.num_points) == (5, 2, 16)
        assert 0 <= report.worst_ratio < 1
        assert isinstance(report.worst_point, complex)

    def test_shared_basis_matches_own(self):
        from urncount.orthopoly import chebyshev_basis

        basis = chebyshev_basis(9, 6)
        for m in range(1, 7):
            assert tm_modulus_check(9, m, 32, basis=basis) == tm_modulus_check(9, m, 32)
        with pytest.raises(ValueError, match="does not cover"):
            tm_modulus_check(9, 7, 32, basis=basis)
        with pytest.raises(ValueError, match="does not cover"):
            tm_modulus_check(10, 2, 32, basis=basis)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            tm_modulus_check(3, 0, 8)
        with pytest.raises(ValueError):
            tm_modulus_check(3, 3, 8)
