import math
from fractions import Fraction

import numpy as np
import pytest

import urncount.vandermonde as vd
from urncount import verify
from urncount.orthopoly import chebyshev_basis, solve_l2
from urncount.vandermonde import (
    build_matrix,
    certify_sigma_min_bounds,
    sigma_min,
    sigma_min_bound,
    tm_bound_at,
    tm_modulus_check,
)


class TestBuildMatrix:
    def test_plain(self):
        m = build_matrix(2, 1)[:, 1:]
        assert m.tolist() == [[0.5], [1.0]]

    def test_with_ones(self):
        m = build_matrix(2, 1)
        assert m.tolist() == [[1.0, 0.5], [1.0, 1.0]]

    def test_last_row_all_ones(self):
        for M, L in ((3, 2), (10, 4), (17, 8)):
            m = build_matrix(M, L)
            assert m.shape == (M, L + 1)
            assert np.all(m[:, 0] == 1.0) and np.all(m[-1] == 1.0)

    def test_immutable(self):
        m = build_matrix(3, 2)
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


class TestSigmaMin:
    def test_spot_value_m2_l1(self):
        bar = build_matrix(2, 1)
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
                s_plain = sigma_min(build_matrix(M, L)[:, 1:])
                s_bar = sigma_min(build_matrix(M, L))
                assert s_plain >= s_bar * (1 - 1e-9)


class TestSigmaMinBound:
    def test_spot_value(self):
        # (1/(1*128*3)) * (3/(2e))^1.5
        b = sigma_min_bound(2, 1)
        assert b == pytest.approx((1 / 384) * (3 / (2 * math.e)) ** 1.5, rel=1e-12)
        assert b == pytest.approx(1.068e-3, rel=1e-3)

    def test_spot_inequality(self):
        bar = build_matrix(2, 1)
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
                bar = build_matrix(M, L)
                assert sigma_min(bar / math.sqrt(M)) >= sigma_min_bound(M, L)


CERT_CELLS = [(M, L) for L in range(1, 13) for M in sorted({L + 1, 2 * L + 1, 64})]
GRID_M = range(2, verify.SPECTRAL_M_MAX + 1)


def _svd_sigma(M, L):
    return sigma_min(build_matrix(M, L) / math.sqrt(M))


def _grid_sigmas(M):
    return [_svd_sigma(M, L) for L in range(1, min(verify.SPECTRAL_L_MAX, M - 1) + 1)]


def _grid_tops():
    """(M, top degree) of every M on the verify grid."""
    return [(M, min(verify.SPECTRAL_L_MAX, M - 1)) for M in GRID_M]


def _power_sum_table(M_max, top):
    """Row M is [S_0, ..., S_top] with S_p = sum_{i=1}^{M} i^p, for M = 0..M_max,
    exactly: one cumulative pass over i."""
    rows = [[0] * (top + 1)]
    for i in range(1, M_max + 1):
        row, x = rows[-1].copy(), 1
        for p in range(top + 1):
            row[p] += x
            x *= i
        rows.append(row)
    return rows


def _sums(M, L):
    """Row M of the power-sum table, for degrees up to L."""
    return _power_sum_table(M, 2 * L)[M]


def _sigma_min_exceeds(M, L, c, sums):
    """Exact oracle: whether sigma_min(Bbar / sqrt(M)) > c, for Bbar =
    build_matrix(M, L) in exact arithmetic, c a float or a Fraction taken at
    its exact value; ``sums`` is row M of _power_sum_table for any top >= 2L.

    sigma_min(Bbar / sqrt(M)) > c iff G - c^2 I is positive definite; the
    congruence D = diag(M^j), scaled by M, turns G into the integer Hankel
    matrix H_{jl} = S_{j+l}, so with c^2 = p/q the test is
    q H - p M diag(M^(2j)) > 0.  Bareiss elimination on Python ints: the k-th
    pivot is the k-th leading principal minor, and every division is exact.
    """
    c2 = Fraction(c) ** 2
    p, q = c2.numerator, c2.denominator
    order = L + 1
    a = [[0] * j + [q * sums[j + l] for l in range(j, order)] for j in range(order)]
    for j in range(order):
        a[j][j] -= p * M ** (2 * j + 1)
    prev = 1
    for k in range(order):
        piv = a[k][k]
        if piv <= 0:
            return False
        row_k = a[k]
        for i in range(k + 1, order):
            aki = row_k[i]
            row_i = a[i]
            for j in range(i, order):
                row_i[j] = (row_i[j] * piv - aki * row_k[j]) // prev
        prev = piv
    return True


def _exact_cell(M, L, sums, bound=sigma_min_bound):
    """The exact oracle's verdict on one degree at its bound."""
    return _sigma_min_exceeds(M, L, bound(M, L), sums)


def _trace(M, L):
    """trace(G_L^-1) as an exact Fraction, from the certificate's integers."""
    num, den = list(vd._inverse_gram_traces(M, L))[-1]
    return Fraction(M * num, den)


def _trace_cell(M, L, b):
    """The certificate's rule for one degree, on Fractions: b^2 trace < 1."""
    return Fraction(b) ** 2 * _trace(M, L) < 1


def _inverse_trace_by_elimination(M, L):
    """trace(G^-1) for G = Bbar^T Bbar / M, by Gauss-Jordan on Fractions."""
    n = L + 1
    g = [[Fraction(sum(i ** (j + l) for i in range(1, M + 1)), M ** (j + l + 1))
          for l in range(n)] + [Fraction(int(j == l)) for l in range(n)] for j in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if g[r][col] != 0)
        g[col], g[pivot] = g[pivot], g[col]
        g[col] = [x / g[col][col] for x in g[col]]
        for r in range(n):
            if r != col and g[r][col] != 0:
                factor = g[r][col]
                g[r] = [x - factor * y for x, y in zip(g[r], g[col])]
    return sum(g[j][n + j] for j in range(n))


def _move_bound(monkeypatch, M, L, value):
    """Replace the closed-form bound of the one cell (M, L) by ``value``."""
    def moved(m, degree):
        return value if (m, degree) == (M, L) else sigma_min_bound(m, degree)

    monkeypatch.setattr(vd, "sigma_min_bound", moved)
    return moved


class TestCertificate:
    def test_power_sums(self):
        assert _power_sum_table(4, 3)[4] == [4, 10, 30, 100]
        assert _power_sum_table(0, 2)[0] == [0, 0, 0]
        # the oracle's Gram matrix at (M=4, L=1) from S_0, S_1, S_2: its
        # inverse has the certificate's trace, (a + d) / (a d - b^2)
        a, b, d = Fraction(4, 4), Fraction(10, 4**2), Fraction(30, 4**3)
        assert (a + d) / (a * d - b * b) == _trace(4, 1) == Fraction(94, 5)

    def test_power_sum_table_rows(self):
        table = _power_sum_table(20, 6)
        assert len(table) == 21
        for M, row in enumerate(table):
            assert row == [sum(i**p for i in range(1, M + 1)) for p in range(7)]

    @pytest.mark.parametrize("M,L", CERT_CELLS)
    def test_brackets_svd_value(self, M, L):
        # pins the SVD value to 1e-6 relative, also where the Gram matrix is
        # too ill-conditioned for float eigen-solves (L >= 11)
        s = _svd_sigma(M, L)
        sums = _sums(M, L)
        assert _sigma_min_exceeds(M, L, s * (1 - 1e-6), sums)
        assert not _sigma_min_exceeds(M, L, s * (1 + 1e-6), sums)

    @pytest.mark.parametrize("M,L", CERT_CELLS)
    def test_bound_certified(self, M, L):
        assert certify_sigma_min_bounds(M, L)
        assert _trace_cell(M, L, sigma_min_bound(M, L))
        assert _exact_cell(M, L, _sums(M, L))

    @pytest.mark.parametrize("M,L", CERT_CELLS)
    def test_never_certifies_above_svd_sigma(self, monkeypatch, M, L):
        _move_bound(monkeypatch, M, L, _svd_sigma(M, L) * (1 + 1e-6))
        assert not vd.certify_sigma_min_bounds(M, L)

    def test_trace_matches_exact_inverse(self):
        for M in range(2, 12):
            for L in range(1, min(6, M - 1) + 1):
                assert _trace(M, L) == _inverse_trace_by_elimination(M, L), (M, L)

    @pytest.mark.parametrize("M,L", CERT_CELLS)
    def test_trace_never_certifies_what_exact_test_rejects(self, monkeypatch, M, L):
        # thresholds on both sides of 1/sqrt(trace): the verdict is the
        # trace's rule exactly, and every bound it certifies the exact test
        # confirms
        sums = _sums(M, L)
        edge = 1 / math.sqrt(_trace(M, L))
        for scale in (0.5, 1 - 1e-9, 1 - 1e-15, 1, 1 + 1e-15, 1 + 1e-9, 1 + 1e-4, 1.1):
            c = edge * scale
            _move_bound(monkeypatch, M, L, c)
            verdict = vd.certify_sigma_min_bounds(M, L)
            assert verdict == _trace_cell(M, L, c), scale
            if verdict:
                assert _sigma_min_exceeds(M, L, c, sums), scale
            if scale <= 1 - 1e-9:
                assert verdict, scale
            if scale >= 1 + 1e-9:
                assert not verdict, scale

    def test_grouped_verdict_equals_per_cell_verdict_on_grid(self):
        # every prefix of degrees: the per-M verdict is the AND of the
        # per-cell trace verdicts at the bound, and the exact oracle confirms
        # each cell
        sums = _power_sum_table(verify.SPECTRAL_M_MAX, 2 * verify.SPECTRAL_L_MAX)
        for M, top in _grid_tops():
            cells = [_trace_cell(M, L, sigma_min_bound(M, L)) for L in range(1, top + 1)]
            for L in range(1, top + 1):
                assert certify_sigma_min_bounds(M, L) == all(cells[:L]), (M, L)
                assert _exact_cell(M, L, sums[M]), (M, L)

    def test_trace_only_picks_the_path(self, monkeypatch):
        # the trace is the whole certificate: with an infinite trace no
        # degree is certified, though every bound holds, and with a zero
        # trace every degree is, even a bound past sigma_min
        for M in (13, 5, 64):
            top = min(12, M - 1)
            sums = _sums(M, top)
            assert all(_exact_cell(M, L, sums) for L in range(1, top + 1))
            assert certify_sigma_min_bounds(M, top)
            with monkeypatch.context() as patch:
                patch.setattr(vd, "_inverse_gram_traces",
                              lambda M, top: ((1, 0) for _ in range(top)))  # infinite trace
                assert not vd.certify_sigma_min_bounds(M, top)
                patch.setattr(vd, "_inverse_gram_traces",
                              lambda M, top: ((0, 1) for _ in range(top)))  # zero trace
                moved = _move_bound(patch, M, top, _svd_sigma(M, top) * (1 + 1e-6))
                assert vd.certify_sigma_min_bounds(M, top)
                assert not _exact_cell(M, top, sums, bound=moved)

    @pytest.mark.parametrize("M,L", [(13, 12), (64, 1), (64, 8), (64, 12), (30, 5), (9, 4)])
    @pytest.mark.parametrize("scale", [1 + 1e-6, 1 - 1e-6, 0.9])
    def test_one_bound_moved_near_sigma(self, monkeypatch, M, L, scale):
        # a bound just above sigma_min at one degree fails the whole M; just
        # below, past the reach of the trace, it is true but fails too; at
        # 0.9 sigma_min the trace certifies it
        sigmas = _grid_sigmas(M)
        sums = _sums(M, len(sigmas))
        moved = _move_bound(monkeypatch, M, L, sigmas[L - 1] * scale)
        degrees = range(1, len(sigmas) + 1)
        assert all(_exact_cell(M, d, sums, bound=moved) for d in degrees) == (scale < 1)
        by_trace = all(_trace_cell(M, d, moved(M, d)) for d in degrees)
        assert by_trace == (scale == 0.9)
        assert vd.certify_sigma_min_bounds(M, len(sigmas)) == by_trace

    def test_rejects_bound_above_sigma(self, monkeypatch):
        s = _grid_sigmas(13)[-1]
        _move_bound(monkeypatch, 13, 12, s * (1 + 1e-6))
        assert not vd.certify_sigma_min_bounds(13, 12)
        # the trace reaches only 1/1.0002 of sigma_min here: a true bound
        # closer than that is not certified, one below it is
        _move_bound(monkeypatch, 13, 12, s * (1 - 1e-6))
        assert _sigma_min_exceeds(13, 12, s * (1 - 1e-6), _sums(13, 12))
        assert not vd.certify_sigma_min_bounds(13, 12)
        _move_bound(monkeypatch, 13, 12, s * (1 - 1e-3))
        assert vd.certify_sigma_min_bounds(13, 12)

    def test_bound_at_one_over_sqrt_trace_is_not_certified(self, monkeypatch):
        # b^2 trace = 1 gives only sigma_min >= b, not sigma_min > b
        monkeypatch.setattr(vd, "_inverse_gram_traces", lambda M, top: iter([(4, M)]))  # trace 4
        _move_bound(monkeypatch, 5, 1, 0.5)
        assert not vd.certify_sigma_min_bounds(5, 1)
        _move_bound(monkeypatch, 5, 1, math.nextafter(0.5, 0))
        assert vd.certify_sigma_min_bounds(5, 1)

    def test_trace_margin_on_verify_grid(self):
        # on the verify grid 1/sqrt(trace) is at least 100 times every bound
        # (183.7 at (M=2, L=1)), so a grid change that needs more than the
        # trace fails here first
        assert verify.spectral_report()[1]
        margins = [(1 / math.sqrt(_trace(M, L)) / sigma_min_bound(M, L), M, L)
                   for M, top in _grid_tops() for L in range(1, top + 1)]
        assert len(margins) == 690
        assert min(margins)[0] == pytest.approx(183.717, rel=1e-5)
        assert min(margins)[1:] == (2, 1)
        for _, M, L in margins:
            assert _trace_cell(M, L, 100 * sigma_min_bound(M, L)), (M, L)

    def test_exact_at_analytic_value(self):
        # (M=2, L=1): lambda_min of the Gram matrix is (13 - sqrt(153))/16
        lam = (13 - math.sqrt(153)) / 16
        sums = _sums(2, 1)
        assert _sigma_min_exceeds(2, 1, math.sqrt(lam * (1 - 1e-12)), sums)
        assert not _sigma_min_exceeds(2, 1, math.sqrt(lam * (1 + 1e-12)), sums)
        assert _sigma_min_exceeds(2, 1, 0, sums)


def _per_cell_spectral_report():
    """spectral_report as each cell used to be checked: its own node matrices,
    its own SVDs and its own trace certificate."""
    lines = ["M,L,sigma_min,bound,ratio"]
    certified = True
    extra_col_holds = True
    worst_bound = (math.inf, 0, 0)
    for L in range(1, verify.SPECTRAL_L_MAX + 1):
        for M in range(L + 1, verify.SPECTRAL_M_MAX + 1):
            s_bar = sigma_min(build_matrix(M, L) / math.sqrt(M))
            bnd = sigma_min_bound(M, L)
            certified = _trace_cell(M, L, bnd) and certified
            worst_bound = min(worst_bound, (s_bar / bnd, M, L))
            if sigma_min(build_matrix(M, L)[:, 1:]) < s_bar * math.sqrt(M) * (1 - 1e-9):
                extra_col_holds = False
            lines.append(f"{M},{L},{s_bar!r},{bnd!r},{s_bar / bnd!r}")
    verify._check(lines, f"sigma_min(Bbar/sqrt(M)) > bound on grid (L<={verify.SPECTRAL_L_MAX}, "
                         f"M<={verify.SPECTRAL_M_MAX}), exact certificate", certified)
    lines.append(f"smallest sigma_min/bound {worst_bound[0]:.3e} at (M={worst_bound[1]}, "
                 f"L={worst_bound[2]}) (reported)")
    verify._check(lines, "sigma_min(B) >= sigma_min(Bbar) on grid", extra_col_holds)
    return lines


class TestSpectralReport:
    def test_lines_match_per_cell_loop(self):
        # byte-identical on the machine that runs it, up to the modulus check
        lines, ok = verify.spectral_report()
        ref = _per_cell_spectral_report()
        assert ok
        assert lines[:len(ref)] == ref
        assert [line.split(":")[0] for line in lines[len(ref):]] == ["t_m modulus bound (M<=32, m<=8)"]

    def test_sliced_columns_match_own_matrices(self):
        full = build_matrix(40, 12)
        for L in (1, 5, 12):
            assert np.array_equal(full[:, :L + 1], build_matrix(40, L))
            assert sigma_min(full[:, 1:L + 1]) == sigma_min(build_matrix(40, L)[:, 1:])


class TestCoefficientNormBound:
    def test_w_norm_within_sigma_budget(self):
        # ||w*||_2 <= ||1||_2 / sigma_min(B) for the least-squares solution
        for L in range(1, 6):
            for M in range(L + 1, 20):
                w_norm = math.sqrt(sum(wj * wj for wj in map(float, solve_l2(M, L))))
                budget = math.sqrt(M) / sigma_min(build_matrix(M, L)[:, 1:])
                assert w_norm <= budget * (1 + 1e-9)


def _modulus_check_ref(basis, m, num_points):
    """Reference: t_m alone, by numpy's polyval."""
    M = basis.M
    coeffs = [float(Fraction(c, math.factorial(m))) for c in basis.numerators[m]]
    circle = np.exp(2j * np.pi * np.arange(num_points) / num_points)
    if num_points == 1:
        line = np.array([M], dtype=complex)
    else:
        line = (-1.0 + (M + 1.0) / (num_points - 1) * np.arange(num_points)).astype(complex)
    points = np.concatenate([circle, line])
    ratios = np.abs(np.polyval(coeffs[::-1], points)) / tm_bound_at(M, m, points)
    worst = int(np.argmax(ratios))
    return vd.TmBoundReport(M, m, float(ratios[worst]), complex(points[worst]))


class TestModulusCheck:
    def test_value_spots_m3(self):
        # t_1(x) = 2x - 2 at M = 3
        assert tm_bound_at(3, 1, 1 + 0j) == 1 * 2**6 * 3
        (report,) = tm_modulus_check(chebyshev_basis(3, 1), 16)
        assert report.worst_ratio < 1
        # |t_1(-1)| = 4 against bound 192
        assert 4 <= tm_bound_at(3, 1, -1 + 0j) == 192

    def test_grid_worst_ratio_below_one(self):
        worst = 0.0
        for M in range(2, 17):
            for report in tm_modulus_check(chebyshev_basis(M, min(6, M - 1)), 32):
                worst = max(worst, report.worst_ratio)
        assert worst < 1

    def test_violation_reports_worst_point(self, monkeypatch):
        monkeypatch.setattr(vd, "tm_bound_at", lambda M, m, z: 1e-12)
        (report,) = vd.tm_modulus_check(chebyshev_basis(3, 1), 8)
        assert report.worst_ratio > 1
        assert isinstance(report.worst_point, complex)

    def test_report_fields(self):
        reports = tm_modulus_check(chebyshev_basis(5, 2), 16)
        assert [(report.M, report.m) for report in reports] == [(5, 1), (5, 2)]
        for report in reports:
            assert 0 <= report.worst_ratio < 1
            assert isinstance(report.worst_point, complex)

    def test_shared_basis_matches_own(self):
        # one Horner pass over zero-padded rows: bit for bit each degree's
        # own polyval, also at the num_points == 1 corner
        for M, L in ((9, 6), (2, 1), (32, 8), (40, 12)):
            basis = chebyshev_basis(M, L)
            for num_points in (1, 2, 64):
                reports = tm_modulus_check(basis, num_points)
                assert reports == tuple(_modulus_check_ref(basis, m, num_points)
                                        for m in range(1, L + 1)), (M, num_points)
                assert reports[:3] == tm_modulus_check(chebyshev_basis(M, min(3, L)), num_points)

    def test_invalid_degree(self):
        with pytest.raises(ValueError, match="no t_m"):
            tm_modulus_check(chebyshev_basis(3, 0), 8)
        with pytest.raises(ValueError):
            tm_modulus_check(chebyshev_basis(3, 2), 0)
