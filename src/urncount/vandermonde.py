"""Node matrices, minimum singular values, and modulus checks.

The estimator's variance is controlled by how small the least singular value
of the node matrix can get.  Reported values come from LAPACK's SVD of the
matrix itself.  The closed-form lower bound is decided exactly instead:
sigma_min(Bbar / sqrt(M)) > c holds iff G - c^2 I is positive definite, where
G = Bbar^T Bbar / M.  The congruence D = diag(M^j), scaled by M, turns G into
the integer Hankel matrix H_{jl} = S_{j+l} of power sums S_p = sum_{i<=M} i^p,
so with c^2 = p/q the test is q H - p M diag(M^(2j)) > 0: every leading
principal minor positive (Sylvester), read off fraction-free elimination on
Python ints.  The degree-L matrix is the leading block of order L+1 of every
higher degree's, so consecutive degrees of one M that share a power-of-two
threshold c share one elimination too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .orthopoly import ChebyshevBasis


def build_matrix(M: int, L: int) -> np.ndarray:
    """Read-only node matrix Bbar: rows i in [M], columns j = 0..L: entries
    (i/M)^j, so column 0 is all ones and columns 1..L are the plain matrix B."""
    if M < 1 or L < 1:
        raise ValueError("M and L must be >= 1")
    nodes = np.arange(1, M + 1) / M
    matrix = np.column_stack([nodes**j for j in range(L + 1)])
    matrix.flags.writeable = False
    return matrix


def sigma_min(matrix) -> float:
    """Smallest singular value, from LAPACK's SVD of the matrix itself."""
    a = np.asarray(matrix, dtype=float)
    rows, cols = a.shape
    if rows < cols:
        raise ValueError(f"need rows >= columns, got {rows} x {cols}")
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def sigma_min_bound(M: int, L: int) -> float:
    """Closed-form lower bound on sigma_min(Bbar / sqrt(M)) for M >= L+1:
    (1 / (L^2 2^(7L) (2L+1))) * ((M+L)/(eM))^(L+0.5)."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if M <= L:
        raise ValueError(f"bound requires M >= L+1, got M={M}, L={L}")
    lead = 1.0 / (L * L * 2.0 ** (7 * L) * (2 * L + 1))
    return lead * ((M + L) / (math.e * M)) ** (L + 0.5)


def power_sum_table(M_max: int, top: int) -> list[list[int]]:
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


def _positive_order(M: int, order: int, c, sums: list[int]) -> int:
    """How many leading principal minors of q H - p M diag(M^(2j)), of order
    ``order`` with c^2 = p/q, are positive before the first that is not.

    Bareiss elimination on Python ints: the k-th pivot is the k-th leading
    principal minor, and every division is exact.  Only the upper triangle is
    built or updated.
    """
    c2 = Fraction(c) ** 2
    p, q = c2.numerator, c2.denominator
    a = [[0] * j + [q * sums[j + l] for l in range(j, order)] for j in range(order)]
    for j in range(order):
        a[j][j] -= p * M ** (2 * j + 1)
    prev = 1
    for k in range(order):
        piv = a[k][k]
        if piv <= 0:
            return k
        row_k = a[k]
        for i in range(k + 1, order):
            aki = row_k[i]
            row_i = a[i]
            for j in range(i, order):
                row_i[j] = (row_i[j] * piv - aki * row_k[j]) // prev
        prev = piv
    return order


def sigma_min_exceeds(M: int, L: int, c, sums: list[int]) -> bool:
    """Exactly whether sigma_min(Bbar / sqrt(M)) > c, for Bbar = build_matrix(M,
    L) in exact arithmetic.

    ``c`` is a float or a Fraction, taken at its exact value; ``sums`` is
    row M of power_sum_table(M_max, top) for any top >= 2L, shared across L.
    """
    return _positive_order(M, L + 1, c, sums) > L


def certify_sigma_min_bounds(M: int, sigma_hats, sums: list[int]) -> bool:
    """Exactly whether sigma_min(Bbar_L / sqrt(M)) > sigma_min_bound(M, L) for
    every degree L = 1..len(sigma_hats), Bbar_L = build_matrix(M, L); ``sums``
    is row M of power_sum_table(M_max, top) for any top >= 2 len(sigma_hats).

    ``sigma_hats[L - 1]`` (a float estimate of the L-th sigma_min) only picks
    thresholds.  A run of consecutive degrees shares the power of two c with
    max b <= c <= min sigma_hat / 2 over the run, and one elimination of the
    last degree's order at c decides them all: the degree-L matrix is its
    leading block of order L+1, so each degree up to the first non-positive
    pivot has sigma_min > c >= b.  A degree that no run certifies is tested
    at its own bound b, so the verdict is always the exact one.
    """
    top = len(sigma_hats)
    bounds = {L: sigma_min_bound(M, L) for L in range(1, top + 1)}
    L = 1
    while L <= top:
        # the longest run L..last that one power of two c fits
        c, last, lo, hi = None, L, 0.0, math.inf
        for d in range(L, top + 1):
            lo, hi = max(lo, bounds[d]), min(hi, sigma_hats[d - 1] / 2)
            power = math.ldexp(1.0, math.frexp(hi)[1] - 1) if hi > 0 else 0.0
            if not lo <= power <= hi:
                break
            c, last = power, d
        certified = 0 if c is None else _positive_order(M, last + 1, c, sums) - 1
        if not all(sigma_min_exceeds(M, d, bounds[d], sums)
                   for d in range(max(L, certified + 1), last + 1)):
            return False
        L = last + 1
    return True


@dataclass(frozen=True)
class TmBoundReport:
    M: int
    m: int
    worst_ratio: float
    worst_point: complex


def tm_bound_at(M: int, m: int, z):
    """m^2 2^(6m) (max(|z|, |z+m|) v M)^m; |z + xi| is maximized at an endpoint.

    ``z`` may be a complex number or an array of them.
    """
    reach = np.maximum(np.maximum(np.abs(z), np.abs(z + m)), float(M))
    return m * m * 2.0 ** (6 * m) * reach**m


def tm_modulus_check(basis: ChebyshevBasis, m: int, num_points: int) -> TmBoundReport:
    """Check |t_m(z)| of ``basis`` against its modulus bound on the unit
    circle and [-1, M], M = basis.M; one basis serves every m <= basis.L.

    Exact coefficients, one vectorized Horner pass in floating point.  The
    report carries the largest ratio |t_m(z)| / bound and its point z; the
    bound holds on the points checked iff that ratio is at most 1.
    """
    M = basis.M
    if not 1 <= m <= basis.L:
        raise ValueError(f"basis (M={M}, L={basis.L}) does not cover t_{m}: need 1 <= m <= L")
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    coeffs = [float(Fraction(c, math.factorial(m))) for c in basis.numerators[m]]

    circle = np.exp(2j * np.pi * np.arange(num_points) / num_points)
    if num_points == 1:
        line = np.array([M], dtype=complex)
    else:
        line = (-1.0 + (M + 1.0) / (num_points - 1) * np.arange(num_points)).astype(complex)
    points = np.concatenate([circle, line])
    ratios = np.abs(np.polyval(coeffs[::-1], points)) / tm_bound_at(M, m, points)
    worst = int(np.argmax(ratios))
    return TmBoundReport(M, m, float(ratios[worst]), complex(points[worst]))
