"""Node matrices, minimum singular values, and modulus checks.

The estimator's variance is controlled by how small the least singular value
of the node matrix can get.  Reported values come from LAPACK's SVD of the
matrix itself.  The closed-form lower bound is certified exactly instead, in
the discrete Chebyshev basis: with N_m the integer coefficients of
m! t_m(Mx - 1), Bbar = Phi C^-1 for an orthonormal Phi, so G = Bbar^T Bbar / M
has trace(G^-1) = M sum_m ||N_m||^2 / (m!^2 c(M, m)), a rational in closed
form, and sigma_min(Bbar / sqrt(M))^2 = lambda_min(G) >= 1 / trace(G^-1).
A degree whose bound b has b^2 trace(G^-1) < 1 is certified.  Any other
degree falls back to the exact test of b itself: sigma_min(Bbar / sqrt(M)) > b
iff G - b^2 I is positive definite; the congruence D = diag(M^j), scaled by
M, turns G into the integer Hankel matrix H_{jl} = S_{j+l} of power sums
S_p = sum_{i<=M} i^p, so with b^2 = p/q the test is
q H - p M diag(M^(2j)) > 0: every leading principal minor positive
(Sylvester), read off fraction-free elimination on Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .orthopoly import ChebyshevBasis, _gram_coefficients


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


def sigma_min_exceeds(M: int, L: int, c, sums: list[int]) -> bool:
    """Exactly whether sigma_min(Bbar / sqrt(M)) > c, for Bbar = build_matrix(M,
    L) in exact arithmetic.

    ``c`` is a float or a Fraction, taken at its exact value; ``sums`` is
    row M of power_sum_table(M_max, top) for any top >= 2L, shared across L.
    Bareiss elimination on Python ints: the k-th pivot is the k-th leading
    principal minor of q H - p M diag(M^(2j)), c^2 = p/q, and every division
    is exact.  Only the upper triangle is built or updated.
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


def _inverse_gram_traces(M: int, top: int):
    """Yield (num, den) with num / den = trace(G_L^-1) / M, exactly, for
    L = 1..top, where G_L = Bbar_L^T Bbar_L / M.

    trace(G_L^-1) = M sum_{m<=L} ||N_m||^2 / (m!^2 c(M, m)), with N_m the
    integer coefficients of m! t_m(Mx - 1).  Since m!^2 c(M, m) =
    M g_1 ... g_m / (2m+1) with g_j = j^2 (M^2 - j^2), the sum runs on
    integers over den = M g_1 ... g_L.
    """
    num, den = 1, M
    for m, row in enumerate(_gram_coefficients(M, top, -M - 1, 2 * M)[1:], start=1):
        g = m * m * (M * M - m * m)
        num = num * g + (2 * m + 1) * sum(c * c for c in row)
        den *= g
        yield num, den


def certify_sigma_min_bounds(M: int, top: int, sums: list[int]) -> bool:
    """Exactly whether sigma_min(Bbar_L / sqrt(M)) > sigma_min_bound(M, L) for
    every degree L = 1..top, Bbar_L = build_matrix(M, L); ``sums`` is row M
    of power_sum_table(M_max, p) for any p >= 2 top.

    A degree whose bound b has b^2 trace(G_L^-1) < 1 is certified by the
    trace alone; any other degree is decided by sigma_min_exceeds at b.
    """
    for L, (num, den) in enumerate(_inverse_gram_traces(M, top), start=1):
        b = sigma_min_bound(M, L)
        bn, bd = b.as_integer_ratio()
        if bn * bn * M * num >= bd * bd * den and not sigma_min_exceeds(M, L, b, sums):
            return False
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


def tm_modulus_check(basis: ChebyshevBasis, num_points: int) -> tuple[TmBoundReport, ...]:
    """Check |t_m(z)| of ``basis`` against its modulus bound on the unit
    circle and [-1, M], M = basis.M, for every m = 1..basis.L.

    Exact coefficients, one vectorized Horner pass in floating point for all
    m at once (row m padded with leading zeros, which keeps each value bit
    for bit).  Report m - 1 carries the largest ratio |t_m(z)| / bound and
    its point z; the bound holds on the points checked iff that ratio is at
    most 1.
    """
    M, L = basis.M, basis.L
    if L < 1:
        raise ValueError(f"basis (M={M}, L={L}) has no t_m with m >= 1")
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    coeffs = np.zeros((L, L + 1))  # row m - 1: t_m, highest power first
    for m in range(1, L + 1):
        coeffs[m - 1, L - m:] = [float(Fraction(c, math.factorial(m)))
                                 for c in reversed(basis.numerators[m])]

    circle = np.exp(2j * np.pi * np.arange(num_points) / num_points)
    if num_points == 1:
        line = np.array([M], dtype=complex)
    else:
        line = (-1.0 + (M + 1.0) / (num_points - 1) * np.arange(num_points)).astype(complex)
    points = np.concatenate([circle, line])
    values = np.zeros((L, points.size), dtype=complex)
    for column in coeffs.T:
        values = values * points + column[:, None]
    ratios = np.abs(values)
    for m in range(1, L + 1):
        ratios[m - 1] /= tm_bound_at(M, m, points)
    return tuple(TmBoundReport(M, m, float(ratios[m - 1, worst]), complex(points[worst]))
                 for m, worst in enumerate(np.argmax(ratios, axis=1).tolist(), start=1))
