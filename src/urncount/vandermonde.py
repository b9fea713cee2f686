"""Node matrices, minimum singular values, and modulus checks.

The estimator's variance is controlled by how small the least singular value
of the node matrix can get.  Reported values come from LAPACK's SVD of the
matrix itself.  The closed-form lower bound is certified exactly instead, in
the discrete Chebyshev basis: with N_m the integer coefficients of
m! t_m(Mx - 1), Bbar = Phi C^-1 for an orthonormal Phi, so G = Bbar^T Bbar / M
has trace(G^-1) = M sum_m ||N_m||^2 / (m!^2 c(M, m)), a rational in closed
form, and sigma_min(Bbar / sqrt(M))^2 = lambda_min(G) >= 1 / trace(G^-1).
A degree whose bound b has b^2 trace(G^-1) < 1 is certified.  The test is
sufficient, not necessary: a bound in [1 / sqrt(trace(G^-1)), sigma_min) is
true but not certified.
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


def certify_sigma_min_bounds(M: int, top: int) -> bool:
    """Exactly whether b^2 trace(G_L^-1) < 1 for every degree L = 1..top,
    b = sigma_min_bound(M, L); each such degree has sigma_min(Bbar_L /
    sqrt(M)) > b, Bbar_L = build_matrix(M, L)."""
    for L, (num, den) in enumerate(_inverse_gram_traces(M, top), start=1):
        bn, bd = sigma_min_bound(M, L).as_integer_ratio()
        if bn * bn * M * num >= bd * bd * den:
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
