"""Node matrices, minimum singular values, and modulus checks.

The estimator's variance is controlled by how small the least singular value
of the node matrix can get.  Reported values come from LAPACK's SVD of the
matrix itself.  The closed-form lower bound is decided exactly instead:
sigma_min(Bbar / sqrt(M)) > c holds iff G - c^2 I is positive definite, where
G = Bbar^T Bbar / M.  The congruence D = diag(M^j), scaled by M, turns G into
the integer Hankel matrix H_{jl} = S_{j+l} of power sums S_p = sum_{i<=M} i^p,
so with c^2 = p/q the test is q H - p M diag(M^(2j)) > 0: every leading
principal minor positive (Sylvester), read off fraction-free elimination on
Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .orthopoly import ChebyshevBasis, chebyshev_basis


class BoundCheckError(AssertionError):
    """A verified inequality failed; the message carries the offending point."""


def build_matrix(M: int, L: int, with_ones: bool = False) -> np.ndarray:
    """Read-only node matrix: rows i in [M], columns j: entries (i/M)^j; j
    starts at 0 when the leading all-ones column is included."""
    if M < 1 or L < 1:
        raise ValueError("M and L must be >= 1")
    nodes = np.arange(1, M + 1) / M
    j_lo = 0 if with_ones else 1
    matrix = np.column_stack([nodes**j for j in range(j_lo, L + 1)])
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


def power_sums(M: int, top: int) -> list[int]:
    """S_p = sum_{i=1}^{M} i^p for p = 0..top, exactly."""
    sums = [0] * (top + 1)
    for i in range(1, M + 1):
        x = 1
        for p in range(top + 1):
            sums[p] += x
            x *= i
    return sums


def _positive_definite(a: list[list[int]]) -> bool:
    """Sylvester's criterion on a symmetric integer matrix (modified in place).

    Bareiss elimination: the k-th pivot is the k-th leading principal minor,
    and every division is exact.  Only the upper triangle is read or updated.
    """
    n = len(a)
    prev = 1
    for k in range(n):
        piv = a[k][k]
        if piv <= 0:
            return False
        row_k = a[k]
        for i in range(k + 1, n):
            aki = row_k[i]
            row_i = a[i]
            for j in range(i, n):
                row_i[j] = (row_i[j] * piv - aki * row_k[j]) // prev
        prev = piv
    return True


def sigma_min_exceeds(M: int, L: int, c, sums: list[int] | None = None) -> bool:
    """Exactly whether sigma_min(Bbar / sqrt(M)) > c, for Bbar = build_matrix(M,
    L, with_ones=True) in exact arithmetic.

    ``c`` is a float or a Fraction, taken at its exact value; ``sums`` may
    pass power_sums(M, top) for any top >= 2L, shared across L.
    """
    if sums is None:
        sums = power_sums(M, 2 * L)
    c2 = Fraction(c) ** 2
    p, q = c2.numerator, c2.denominator
    a = [[q * sums[j + l] for l in range(L + 1)] for j in range(L + 1)]
    for j in range(L + 1):
        a[j][j] -= p * M ** (2 * j + 1)
    return _positive_definite(a)


def certify_sigma_min_bound(M: int, L: int, sigma_hat: float,
                            sums: list[int] | None = None) -> bool:
    """Exactly whether sigma_min(Bbar / sqrt(M)) > sigma_min_bound(M, L).

    ``sigma_hat`` (a float estimate of sigma_min) only picks the threshold: the
    power of two c with b <= c <= sigma_hat / 2 keeps the integers short.  If
    there is none, or the test at c fails, the test runs at b itself.
    """
    b = sigma_min_bound(M, L)
    if sigma_hat / 2 >= b:
        c = math.ldexp(1.0, math.frexp(sigma_hat / 2)[1] - 1)
        if c >= b and sigma_min_exceeds(M, L, c, sums):
            return True
    return sigma_min_exceeds(M, L, b, sums)


@dataclass(frozen=True)
class TmBoundReport:
    M: int
    m: int
    num_points: int
    worst_ratio: float
    worst_point: complex


def tm_bound_at(M: int, m: int, z):
    """m^2 2^(6m) (max(|z|, |z+m|) v M)^m; |z + xi| is maximized at an endpoint.

    ``z`` may be a complex number or an array of them.
    """
    reach = np.maximum(np.maximum(np.abs(z), np.abs(z + m)), float(M))
    return m * m * 2.0 ** (6 * m) * reach**m


def tm_modulus_check(M: int, m: int, num_points: int,
                     basis: ChebyshevBasis | None = None) -> TmBoundReport:
    """Check |t_m(z)| against its modulus bound on the unit circle and [-1, M].

    Exact coefficients, one vectorized Horner pass in floating point; raises
    BoundCheckError with the first offending point if any ratio exceeds 1.
    ``basis`` may pass a chebyshev_basis(M, L) with L >= m, shared across m.
    """
    if m < 1 or m > M - 1:
        raise ValueError(f"need 1 <= m <= M-1, got m={m}, M={M}")
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    if basis is None:
        basis = chebyshev_basis(M, m)
    elif basis.M != M or basis.L < m:
        raise ValueError(f"basis (M={basis.M}, L={basis.L}) does not cover t_{m} at M={M}")
    coeffs = [float(Fraction(c, math.factorial(m))) for c in basis.numerators[m]]

    circle = np.exp(2j * np.pi * np.arange(num_points) / num_points)
    if num_points == 1:
        line = np.array([M], dtype=complex)
    else:
        line = (-1.0 + (M + 1.0) / (num_points - 1) * np.arange(num_points)).astype(complex)
    points = np.concatenate([circle, line])
    ratios = np.abs(np.polyval(coeffs[::-1], points)) / tm_bound_at(M, m, points)
    over = np.flatnonzero(ratios > 1.0)
    if over.size:
        z, ratio = complex(points[over[0]]), float(ratios[over[0]])
        raise BoundCheckError(
            f"|t_{m}(z)| exceeds its bound at z={z} (M={M}, ratio={ratio:.3g})"
        )
    worst = int(np.argmax(ratios))
    return TmBoundReport(M, m, num_points, float(ratios[worst]), complex(points[worst]))
