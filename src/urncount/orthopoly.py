"""Discrete Chebyshev (Gram) polynomials and the closed-form least squares.

The polynomials t_0, ..., t_{M-1} are orthogonal under the counting measure
on {0, ..., M-1}; t_m is the m-th forward difference of
p_m(x) = x(x-1)...(x-m+1) * (x-M)(x-M-1)...(x-M-m+1), divided by m!.
They are not built from that definition: m! * t_m comes from the integer
three-term recurrence of Abramowitz & Stegun 22.7, which gives coefficients
in x, coefficients after the substitution x -> Mx - 1, and values at the
nodes alike.  All coefficient arithmetic is exact: big integers over the
common denominator m!, and the least-squares solution leaves as integer
numerators over one denominator.  Fractions appear only in the closed forms
(``chebyshev_norm``, ``phi_norm_sq``, ``binomial_ratio_minus_one``) and the
exact residual ``l2_residual_sq_exact``, which the verify suites compare.
Floating point appears only at the boundary, because the coefficients and
norms overflow 64-bit integers almost immediately and the verification
identities demand exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial

import numpy as np


# -- the three-term recurrence ------------------------------------------------

def _gram_numerators(M: int, L: int, one: list[int], times_x) -> list[list[int]]:
    """N_m = m! * t_m for m = 0..L by the recurrence of A&S 22.7.

    N_0 = 1, N_1 = x, N_{m+1} = (2m+1) x N_m - m^2 (M^2 - m^2) N_{m-1}, where
    x = 2y - M + 1 and ``times_x`` multiplies a value by x.  Values are lists
    of Python ints, so every step is exact; a shorter N_{m-1} counts as
    zero-padded.
    """
    rows = [one, times_x(one)]
    for m in range(1, L):
        c = m * m * (M * M - m * m)
        rows.append([(2 * m + 1) * u - c * v
                     for u, v in zip_longest(times_x(rows[m]), rows[m - 1], fillvalue=0)])
    return rows[:L + 1]


def _gram_coefficients(M: int, L: int, a: int, b: int) -> list[tuple[int, ...]]:
    """Ascending integer coefficients in z of m! * t_m, m = 0..L, where 2y - M + 1 = a + b z."""
    rows = _gram_numerators(M, L, [1], lambda v: [a * u + b * w for u, w in zip(v + [0], [0] + v)])
    return [tuple(row) for row in rows]


def chebyshev_norm(M: int, m: int) -> Fraction:
    """c(M, m) = M (M^2-1^2)...(M^2-m^2) / (2m+1), the squared t_m norm."""
    num = M
    for j in range(1, m + 1):
        num *= M * M - j * j
    return Fraction(num, 2 * m + 1)


@dataclass(frozen=True)
class ChebyshevBasis:
    """Exact discrete Chebyshev polynomials t_0..t_L on {0, ..., M-1}.

    Immutable and shareable once constructed.
    """

    M: int
    L: int
    numerators: tuple[tuple[int, ...], ...]  # m! * t_m, integer coefficients


def chebyshev_basis(M: int, L: int) -> ChebyshevBasis:
    """Build t_0..t_L for the M-node basis; requires L <= M-1."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if L < 0 or L >= M:
        raise ValueError(f"basis requires 0 <= L <= M-1, got L={L}, M={M}")
    numerators = _gram_coefficients(M, L, 1 - M, 2)
    return ChebyshevBasis(M, L, tuple(numerators))


def orthonormality_deviations(M: int, L: int) -> list[float]:
    """max_{i,j <= d} |<phi_i, phi_j> - delta_ij| under the node inner product,
    for each degree d = 0..L.

    phi_m(i/M) = t_m(i-1)/sqrt(c(M,m)) for i in [M].  The node values are exact
    and rounded once, so the float inner products are accurate to a few ulps
    despite the huge alternating coefficients.  Only the nodes y < M/2 are
    evaluated; t_m(M-1-y) = (-1)^m t_m(y) gives the rest.
    """
    if L < 0 or L >= M:
        raise ValueError(f"need 0 <= L <= M-1, got L={L}, M={M}")
    half = (M + 1) // 2
    x = range(1 - M, 2 * half - M, 2)  # 2y - M + 1 at y = 0..half-1
    rows = _gram_numerators(M, L, [1] * half, lambda v: [xi * u for xi, u in zip(x, v)])
    v = np.empty((L + 1, M))
    for m, row in enumerate(rows):
        fm = factorial(m)
        head = [r / fm for r in row]
        tail = head[:M - half][::-1]
        v[m] = np.array(head + (tail if m % 2 == 0 else [-t for t in tail]))
        v[m] /= math.sqrt(float(chebyshev_norm(M, m)))
    deviations = []
    for d in range(L + 1):
        gram = v[:d + 1] @ v[:d + 1].T
        gram.flat[::d + 2] -= 1.0  # the diagonal
        deviations.append(float(np.abs(gram).max()))
    return deviations


# -- closed-form least squares ------------------------------------------------

def phi_norm_sq(M: int, L: int) -> Fraction:
    """||phi(0)||^2 = sum_m t_m(-1)^2 / c(M,m), exactly.

    The sum runs on integers over den = c(M,L) (2L+1), the product
    M (M^2-1^2)...(M^2-L^2), which every c(M,m) (2m+1) divides; one
    Fraction is formed at the end.
    """
    if L < 0 or L >= M:
        raise ValueError(f"need 0 <= L <= M-1, got L={L}, M={M}")
    num, den = 1, M  # m = 0: t_0(-1)^2 / c(M,0) = 1/M
    tm = 1  # t_m(-1) = (-1)^m (M+1)...(M+m), as a running product
    for m in range(1, L + 1):
        tm *= -(M + m)
        num = num * (M * M - m * m) + (2 * m + 1) * tm * tm
        den *= M * M - m * m
    return Fraction(num, den)


def binomial_ratio_minus_one(M: int, L: int) -> Fraction:
    """binom(M+L+1, L+1) / binom(M, L+1) - 1, the closed form for ||phi(0)||^2."""
    if L + 1 > M:
        raise ValueError(f"need L+1 <= M, got L={L}, M={M}")
    return Fraction(comb(M + L + 1, L + 1), comb(M, L + 1)) - 1


def l2_min_value(M: int, L: int) -> float:
    """The minimum of ||Bw - 1||_2 over w, in closed form."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if M <= L:
        raise ValueError(f"need M >= L+1, got M={M}, L={L}")
    return float(binomial_ratio_minus_one(M, L)) ** -0.5


def solve_l2(M: int, L: int) -> tuple[tuple[int, ...], int]:
    """The exact w_1..w_L minimizing ||Bw - 1||_2, by projection in the
    orthonormal basis, as integer numerators over one positive denominator:
    (nums, den) with w_j = nums[j-1] / den.

    The optimum is -(1/S) sum_m [t_m(-1)/c(M,m)] t_m(Mx - 1) with
    S = ||phi(0)||^2, whose constant coefficient is exactly -1, leaving
    w_1..w_L.  The sum runs on integers over one common denominator,
    D = c(M,L) L! (2L+1), which every c(M,m) m! (2m+1) divides; S*D is an
    integer too, and it is the returned denominator, so no rational is
    formed.  The normal equations are deliberately avoided: the Gram matrix
    is Hilbert-like and ill-conditioned.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if M <= L:
        raise ValueError(f"need M >= L+1, got M={M}, L={L}")
    # q[m] = D / (c(M,m) m! (2m+1)), by the ratio of consecutive divisors
    q = [1] * (L + 1)
    for m in range(L, 0, -1):
        q[m - 1] = q[m] * (M * M - m * m) * m
    sd = 0  # S * D
    nums = [0] * (L + 1)  # -D times the coefficients of the optimum, in x
    tm, fm = 1, 1  # t_m(-1) = (-1)^m (M+1)...(M+m) and m!, as running products
    # 2y - M + 1 at y = Mx - 1 is -(M+1) + 2M x: coefficients of m! t_m(Mx - 1) in x
    for m, composed in enumerate(_gram_coefficients(M, L, -M - 1, 2 * M)):
        weight = (2 * m + 1) * tm * q[m]  # D t_m(-1) / (c(M,m) m!)
        sd += weight * tm * fm
        for j, cj in enumerate(composed):
            nums[j] += weight * cj
        tm, fm = -tm * (M + m + 1), fm * (m + 1)
    if nums[0] != sd:
        raise AssertionError(f"projection lost the constraint at (M={M}, L={L})")
    return tuple(-num for num in nums[1:]), sd


def poly_numerators(w_exact, points, M: int) -> tuple[list[int], int]:
    """p(a/M) = sum_j w_j (a/M)^j for each a in ``points``, exactly, as integer
    numerators over one denominator: p(a/M) = nums[i] / den.

    With ``w_exact`` = (W, D), w_j = W_j / D, the numerator is
    sum_j W_j a^j M^(L-j), by Horner's rule in a, and den = D M^L.
    """
    W, D = w_exact
    L = len(W)
    scaled = [wj * M ** (L - j) for j, wj in enumerate(W, start=1)]
    nums = []
    for a in points:
        acc = 0
        for c in reversed(scaled):
            acc = (acc + c) * a
        nums.append(acc)
    return nums, D * M**L


def l2_residual_sq_exact(w_exact, M: int) -> Fraction:
    """sum_{a in [M]} (p(a/M) - 1)^2 for w_exact = (W, D), w_j = W_j / D."""
    nums, den = poly_numerators(w_exact, range(1, M + 1), M)
    return Fraction(sum((num - den) ** 2 for num in nums), den * den)
