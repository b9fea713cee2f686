"""Discrete Chebyshev (Gram) polynomials and the closed-form least squares.

The polynomials t_0, ..., t_{M-1} are orthogonal under the counting measure
on {0, ..., M-1}; t_m is the m-th forward difference of
p_m(x) = x(x-1)...(x-m+1) * (x-M)(x-M-1)...(x-M-m+1), divided by m!.
They are not built from that definition: m! * t_m comes from the integer
three-term recurrence of Abramowitz & Stegun 22.7, which gives coefficients
in x, coefficients after the substitution x -> Mx - 1, and values at the
nodes alike.  All coefficient arithmetic is exact (big integers over the
common denominator m!, rationals at the interface); floating point appears
only at the boundary, because the coefficients and norms overflow 64-bit
integers almost immediately and the verification identities demand
exactness.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial

import numpy as np


# -- the three-term recurrence ------------------------------------------------

def _gram_numerators(M: int, L: int, one, times_x) -> list:
    """N_m = m! * t_m for m = 0..L by the recurrence of A&S 22.7.

    N_0 = 1, N_1 = x, N_{m+1} = (2m+1) x N_m - m^2 (M^2 - m^2) N_{m-1}, where
    x = 2y - M + 1 and ``times_x`` multiplies a value by x.  Values are numpy
    object arrays of Python ints, so every step is exact.
    """
    rows = [one, times_x(one)]
    for m in range(1, L):
        rows.append((2 * m + 1) * times_x(rows[m]) - m * m * (M * M - m * m) * rows[m - 1])
    return rows[:L + 1]


def _gram_coefficients(M: int, L: int, a: int, b: int) -> list[tuple[int, ...]]:
    """Ascending integer coefficients in z of m! * t_m, m = 0..L, where 2y - M + 1 = a + b z."""
    one = np.zeros(L + 1, dtype=object)
    one[0] = 1
    rows = _gram_numerators(M, L, one, lambda v: a * v + b * np.concatenate(([0], v[:-1])))
    return [tuple(row[:m + 1]) for m, row in enumerate(rows)]


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
    norms: tuple[Fraction, ...]

    @property
    def coeffs(self) -> list[list[Fraction]]:
        """Exact rational coefficient vectors of t_0..t_L (ascending)."""
        return [
            [Fraction(c, factorial(m)) for c in num]
            for m, num in enumerate(self.numerators)
        ]

    def eval_exact(self, m: int, x) -> Fraction:
        """t_m(x) for integer or rational x, exactly."""
        acc = 0 if isinstance(x, int) else Fraction(0)
        for c in reversed(self.numerators[m]):
            acc = acc * x + c
        if isinstance(acc, int):
            return Fraction(acc, factorial(m))
        return acc / factorial(m)


def chebyshev_basis(M: int, L: int) -> ChebyshevBasis:
    """Build t_0..t_L for the M-node basis; requires L <= M-1."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if L < 0 or L >= M:
        raise ValueError(f"basis requires 0 <= L <= M-1, got L={L}, M={M}")
    numerators = _gram_coefficients(M, L, 1 - M, 2)
    norms = [chebyshev_norm(M, m) for m in range(L + 1)]
    return ChebyshevBasis(M, L, tuple(numerators), tuple(norms))


def orthonormality_deviation(M: int, L: int) -> float:
    """max_{i,j <= L} |<phi_i, phi_j> - delta_ij| under the node inner product.

    phi_m(i/M) = t_m(i-1)/sqrt(c(M,m)) for i in [M].  The node values are exact
    and rounded once, so the float inner products are accurate to a few ulps
    despite the huge alternating coefficients.
    """
    if L < 0 or L >= M:
        raise ValueError(f"need 0 <= L <= M-1, got L={L}, M={M}")
    x = np.arange(1 - M, M, 2, dtype=object)  # 2y - M + 1 at y = 0..M-1
    rows = _gram_numerators(M, L, np.ones(M, dtype=object), lambda v: x * v)
    v = np.empty((L + 1, M))
    for m, row in enumerate(rows):
        v[m] = row / factorial(m) / math.sqrt(float(chebyshev_norm(M, m)))
    gram = v @ v.T
    return float(np.max(np.abs(gram - np.eye(L + 1))))


# -- closed-form least squares ------------------------------------------------

def t_at_minus_one(M: int, m: int) -> int:
    """t_m(-1) = (-1)^m * (M+1)(M+2)...(M+m)."""
    v = 1
    for j in range(1, m + 1):
        v *= M + j
    return -v if m % 2 else v


def phi_norm_sq(M: int, L: int) -> Fraction:
    """||phi(0)||^2 = sum_m t_m(-1)^2 / c(M,m), exactly."""
    if L < 0 or L >= M:
        raise ValueError(f"need 0 <= L <= M-1, got L={L}, M={M}")
    total = Fraction(0)
    for m in range(L + 1):
        tm = t_at_minus_one(M, m)
        total += Fraction(tm * tm, 1) / chebyshev_norm(M, m)
    return total


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


# -- coefficient vectors -------------------------------------------------------

def _float_hex(values) -> str:
    if values is None:
        return "-"
    return ",".join(float(v).hex() for v in values)


class ParameterizationError(ValueError):
    """The requested (k, n, L, M) has no usable coefficients: they lie past
    float range or past the 128-node cap of the exact Stirling table, or the
    vector was never bound to (k, n)."""


@dataclass(frozen=True)
class CoefficientVector:
    """Estimator coefficients u_1..u_L and polynomial coefficients w_1..w_L.

    The two are linked by u_j = w_j * j! * (k/(nM))^j once sample parameters
    (k, n) are bound; ``u`` is None until then.  ``w_exact`` retains the exact
    rationals when the build path produced them.
    """

    kind: str  # "l2" or "interpolation"
    L: int
    M: int
    w: tuple[float, ...]
    u: tuple[float, ...] | None = None
    k: int | None = None
    n: int | None = None
    w_exact: tuple[Fraction, ...] | None = None

    @property
    def digest(self) -> str:
        payload = "|".join([
            self.kind, str(self.L), str(self.M), str(self.k), str(self.n),
            _float_hex(self.w), _float_hex(self.u),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def with_sample_params(self, k: int, n: int) -> "CoefficientVector":
        """Bind (k, n) and fill u from w."""
        u = w_to_u(self.w, k, n, self.M)
        return replace(self, k=k, n=n, u=tuple(u))


def solve_l2(M: int, L: int) -> CoefficientVector:
    """Minimize ||Bw - 1||_2 by projection in the orthonormal basis.

    Works in exact rationals throughout: the optimum is
    -(1/S) sum_m [t_m(-1)/c(M,m)] t_m(Mx - 1) with S = ||phi(0)||^2, whose
    constant coefficient is exactly -1, leaving w_1..w_L.  The normal
    equations are deliberately avoided: the Gram matrix is Hilbert-like and
    ill-conditioned.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if M <= L:
        raise ValueError(f"need M >= L+1, got M={M}, L={L}")
    S = phi_norm_sq(M, L)
    coeffs = [Fraction(0)] * (L + 1)
    # 2y - M + 1 at y = Mx - 1 is -(M+1) + 2M x: coefficients of m! t_m(Mx - 1) in x
    for m, composed in enumerate(_gram_coefficients(M, L, -M - 1, 2 * M)):
        scale = Fraction(-t_at_minus_one(M, m)) / (S * chebyshev_norm(M, m) * factorial(m))
        for j, cj in enumerate(composed):
            coeffs[j] += scale * cj
    if coeffs[0] != -1:
        raise AssertionError(f"projection lost the constraint at (M={M}, L={L})")
    w_exact = tuple(coeffs[1:])
    return CoefficientVector(
        kind="l2", L=L, M=M,
        w=tuple(float(c) for c in w_exact),
        w_exact=w_exact,
    )


def poly_value_exact(w_exact, a: int, M: int) -> Fraction:
    """p(a/M) = sum_j w_j (a/M)^j with exact rational w, by Horner's rule."""
    x = Fraction(a, M)
    acc = Fraction(0)
    for wj in reversed(w_exact):
        acc = (acc + wj) * x
    return acc


def l2_residual_sq_exact(w_exact, M: int) -> Fraction:
    """sum_{a in [M]} (p(a/M) - 1)^2 with exact rational w."""
    total = Fraction(0)
    for a in range(1, M + 1):
        total += (poly_value_exact(w_exact, a, M) - 1) ** 2
    return total


def w_to_u(w, k: int, n: int, M: int) -> tuple[float, ...]:
    """u_j = w_j * j! * (k/(nM))^j, elementwise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1 or M < 1:
        raise ValueError("k and M must be >= 1")
    ratio = Fraction(k, n * M)
    out = []
    for j, wj in enumerate(w, start=1):
        out.append(float(wj) * float(ratio**j * factorial(j)))
    return tuple(out)

