"""Discrete Chebyshev (Gram) polynomials and the closed-form least squares.

The polynomials t_0, ..., t_{M-1} are orthogonal under the counting measure
on {0, ..., M-1}; t_m is the m-th forward difference of
p_m(x) = x(x-1)...(x-m+1) * (x-M)(x-M-1)...(x-M-m+1), divided by m!.
All coefficient arithmetic is exact (big integers over the common denominator
m!, rationals at the interface); floating point appears only at the boundary,
because the coefficients and norms overflow 64-bit integers almost
immediately and the verification identities demand exactness.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .stirling import LogMagnitude


# -- exact integer polynomial helpers (ascending coefficient lists) ----------

def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_shift_one(c: list[int]) -> list[int]:
    """Coefficients of p(x+1) from those of p(x)."""
    n = len(c)
    out = [0] * n
    for i, ci in enumerate(c):
        if ci:
            for j in range(i + 1):
                out[j] += ci * comb(i, j)
    return out


def _forward_diff(c: list[int]) -> list[int]:
    shifted = _poly_shift_one(c)
    out = [s - ci for s, ci in zip(shifted, c)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _pm_coeffs(m: int, M: int) -> list[int]:
    poly = [1]
    for i in range(m):
        poly = _poly_mul(poly, [-i, 1])
    for i in range(m):
        poly = _poly_mul(poly, [-(M + i), 1])
    return poly


def _pm_values(m: int, M: int, x_hi: int) -> list[int]:
    """p_m evaluated at the integers 0..x_hi, exactly."""
    vals = []
    for x in range(x_hi + 1):
        v = 1
        for i in range(m):
            v *= x - i
        for i in range(m):
            v *= x - M - i
        vals.append(v)
    return vals


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
    numerators = []
    norms = []
    for m in range(L + 1):
        c = _pm_coeffs(m, M)
        for _ in range(m):
            c = _forward_diff(c)
        if len(c) != m + 1:
            raise AssertionError(f"t_{m} degree mismatch for M={M}")
        numerators.append(tuple(c))
        norms.append(chebyshev_norm(M, m))
    return ChebyshevBasis(M, L, tuple(numerators), tuple(norms))


def _t_value_table(M: int, m: int) -> list[int]:
    """m! * t_m at x = 0..M-1 via an exact difference table of p_m values."""
    vals = _pm_values(m, M, M - 1 + m)
    for _ in range(m):
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return vals[:M]


def orthonormal_value_matrix(M: int, L: int) -> np.ndarray:
    """phi_m(i/M) = t_m(i-1)/sqrt(c(M,m)) for m <= L, i in [M].

    Values are computed exactly and rounded once, so the float inner products
    below are accurate to a few ulps despite the huge alternating coefficients.
    """
    if L < 0 or L >= M:
        raise ValueError(f"need 0 <= L <= M-1, got L={L}, M={M}")
    rows = []
    for m in range(L + 1):
        fm = factorial(m)
        scale = math.sqrt(float(chebyshev_norm(M, m)))
        rows.append([(v / fm) / scale for v in _t_value_table(M, m)])
    return np.array(rows)


def orthonormality_deviation(M: int, L: int) -> float:
    """max_{i,j <= L} |<phi_i, phi_j> - delta_ij| under the node inner product."""
    v = orthonormal_value_matrix(M, L)
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


def phi_at_zero(M: int, L: int) -> tuple[list[float], Fraction]:
    """(phi_0(0), ..., phi_L(0)) as floats, plus ||phi(0)||^2 as an exact rational.

    phi_m(0) = (-1)^m sqrt((2m+1)/M * prod_{j<=m} (M+j)/(M-j)).
    """
    if L < 0 or L >= M:
        raise ValueError(f"need 0 <= L <= M-1, got L={L}, M={M}")
    values = []
    norm_sq = Fraction(0)
    for m in range(L + 1):
        sq = Fraction(2 * m + 1, M)
        for j in range(1, m + 1):
            sq *= Fraction(M + j, M - j)
        norm_sq += sq
        mag = math.sqrt(float(sq))
        values.append(-mag if m % 2 else mag)
    return values, norm_sq


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


@dataclass(frozen=True)
class CoefficientVector:
    """Estimator coefficients u_1..u_L and polynomial coefficients w_1..w_L.

    The two are linked by u_j = w_j * j! * (k/(nM))^j once sample parameters
    (k, n) are bound.  ``w_exact`` retains the exact rationals when the build
    path produced them; ``u_log`` carries log-magnitude coefficients when the
    float conversion would overflow (``overflow`` is then set and ``u`` is
    None rather than a silent infinity).
    """

    kind: str  # "l2" or "interpolation"
    L: int
    M: int
    w: tuple[float, ...] | None
    u: tuple[float, ...] | None = None
    k: int | None = None
    n: int | None = None
    w_exact: tuple[Fraction, ...] | None = None
    u_log: tuple["LogMagnitude", ...] | None = None
    overflow: bool = False

    @property
    def digest(self) -> str:
        payload = "|".join([
            self.kind, str(self.L), str(self.M), str(self.k), str(self.n),
            _float_hex(self.w), _float_hex(self.u),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def with_sample_params(self, k: int, n: int) -> "CoefficientVector":
        """Bind (k, n) and fill u from w."""
        if self.w is None:
            raise ValueError("cannot bind sample parameters without w")
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
    basis = chebyshev_basis(M, L)
    S = phi_norm_sq(M, L)
    coeffs = [Fraction(0)] * (L + 1)
    for m in range(L + 1):
        q = basis.numerators[m]
        # integer coefficients of q(Mx - 1)
        composed = [0] * len(q)
        for j in range(len(q)):
            acc = 0
            for i in range(j, len(q)):
                term = q[i] * comb(i, j)
                acc += -term if (i - j) % 2 else term
            composed[j] = acc * M**j
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


def l2_residual_sq_exact(w_exact, M: int) -> Fraction:
    """sum_{a in [M]} (p(a/M) - 1)^2 with exact rational w."""
    total = Fraction(0)
    for a in range(1, M + 1):
        x = Fraction(a, M)
        acc = Fraction(0)
        for wj in reversed(w_exact):
            acc = (acc + wj) * x
        total += (acc - 1) ** 2
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


def u_to_w(u, k: int, n: int, M: int) -> tuple[float, ...]:
    """Inverse of w_to_u: w_j = u_j * (nM/k)^j / j!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1 or M < 1:
        raise ValueError("k and M must be >= 1")
    ratio = Fraction(n * M, k)
    out = []
    for j, uj in enumerate(u, start=1):
        out.append(float(uj) * float(ratio**j / factorial(j)))
    return tuple(out)
