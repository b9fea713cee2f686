"""Signed Stirling numbers of the first kind and interpolation coefficients.

s(n, m) are the coefficients of the falling factorial
x(x-1)...(x-n+1) = sum_m s(n, m) x^m, built exactly by the recurrence
s(n+1, m) = s(n, m-1) - n s(n, m).  The table is capped at n = 128: log-space
recurrences are useless here (subtraction destroys log representations) and
desk-scale degrees never get near the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .orthopoly import CoefficientVector, ParameterizationError
from .rng import LOG_FLOAT_LIMIT

MAX_TABLE_N = 128

_rows: list[list[int]] = [[1]]


def _ensure_rows(n: int) -> None:
    while len(_rows) <= n:
        nn = len(_rows) - 1
        prev = _rows[-1]
        row = [0] * (nn + 2)
        for m in range(1, nn + 2):
            above = prev[m] if m <= nn else 0
            row[m] = prev[m - 1] - nn * above
        _rows.append(row)


def stirling_first(n: int, m: int) -> int:
    """Exact s(n, m); returns 0 for m > n by convention."""
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if n > MAX_TABLE_N:
        raise ValueError(f"exact table capped at n = {MAX_TABLE_N}, got {n}")
    if m > n:
        return 0
    _ensure_rows(n)
    return _rows[n][m]


def interp_coeffs(M: int, k: int, n: int) -> CoefficientVector:
    """Coefficients that interpolate exactly through all M node values.

    w_j = (-1)^(M+1) M^j s(M+1, j+1) / M! is kept exactly, so the induced
    polynomial satisfies p(a/M) = 1 for every a in [M] in the retained
    rationals.  u_j = (-1)^(M+1) (j!/M!) (k/n)^j s(M+1, j+1) is rounded from
    its logarithm, lgamma(j+1) - lgamma(M+1) + j log(k/n) + log|s(M+1, j+1)|.
    Raises ParameterizationError when M reaches the 128-node cap of the
    Stirling table or any u_j lies past float range.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    if M >= MAX_TABLE_N:  # the coefficients need s(M+1, .)
        raise ParameterizationError(
            f"interpolation at k={k}, n={n} needs M={M} nodes, "
            f"past the {MAX_TABLE_N}-node cap of the exact Stirling table "
            f"(M <= {MAX_TABLE_N - 1})"
        )
    front = 1 if M % 2 else -1  # (-1)^(M+1)
    log_kn = math.log(k) - math.log(n)
    log_mfact = math.lgamma(M + 1)
    mfact = factorial(M)
    u, w_exact = [], []
    for j in range(1, M + 1):
        s = front * stirling_first(M + 1, j + 1)
        log_u = math.lgamma(j + 1) - log_mfact + j * log_kn + math.log(abs(s))
        if log_u > LOG_FLOAT_LIMIT:
            raise ParameterizationError(
                f"interpolation coefficients overflow at k={k}, n={n}, "
                f"M={M}; use the l2 regime (n <= eta*k) instead"
            )
        u.append(math.exp(log_u) if s > 0 else -math.exp(log_u))
        w_exact.append(Fraction(M**j * s, mfact))
    # float w from the exact rationals: the node identity p(a/M) = 1 is
    # conditioned like binom(2M, M), so w needs full double precision.
    return CoefficientVector(
        kind="interpolation", L=M, M=M, k=k, n=n,
        w=tuple(float(wj) for wj in w_exact), u=tuple(u), w_exact=tuple(w_exact),
    )


@dataclass(frozen=True)
class StirlingBoundRow:
    """Empirical growth constant of |s(n+1, m+1)| against n! ((1/m) log(n/m))^m."""

    n: int
    m: int
    abs_s_over_nfact: float
    c: float


def stirling_bound_report(n: int, m: int) -> StirlingBoundRow:
    """c(n, m) = (|s(n+1,m+1)|/n!)^(1/m) * m / max(1, log(n/m)).

    Reported, never asserted: the growth rate hides unspecified constants.
    """
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    ratio = Fraction(abs(stirling_first(n + 1, m + 1)), factorial(n))
    ratio_f = float(ratio)
    c = ratio_f ** (1.0 / m) * m / max(1.0, math.log(n / m))
    return StirlingBoundRow(n, m, ratio_f, c)
