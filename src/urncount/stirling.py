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

from .orthopoly import CoefficientVector
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


@dataclass(frozen=True)
class LogMagnitude:
    """Sign plus natural log of absolute value; overflow-safe multiplication."""

    sign: int  # -1, 0, +1
    log_abs: float  # -inf for zero

    @classmethod
    def from_int(cls, v: int) -> "LogMagnitude":
        if v == 0:
            return cls(0, -math.inf)
        return cls(1 if v > 0 else -1, math.log(abs(v)))

    def __mul__(self, other: "LogMagnitude") -> "LogMagnitude":
        s = self.sign * other.sign
        if s == 0:
            return LogMagnitude(0, -math.inf)
        return LogMagnitude(s, self.log_abs + other.log_abs)

    @property
    def overflows(self) -> bool:
        return self.log_abs > LOG_FLOAT_LIMIT

    def to_float(self) -> float:
        if self.overflows:
            raise OverflowError(f"log magnitude {self.log_abs:.1f} exceeds float range")
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)


def interp_coeffs(M: int, k: int, n: int) -> CoefficientVector:
    """Coefficients that interpolate exactly through all M node values.

    u_j = (-1)^(M+1) (j!/M!) (k/n)^j s(M+1, j+1), assembled in log-magnitude
    arithmetic and converted to floats; the induced polynomial satisfies
    p(a/M) = 1 for every a in [M] (exactly so in the retained rationals).
    If any u_j would overflow the float range the vector is returned flagged,
    with the log-magnitude coefficients in place of floats.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    front = 1 if M % 2 else -1  # (-1)^(M+1)
    log_kn = math.log(k) - math.log(n)
    log_mfact = math.lgamma(M + 1)
    u_log = []
    for j in range(1, M + 1):
        s = stirling_first(M + 1, j + 1)
        mag = LogMagnitude.from_int(s)
        u_log.append(LogMagnitude(
            front * mag.sign,
            math.lgamma(j + 1) - log_mfact + j * log_kn + mag.log_abs,
        ))
    mfact = factorial(M)
    w_exact = tuple(
        Fraction(front * M**j * stirling_first(M + 1, j + 1), mfact)
        for j in range(1, M + 1)
    )
    if any(term.overflows for term in u_log):
        return CoefficientVector(
            kind="interpolation", L=M, M=M, k=k, n=n,
            w=None, u=None, w_exact=w_exact, u_log=tuple(u_log), overflow=True,
        )
    u = tuple(term.to_float() for term in u_log)
    # float w from the exact rationals: the node identity p(a/M) = 1 is
    # conditioned like binom(2M, M), so w needs full double precision.
    w = tuple(float(wj) for wj in w_exact)
    return CoefficientVector(
        kind="interpolation", L=M, M=M, k=k, n=n,
        w=w, u=u, w_exact=w_exact, u_log=tuple(u_log),
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
