"""Signed Stirling numbers of the first kind, exactly.

s(n, m) are the coefficients of the falling factorial
x(x-1)...(x-n+1) = sum_m s(n, m) x^m, built exactly by the recurrence
s(n+1, m) = s(n, m-1) - n s(n, m).  The table is capped at n = 128: log-space
recurrences are useless here (subtraction destroys log representations) and
desk-scale degrees never get near the cap.
"""

from __future__ import annotations

import math
from functools import cache
from math import factorial

MAX_TABLE_N = 128


@cache
def stirling_row(n: int) -> tuple[int, ...]:
    """Exact s(n, 0), ..., s(n, n), built from row n - 1 and kept.

    The cache is the table: threads that meet a missing row each build it
    from the same rows, so no half-built table is ever read."""
    if n < 0:
        raise ValueError("indices must be nonnegative")
    if n > MAX_TABLE_N:
        raise ValueError(f"exact table capped at n = {MAX_TABLE_N}, got {n}")
    if n == 0:
        return (1,)
    prev = stirling_row(n - 1) + (0,)
    return (0, *(prev[m - 1] - (n - 1) * prev[m] for m in range(1, n + 1)))


def stirling_first(n: int, m: int) -> int:
    """Exact s(n, m); returns 0 for m > n by convention."""
    if m < 0:
        raise ValueError("indices must be nonnegative")
    row = stirling_row(n)
    return row[m] if m <= n else 0


def stirling_bound_report(n: int, m: int) -> tuple[float, float]:
    """(|s(n+1,m+1)|/n!, c(n, m)): the empirical growth constant
    c(n, m) = (|s(n+1,m+1)|/n!)^(1/m) * m / max(1, log(n/m)) of |s(n+1, m+1)|
    against n! ((1/m) log(n/m))^m.

    Reported, never asserted: the growth rate hides unspecified constants.
    """
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    # int / int is correctly rounded: the float nearest the exact ratio
    ratio_f = abs(stirling_first(n + 1, m + 1)) / factorial(n)
    c = ratio_f ** (1.0 / m) * m / max(1.0, math.log(n / m))
    return ratio_f, c
