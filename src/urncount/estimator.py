"""Parameter selection, coefficient vectors, estimate assembly, and the
exact bias oracle.

The estimate is the seen-color count plus a linear correction over the first
L fingerprints.  Coefficients come from either the closed-form least-squares
solve (undersampled regime) or node interpolation via Stirling numbers
(oversampled regime); the naive count is the vector with L = 0.  The raw
value is clamped into [c_seen, k], which never hurts.  This module is the
only one that builds coefficient vectors and binds them to (k, n); the
estimate and the bias oracle read k and n from the vector they are given.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

import numpy as np

from .fingerprint import Fingerprint
from .orthopoly import poly_numerators, solve_l2
from .rng import LOG_FLOAT_LIMIT, check_int
from .stirling import MAX_TABLE_N, stirling_first
from .urn import UrnSpec

ALPHA = 0.5
BETA = 2.0
INTERPOLATION_BETA = 3.5

REGIME_L2 = "l2"
REGIME_INTERPOLATION = "interpolation"


@dataclass(frozen=True)
class EstimatorParams:
    k: int
    n: int
    L: int
    M: int
    regime: str

    def __post_init__(self):
        check_int(self.k, "k", 2)
        check_int(self.n, "n", 1)
        check_int(self.L, "L", 1)
        check_int(self.M, "M", 1)
        if self.regime == REGIME_L2:
            if self.M < self.L + 1:
                raise ValueError("l2 regime requires M >= L+1")
        elif self.regime == REGIME_INTERPOLATION:
            if self.L != self.M:
                raise ValueError("interpolation regime requires L = M")
        else:
            raise ValueError(f"unknown regime {self.regime!r}")


@dataclass(frozen=True)
class EstimateResult:
    c_hat: int
    c_tilde: float
    c_seen: int
    coeffs_digest: str


def select_params(k: int, n: int, *, regime: str | None = None) -> EstimatorParams:
    """Pick degree L, node count M, and regime for the sample size at hand.

    Oversampling (n > k, compared as integers) switches to interpolation with
    L = M = ceil(3.5 (k/n) ln k); otherwise L = ceil(0.5 ln k) and
    M = ceil(2 k ln k / n), raised to L+1 if needed.  ``regime`` forces one
    of the two rules at any n.  k and n are ints, k >= 2 and n >= 1.
    """
    check_int(k, "k", 2)
    check_int(n, "n", 1)
    if regime not in (None, REGIME_L2, REGIME_INTERPOLATION):
        raise ValueError(f"unknown regime {regime!r}")
    logk = math.log(k)
    try:
        if regime == REGIME_INTERPOLATION or (regime is None and n > k):
            size = max(1, math.ceil(INTERPOLATION_BETA * (k / n) * logk))
            return EstimatorParams(k, n, size, size, REGIME_INTERPOLATION)
        L = max(1, math.ceil(ALPHA * logk))
        M = max(L + 1, math.ceil(BETA * k * logk / n))
    except OverflowError:  # k, or the rule's value, past the float range
        raise ValueError(f"k of {k.bit_length()} bits with n of {n.bit_length()} bits "
                         "puts L or M past the float range") from None
    return EstimatorParams(k, n, L, M, REGIME_L2)


class ParameterizationError(ValueError):
    """The requested (k, n, L, M) has no usable coefficients: they lie past
    float range or past the 128-node cap of the exact Stirling table."""


@dataclass(frozen=True)
class CoefficientVector:
    """Estimator coefficients u_1..u_L bound to the sample parameters (k, n),
    and the exact polynomial coefficients w_1..w_L they come from:
    u_j = w_j * j! * (k/(nM))^j.  ``kind`` is "naive" (L = 0), "l2" or
    "interpolation"; the degree L is ``len(u)``."""

    kind: str
    M: int
    k: int
    n: int
    w_exact: tuple[Fraction, ...]
    u: tuple[float, ...]

    @property
    def L(self) -> int:
        return len(self.u)

    @cached_property
    def w(self) -> tuple[float, ...]:
        """``w_exact``, each rounded once to the nearest double."""
        return tuple(float(wj) for wj in self.w_exact)

    @cached_property
    def digest(self) -> str:
        hexes = [",".join(v.hex() for v in values) for values in (self.w, self.u)]
        payload = "|".join([self.kind, str(self.L), str(self.M), str(self.k), str(self.n), *hexes])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def w_to_u(w, k: int, n: int, M: int) -> tuple[float, ...]:
    """u_j = w_j * j! * (k/(nM))^j, elementwise, for ints k, n, M >= 1."""
    ratio = Fraction(check_int(k, "k", 1), check_int(n, "n", 1) * check_int(M, "M", 1))
    return tuple(float(wj) * float(ratio**j * factorial(j)) for j, wj in enumerate(w, start=1))


def interp_coeffs(M: int, k: int, n: int) -> CoefficientVector:
    """Coefficients that interpolate exactly through all M node values.

    w_j = (-1)^(M+1) M^j s(M+1, j+1) / M! is kept exactly, so the induced
    polynomial satisfies p(a/M) = 1 for every a in [M] in the retained
    rationals.  u_j = (-1)^(M+1) (j!/M!) (k/n)^j s(M+1, j+1) is rounded from
    its logarithm, lgamma(j+1) - lgamma(M+1) + j log(k/n) + log|s(M+1, j+1)|.
    M, k and n are ints >= 1.  Raises ParameterizationError when M reaches
    the 128-node cap of the Stirling table or any u_j lies past float range.
    """
    check_int(k, "k", 1)
    check_int(n, "n", 1)
    if check_int(M, "M", 1) >= MAX_TABLE_N:  # the coefficients need s(M+1, .)
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
                f"M={M}; use the l2 regime (n <= k) instead"
            )
        u.append(math.exp(log_u) if s > 0 else -math.exp(log_u))
        w_exact.append(Fraction(M**j * s, mfact))
    return CoefficientVector(REGIME_INTERPOLATION, M, k, n, tuple(w_exact), tuple(u))


COEFF_CACHE_SIZE = 256


@lru_cache(maxsize=COEFF_CACHE_SIZE)
def build_estimator(params: EstimatorParams) -> CoefficientVector:
    """Coefficient vector for the given parameters, from a bounded LRU cache
    keyed by the frozen params (k, n, L, M, regime);
    ``build_estimator.cache_info()`` counts hits and misses."""
    if params.regime == REGIME_L2:
        w_exact = solve_l2(params.M, params.L)
        u = w_to_u(w_exact, params.k, params.n, params.M)
        return CoefficientVector(REGIME_L2, params.M, params.k, params.n, w_exact, u)
    return interp_coeffs(params.M, params.k, params.n)


def naive_coefficients(k: int, n: int) -> CoefficientVector:
    """The all-zero correction (L = 0): the estimate is the seen count."""
    return CoefficientVector("naive", 1, check_int(k, "k", 1), check_int(n, "n", 1), (), ())


def estimate(fp: Fingerprint, coeffs: CoefficientVector) -> EstimateResult:
    """c_tilde = c_seen + sum_j u_j phi_j, clamped into [c_seen, k] and rounded
    to the nearest integer (ties to even), with k the urn size ``coeffs`` was
    built for.  A fingerprint with c_seen > k cannot come from a k-ball urn
    and is rejected."""
    if fp.c_seen == 0:
        raise ValueError("empty fingerprint: zero samples carry no information")
    if fp.c_seen > coeffs.k:
        raise ValueError(f"c_seen = {fp.c_seen} colors were seen, more than k = {coeffs.k} balls")
    correction = 0.0
    for j, cnt in sorted(fp.phi.items()):  # fixed order: reproducible float sums
        if 1 <= j <= coeffs.L:
            correction += coeffs.u[j - 1] * cnt
    c_tilde = fp.c_seen + correction
    c_hat = int(round(min(max(c_tilde, float(fp.c_seen)), float(coeffs.k))))
    return EstimateResult(c_hat, c_tilde, fp.c_seen, coeffs.digest)


def _poly_value_float(w, a: int, M: int) -> float:
    """p(a/M) = sum_j w_j (a/M)^j in floating point."""
    x = a / M
    acc = 0.0
    for wj in reversed(w):
        acc = (acc + wj) * x
    return acc


def exact_bias(urn: UrnSpec, coeffs: CoefficientVector, *, exact: bool = False) -> float:
    """E[c_tilde] - C under Poisson sampling at the sample size n that
    ``coeffs`` was built for, as a finite sum over colors.

    Equals sum_i exp(-n p_i) (p(k_i/M) - 1): the correction is a degree-L
    polynomial identity in each color's multiplicity, so no truncation is
    involved, but only for an urn of the size k that ``coeffs`` was built
    for.  With ``exact=True`` the polynomial part is evaluated in rationals,
    so an interpolating vector yields literally 0.0.
    """
    if coeffs.k != urn.k:
        raise ValueError(f"coefficients were built for k={coeffs.k}, not k={urn.k}")
    values, _, bounds = urn.mult_groups
    mults = values.tolist()
    if exact:
        nums, den = poly_numerators(coeffs.w_exact, mults, coeffs.M)
        gaps = [(num - den) / den for num in nums]  # one rounding, as float(Fraction) does
    else:
        gaps = [_poly_value_float(coeffs.w, a, coeffs.M) - 1.0 for a in mults]
    total = 0.0
    for mult, count, gap in zip(mults, np.diff(bounds).tolist(), gaps):
        if gap:
            total += count * math.exp(-coeffs.n * mult / urn.k) * gap
    return total

