"""Parameter selection, estimate assembly, and the exact bias oracle.

The estimate is the seen-color count plus a linear correction over the first
L fingerprints.  Coefficients come from either the closed-form least-squares
solve (undersampled regime) or node interpolation via Stirling numbers
(oversampled regime); the raw value is clamped into [c_seen, k], which never
hurts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .fingerprint import Fingerprint
from .orthopoly import CoefficientVector, solve_l2
from .rng import RngStream
from .stirling import MAX_TABLE_N, interp_coeffs
from .urn import UrnSpec

DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 2.0
DEFAULT_ETA = 1.0
INTERPOLATION_BETA = 3.5

REGIME_L2 = "l2"
REGIME_INTERPOLATION = "interpolation"


class ParameterizationError(ValueError):
    """The requested (k, n, L, M) needs coefficients beyond float range."""


@dataclass(frozen=True)
class EstimatorParams:
    k: int
    n: int
    alpha: float
    beta: float
    eta: float
    L: int
    M: int
    regime: str

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta <= self.alpha:
            raise ValueError("beta must exceed alpha")
        if self.L < 1 or self.M < 1:
            raise ValueError("L and M must be >= 1")
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
    params: EstimatorParams | None
    coeffs_digest: str


def select_params(
    k: int,
    n: int,
    *,
    alpha: float | None = None,
    beta: float | None = None,
    eta: float | None = None,
    regime: str | None = None,
) -> EstimatorParams:
    """Pick degree L, node count M, and regime for the sample size at hand.

    Oversampling (n > eta*k) switches to interpolation with L = M =
    ceil(3.5 (k/n) log k); otherwise L = ceil(alpha log k) and
    M = ceil(beta k log k / n), raised to L+1 if needed.  ``regime`` forces
    one of the two rules at any n.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    if regime not in (None, REGIME_L2, REGIME_INTERPOLATION):
        raise ValueError(f"unknown regime {regime!r}")
    a = DEFAULT_ALPHA if alpha is None else alpha
    e = DEFAULT_ETA if eta is None else eta
    logk = math.log(k)
    if regime == REGIME_INTERPOLATION or (regime is None and n > e * k):
        b = INTERPOLATION_BETA if beta is None else beta
        size = max(1, math.ceil(b * (k / n) * logk))
        return EstimatorParams(k, n, a, b, e, size, size, REGIME_INTERPOLATION)
    b = DEFAULT_BETA if beta is None else beta
    L = max(1, math.ceil(a * logk))
    M = max(L + 1, math.ceil(b * k * logk / n))
    return EstimatorParams(k, n, a, b, e, L, M, REGIME_L2)


COEFF_CACHE_SIZE = 256


def build_estimator(params: EstimatorParams) -> CoefficientVector:
    """Coefficient vector for the given parameters, from a bounded LRU cache
    keyed by (k, n, L, M, regime); ``_coefficients.cache_info()`` counts hits
    and misses."""
    return _coefficients(params.k, params.n, params.L, params.M, params.regime)


@lru_cache(maxsize=COEFF_CACHE_SIZE)
def _coefficients(k: int, n: int, L: int, M: int, regime: str) -> CoefficientVector:
    if regime == REGIME_L2:
        return solve_l2(M, L).with_sample_params(k, n)
    if M >= MAX_TABLE_N:  # the coefficients need s(M+1, .)
        raise ParameterizationError(
            f"interpolation at k={k}, n={n} needs M={M} nodes, "
            f"past the {MAX_TABLE_N}-node cap of the exact Stirling table "
            f"(M <= {MAX_TABLE_N - 1})"
        )
    coeffs = interp_coeffs(M, k, n)
    if coeffs.overflow:
        raise ParameterizationError(
            f"interpolation coefficients overflow at k={k}, n={n}, "
            f"M={M}; use the l2 regime (n <= eta*k) instead"
        )
    return coeffs


def naive_coefficients() -> CoefficientVector:
    """The all-zero correction: the estimate degenerates to the seen count."""
    return CoefficientVector(kind=REGIME_L2, L=0, M=1, w=(), u=(), w_exact=())


def estimate(
    fp: Fingerprint,
    coeffs: CoefficientVector,
    k: int,
    params: EstimatorParams | None = None,
) -> EstimateResult:
    """c_tilde = c_seen + sum_j u_j phi_j, clamped into [c_seen, k] and rounded
    to the nearest integer (ties to even).  A fingerprint with c_seen > k
    cannot come from a k-ball urn and is rejected."""
    if fp.c_seen == 0:
        raise ValueError("empty fingerprint: zero samples carry no information")
    if fp.c_seen > k:
        raise ValueError(f"c_seen = {fp.c_seen} colors were seen, more than k = {k} balls")
    if coeffs.u is None:
        raise ParameterizationError("coefficient vector has no float u (overflow?)")
    if coeffs.k is not None and coeffs.k != k:
        raise ValueError(f"coefficients were built for k={coeffs.k}, not k={k}")
    correction = 0.0
    for j, cnt in sorted(fp.phi.items()):  # fixed order: reproducible float sums
        if 1 <= j <= coeffs.L:
            correction += coeffs.u[j - 1] * cnt
    c_tilde = fp.c_seen + correction
    c_hat = int(round(min(max(c_tilde, float(fp.c_seen)), float(k))))
    return EstimateResult(c_hat, c_tilde, fp.c_seen, params, coeffs.digest)


def _poly_value_float(coeffs: CoefficientVector, a: int) -> float:
    """p(a/M) = sum_j w_j (a/M)^j in floating point."""
    x = a / coeffs.M
    acc = 0.0
    for wj in reversed(coeffs.w):
        acc = (acc + wj) * x
    return acc


def _poly_value_exact(coeffs: CoefficientVector, a: int) -> Fraction:
    x = Fraction(a, coeffs.M)
    acc = Fraction(0)
    for wj in reversed(coeffs.w_exact):
        acc = (acc + wj) * x
    return acc


def exact_bias(urn: UrnSpec, coeffs: CoefficientVector, n: int, *, exact: bool = False) -> float:
    """E[c_tilde] - C under Poisson sampling, as a finite sum over colors.

    Equals sum_i exp(-n p_i) (p(k_i/M) - 1): the correction is a degree-L
    polynomial identity in each color's multiplicity, so no truncation is
    involved.  With ``exact=True`` the polynomial part is evaluated in
    rationals, so an interpolating vector yields literally 0.0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if exact:
        if coeffs.w_exact is None:
            raise ValueError("no exact coefficients retained on this vector")
        poly = _poly_value_exact
        one = Fraction(1)
    else:
        if coeffs.w is None:
            raise ParameterizationError("coefficient vector has no float w (overflow?)")
        poly = _poly_value_float
        one = 1.0
    values, _, bounds = urn.mult_groups
    total = 0.0
    for mult, count in zip(values.tolist(), np.diff(bounds).tolist()):
        gap = poly(coeffs, mult) - one
        if gap == 0:
            continue
        total += count * math.exp(-n * mult / urn.k) * float(gap)
    return total


def variance_diagnostic(coeffs: CoefficientVector, k: int, n: int) -> float:
    """max_{m in [M]} E[u_N^2] for N ~ Poisson(n m / k).

    A diagnostic only; the sum is finite because u vanishes beyond L.
    """
    if coeffs.u is None:
        raise ParameterizationError("coefficient vector has no float u (overflow?)")
    worst = 0.0
    for m in range(1, coeffs.M + 1):
        lam = n * m / k
        acc = 0.0
        for j, uj in enumerate(coeffs.u, start=1):
            if uj != 0.0:
                acc += uj * uj * math.exp(j * math.log(lam) - lam - math.lgamma(j + 1))
        worst = max(worst, acc)
    return worst


def adapt_fixed_to_randomized(
    est: Callable[[Sequence[int]], float], n: int
) -> Callable[[Sequence[int]], float]:
    """Run a fixed-size-n estimator on a randomized-size sample: use the first
    n draws when enough arrived, otherwise output 0."""

    def wrapped(draws: Sequence[int]) -> float:
        if len(draws) >= n:
            return est(list(draws)[:n])
        return 0.0

    return wrapped


def adapt_randomized_to_fixed(
    est: Callable[[Sequence[int]], float],
    n: int,
    sample_size_law: Callable[[RngStream], int],
) -> Callable[[Sequence[int], RngStream], float]:
    """Run a randomized-size estimator on exactly n draws: resample a size m
    from the law, feed the first m draws when m <= n, otherwise output 0."""

    def wrapped(draws: Sequence[int], rng: RngStream) -> float:
        m = sample_size_law(rng)
        if m <= n:
            return est(list(draws)[:m])
        return 0.0

    return wrapped
