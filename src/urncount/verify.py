"""Self-check suites behind the `verify` CLI command.

Each suite re-derives an identity two independent ways and compares, or
checks a proven inequality numerically.  Quantities whose constants are not
pinned down anywhere (growth-rate constants, failure exponents) are reported,
never asserted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

from .estimator import build_estimator, exact_bias, interp_coeffs, select_params
from .orthopoly import (
    binomial_ratio_minus_one,
    chebyshev_basis,
    l2_min_value,
    l2_residual_sq_exact,
    orthonormality_deviations,
    phi_norm_sq,
    poly_numerators,
    solve_l2,
)
from .stirling import stirling_bound_report, stirling_first
from .urn import make_uniform_support
from .vandermonde import build_matrix, sigma_min, sigma_min_brackets, tm_modulus_check

SPECTRAL_L_MAX = 12
SPECTRAL_M_MAX = 64


def _check(lines: list[str], text: str, passed: bool) -> bool:
    """Append ``text`` with its verdict, ``[ok]`` or ``[FAIL]``; return ``passed``."""
    lines.append(f"{text} [{'ok' if passed else 'FAIL'}]")
    return passed


def orthopoly_report() -> tuple[list[str], bool]:
    lines = ["M,L,orthonormality_dev,residual_rel_dev,implied_growth_const"]
    # deviations[M][L]: every degree of one M from one set of node rows
    deviations = {M: orthonormality_deviations(M, min(16, M - 1)) for M in range(2, 65)}
    worst_res = 0.0
    worst_orth = 0.0
    theta_lo, theta_hi = math.inf, -math.inf
    identities_hold = True
    for L in range(1, 9):
        for M in range(L + 1, L + 21):
            res = math.sqrt(float(l2_residual_sq_exact(solve_l2(M, L), M)))
            closed = l2_min_value(M, L)
            rel = abs(res - closed) / closed
            worst_res = max(worst_res, rel)
            dev = deviations[M][L]
            worst_orth = max(worst_orth, dev)
            ratio = binomial_ratio_minus_one(M, L)
            # implied constant in the exp(L^2/M)-style growth of the ratio
            theta = math.log(float(ratio + 1)) * M / (L * L)
            theta_lo = min(theta_lo, theta)
            theta_hi = max(theta_hi, theta)
            lines.append(f"{M},{L},{dev!r},{rel!r},{theta!r}")
            # (2L+1)/M prod_j (M+j)/(M-j), on integers with one Fraction
            step_num, step_den = 2 * L + 1, M
            for j in range(1, L + 1):
                step_num, step_den = step_num * (M + j), step_den * (M - j)
            if (ratio - binomial_ratio_minus_one(M, L - 1) != Fraction(step_num, step_den)
                    or phi_norm_sq(M, L) != ratio):
                identities_hold = False
    residual = _check(lines, f"l2 residual vs closed form (L<=8, M<=L+20): worst rel dev "
                             f"{worst_res:.3e}", worst_res <= 1e-9)
    lines.append(f"implied growth constant log(ratio)*M/L^2 in [{theta_lo:.3f}, {theta_hi:.3f}] (reported)")

    worst_orth = max(worst_orth, *(devs[-1] for devs in deviations.values()))
    orthonormal = _check(lines, f"orthonormality (M<=64, L<=16): worst dev {worst_orth:.3e}",
                         worst_orth <= 1e-9)
    identities = _check(lines, "telescoping + norm identities (exact rationals)", identities_hold)
    return lines, residual and orthonormal and identities


def _falling_factorial_coeffs(n: int) -> list[int]:
    """Exact coefficients of x(x-1)...(x-n+1), ascending."""
    poly = [1]
    for i in range(n):
        nxt = [0] * (len(poly) + 1)
        for j, c in enumerate(poly):
            nxt[j + 1] += c
            nxt[j] += -i * c
        poly = nxt
    return poly


def stirling_report() -> tuple[list[str], bool]:
    lines = []
    expansion = _check(lines, "recurrence vs falling-factorial expansion (n<=12)", all(
        _falling_factorial_coeffs(n) == [stirling_first(n, m) for m in range(n + 1)]
        for n in range(13)
    ))
    row_sums = _check(lines, "row sums |s(n,.)| = n! (n<=50)", all(
        sum(abs(stirling_first(n, m)) for m in range(n + 1)) == factorial(n)
        for n in range(51)
    ))
    hits_nodes = True
    for M in range(1, 31):
        vec = interp_coeffs(M, 2, 1)  # node identity does not depend on k/n
        nums, den = poly_numerators(vec.w_exact, range(1, M + 1), M)
        if any(num != den for num in nums):
            hits_nodes = False
    interpolation = _check(lines, "interpolation hits 1 at every node, exact rationals (M<=30)",
                           hits_nodes)

    lines.append("n,m,abs_s_over_nfact,c")
    for n in range(1, 61):
        for m in range(1, n + 1):
            abs_s_over_nfact, c = stirling_bound_report(n, m)
            lines.append(f"{n},{m},{abs_s_over_nfact!r},{c!r}")
    return lines, expansion and row_sums and interpolation


def spectral_report() -> tuple[list[str], bool]:
    lines = ["M,L,sigma_lo,sigma_hi,bound,ratio"]
    certified = True
    worst_bound = (math.inf, 0, 0)  # (sigma_lo / bound, M, L)
    for M in range(2, SPECTRAL_M_MAX + 1):
        brackets = []
        for L, lo, hi, bound, ok in sigma_min_brackets(M, min(SPECTRAL_L_MAX, M - 1)):
            certified = certified and ok
            worst_bound = min(worst_bound, (lo / bound, M, L))
            brackets.append((lo, hi))
            lines.append(f"{M},{L},{lo!r},{hi!r},{bound!r},{lo / bound!r}")
    certificate = _check(lines, f"sigma_min(Bbar/sqrt(M)) > bound on grid (L<={SPECTRAL_L_MAX}, "
                                f"M<={SPECTRAL_M_MAX}), exact certificate", certified)
    lines.append(f"smallest sigma_lo/bound {worst_bound[0]:.3e} at (M={worst_bound[1]}, "
                 f"L={worst_bound[2]}) (reported)")
    # the brackets of the last M against LAPACK on the literal matrix; each
    # degree's matrix is the leading columns of the top degree's
    full = build_matrix(SPECTRAL_M_MAX, SPECTRAL_L_MAX) / math.sqrt(SPECTRAL_M_MAX)
    contains = _check(lines, f"bracket contains LAPACK sigma_min at M={SPECTRAL_M_MAX}, "
                             f"L<={SPECTRAL_L_MAX}", all(
        lo <= sigma_min(full[:, :L + 1]) <= hi for L, (lo, hi) in enumerate(brackets, start=1)))

    bases = (chebyshev_basis(M, min(8, M - 1)) for M in range(2, 33))
    worst = max((report for b in bases for report in tm_modulus_check(b, 64)),
                key=lambda report: report.worst_ratio)
    # the circle's points carry the rounding of a complex exp: its -1 is -1+1.2e-16j
    z = complex(round(worst.worst_point.real, 12), round(worst.worst_point.imag, 12))
    modulus = _check(lines, f"t_m modulus bound (M<=32, m<=8): worst ratio {worst.worst_ratio:.3e} "
                            f"at (M={worst.M}, m={worst.m}, z={z if z.imag else z.real:.4g})",
                     worst.worst_ratio <= 1)
    return lines, certificate and contains and modulus


def estimator_report() -> tuple[list[str], bool]:
    lines = []
    zero_bias = True
    for M in (2, 5, 12, 30):
        for k, n in ((M, 4 * M), (4 * M, 4 * M), (8 * M, 4 * M)):
            coeffs = interp_coeffs(M, k, n)
            c_lo = -(-k // M)
            for C in {c_lo, k}:
                urn = make_uniform_support(k, C)
                if exact_bias(urn, coeffs, exact=True) != 0.0:
                    zero_bias = False
                if abs(exact_bias(urn, coeffs)) > 1e-6 * k:
                    zero_bias = False
    zero = _check(lines, "interpolation zero bias (float and rational)", zero_bias)

    k, n = 10_000, 5_000
    params = select_params(k, n)
    coeffs = build_estimator(params)
    urn = make_uniform_support(k, k)
    bias = exact_bias(urn, coeffs)
    budget = k * math.exp(-n / k) * l2_min_value(params.M, params.L)
    within = _check(lines, f"l2 bias within closed-form budget at (k={k}, n={n}, L={params.L}, "
                           f"M={params.M}): |{bias:.1f}| <= {budget:.1f}",
                    abs(bias) <= budget * (1 + 1e-9))

    for a, b in ((0.5, 2.0), (0.875, 3.5)):
        expo = b - a * math.log(math.e * b / a) - 3.0
        lines.append(f"concentration failure exponent at (alpha={a}, beta={b}): "
                     f"k^({-expo:+.3f}) (reported)")
    return lines, zero and within


SUITES = {
    "orthopoly": orthopoly_report,
    "stirling": stirling_report,
    "spectral": spectral_report,
    "estimator": estimator_report,
}
