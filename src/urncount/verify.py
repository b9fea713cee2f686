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

import numpy as np

from .estimator import interp_coeffs, select_params
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
from .vandermonde import (
    build_matrix,
    certify_sigma_min_bounds,
    power_sum_table,
    sigma_min,
    sigma_min_bound,
    tm_modulus_check,
)

SPECTRAL_L_MAX = 12
SPECTRAL_M_MAX = 64
FLOAT_CHECK_L_MAX = 8  # past this degree, float comparisons need a conditioning gate
FLOAT_FLOOR = 1e-12  # never assert on sigma_min below this fraction of sigma_max


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
    lines = ["M,L,sigma_min,bound,ratio"]
    # each degree's node matrices are the leading columns of the degree-12 one
    full = {M: build_matrix(M, SPECTRAL_L_MAX) for M in range(2, SPECTRAL_M_MAX + 1)}
    extra_col_holds = True
    unasserted = []
    worst_bound = (math.inf, 0, 0)  # (sigma_min / bound, M, L)
    for L in range(1, SPECTRAL_L_MAX + 1):
        for M in range(L + 1, SPECTRAL_M_MAX + 1):
            bar = full[M][:, :L + 1] / math.sqrt(M)
            sv = np.linalg.svd(bar, compute_uv=False)  # one SVD gives sigma_max and sigma_min
            s_bar = float(sv[-1])
            bnd = sigma_min_bound(M, L)
            worst_bound = min(worst_bound, (s_bar / bnd, M, L))
            s_plain = sigma_min(full[M][:, 1:L + 1])
            if L > FLOAT_CHECK_L_MAX and s_bar <= FLOAT_FLOOR * sv[0]:
                unasserted.append(f"(M={M}, L={L}): sigma_min(B)={s_plain!r}, "
                                  f"sigma_min(Bbar)={s_bar * math.sqrt(M)!r}")
            elif s_plain < s_bar * math.sqrt(M) * (1 - 1e-9):
                extra_col_holds = False
            lines.append(f"{M},{L},{s_bar!r},{bnd!r},{s_bar / bnd!r}")
    sums = power_sum_table(SPECTRAL_M_MAX, 2 * SPECTRAL_L_MAX)
    certified = all(certify_sigma_min_bounds(M, min(SPECTRAL_L_MAX, M - 1), sums[M]) for M in full)
    certificate = _check(lines, f"sigma_min(Bbar/sqrt(M)) > bound on grid (L<={SPECTRAL_L_MAX}, "
                                f"M<={SPECTRAL_M_MAX}), exact certificate", certified)
    lines.append(f"smallest sigma_min/bound {worst_bound[0]:.3e} at (M={worst_bound[1]}, "
                 f"L={worst_bound[2]}) (reported)")
    extra_col = _check(lines, "sigma_min(B) >= sigma_min(Bbar) on grid", extra_col_holds)
    for cell in unasserted:
        lines.append(f"sigma_min(Bbar) <= {FLOAT_FLOOR:g} sigma_max at {cell} (reported, not asserted)")

    bases = (chebyshev_basis(M, min(8, M - 1)) for M in range(2, 33))
    worst = max((report for b in bases for report in tm_modulus_check(b, 64)),
                key=lambda report: report.worst_ratio)
    modulus = _check(lines, f"t_m modulus bound (M<=32, m<=8): worst ratio {worst.worst_ratio:.3e} "
                            f"at (M={worst.M}, m={worst.m}, z={worst.worst_point:.4g})",
                     worst.worst_ratio <= 1)
    return lines, certificate and extra_col and modulus


def estimator_report() -> tuple[list[str], bool]:
    lines = []
    from .estimator import build_estimator, exact_bias

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
