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

from .estimator import select_params
from .orthopoly import (
    binomial_ratio_minus_one,
    chebyshev_basis,
    l2_min_value,
    l2_residual_sq_exact,
    orthonormality_deviation,
    phi_norm_sq,
    poly_value_exact,
    solve_l2,
)
from .stirling import interp_coeffs, stirling_bound_report, stirling_first
from .urn import make_uniform_support
from .vandermonde import (
    BoundCheckError,
    build_matrix,
    certify_sigma_min_bound,
    power_sums,
    sigma_min,
    sigma_min_bound,
    tm_modulus_check,
)

SPECTRAL_L_MAX = 12
SPECTRAL_M_MAX = 64
FLOAT_CHECK_L_MAX = 8  # past this degree, float comparisons need a conditioning gate
FLOAT_FLOOR = 1e-12  # never assert on sigma_min below this fraction of sigma_max


def orthopoly_report() -> tuple[list[str], bool]:
    lines = ["M,L,orthonormality_dev,residual_rel_dev,implied_growth_const"]
    ok = True

    worst_res = 0.0
    worst_orth = 0.0
    theta_lo, theta_hi = math.inf, -math.inf
    for L in range(1, 9):
        for M in range(L + 1, L + 21):
            vec = solve_l2(M, L)
            res = math.sqrt(float(l2_residual_sq_exact(vec.w_exact, M)))
            closed = l2_min_value(M, L)
            rel = abs(res - closed) / closed
            worst_res = max(worst_res, rel)
            dev = orthonormality_deviation(M, L)
            worst_orth = max(worst_orth, dev)
            # implied constant in the exp(L^2/M)-style growth of the ratio
            theta = math.log(float(binomial_ratio_minus_one(M, L) + 1)) * M / (L * L)
            theta_lo = min(theta_lo, theta)
            theta_hi = max(theta_hi, theta)
            lines.append(f"{M},{L},{dev!r},{rel!r},{theta!r}")
    if worst_res > 1e-9:
        ok = False
    lines.append(f"l2 residual vs closed form (L<=8, M<=L+20): worst rel dev {worst_res:.3e} "
                 f"[{'ok' if worst_res <= 1e-9 else 'FAIL'}]")
    lines.append(f"implied growth constant log(ratio)*M/L^2 in [{theta_lo:.3f}, {theta_hi:.3f}] (reported)")

    for M in range(2, 65):
        worst_orth = max(worst_orth, orthonormality_deviation(M, min(16, M - 1)))
    if worst_orth > 1e-9:
        ok = False
    lines.append(f"orthonormality (M<=64, L<=16): worst dev {worst_orth:.3e} "
                 f"[{'ok' if worst_orth <= 1e-9 else 'FAIL'}]")

    tel_ok = True
    for L in range(1, 9):
        for M in range(L + 1, L + 21):
            diff = binomial_ratio_minus_one(M, L) - binomial_ratio_minus_one(M, L - 1)
            step = Fraction(2 * L + 1, M)
            for j in range(1, L + 1):
                step *= Fraction(M + j, M - j)
            if diff != step:
                tel_ok = False
            if phi_norm_sq(M, L) != binomial_ratio_minus_one(M, L):
                tel_ok = False
    if not tel_ok:
        ok = False
    lines.append(f"telescoping + norm identities (exact rationals) [{'ok' if tel_ok else 'FAIL'}]")
    return lines, ok


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
    ok = True

    exp_ok = all(
        _falling_factorial_coeffs(n) == [stirling_first(n, m) for m in range(n + 1)]
        for n in range(13)
    )
    row_ok = all(
        sum(abs(stirling_first(n, m)) for m in range(n + 1)) == factorial(n)
        for n in range(51)
    )
    if not (exp_ok and row_ok):
        ok = False
    lines.append(f"recurrence vs falling-factorial expansion (n<=12) [{'ok' if exp_ok else 'FAIL'}]")
    lines.append(f"row sums |s(n,.)| = n! (n<=50) [{'ok' if row_ok else 'FAIL'}]")

    interp_ok = True
    for M in range(1, 31):
        vec = interp_coeffs(M, 2, 1)  # node identity does not depend on k/n
        if any(poly_value_exact(vec.w_exact, a, M) != 1 for a in range(1, M + 1)):
            interp_ok = False
    if not interp_ok:
        ok = False
    lines.append(f"interpolation hits 1 at every node, exact rationals (M<=30) "
                 f"[{'ok' if interp_ok else 'FAIL'}]")

    lines.append("n,m,abs_s_over_nfact,c")
    for n in range(1, 61):
        for m in range(1, n + 1):
            row = stirling_bound_report(n, m)
            lines.append(f"{row.n},{row.m},{row.abs_s_over_nfact!r},{row.c!r}")
    return lines, ok


def spectral_report() -> tuple[list[str], bool]:
    lines = ["M,L,sigma_min,bound,ratio"]
    sums = {M: power_sums(M, 2 * SPECTRAL_L_MAX) for M in range(2, SPECTRAL_M_MAX + 1)}
    bound_ok = True
    extra_col_ok = True
    unasserted = []
    worst_bound = (math.inf, 0, 0)  # (sigma_min / bound, M, L)
    for L in range(1, SPECTRAL_L_MAX + 1):
        for M in range(L + 1, SPECTRAL_M_MAX + 1):
            bar = build_matrix(M, L, with_ones=True) / math.sqrt(M)
            s_bar = sigma_min(bar)
            bnd = sigma_min_bound(M, L)
            if not certify_sigma_min_bound(M, L, s_bar, sums[M]):
                bound_ok = False
            worst_bound = min(worst_bound, (s_bar / bnd, M, L))
            s_plain = sigma_min(build_matrix(M, L, with_ones=False))
            if L > FLOAT_CHECK_L_MAX and s_bar <= FLOAT_FLOOR * np.linalg.norm(bar, 2):
                unasserted.append(f"(M={M}, L={L}): sigma_min(B)={s_plain!r}, "
                                  f"sigma_min(Bbar)={s_bar * math.sqrt(M)!r}")
            elif s_plain < s_bar * math.sqrt(M) * (1 - 1e-9):
                extra_col_ok = False
            lines.append(f"{M},{L},{s_bar!r},{bnd!r},{s_bar / bnd!r}")
    lines.append(f"sigma_min(Bbar/sqrt(M)) > bound on grid (L<={SPECTRAL_L_MAX}, M<={SPECTRAL_M_MAX}), "
                 f"exact certificate [{'ok' if bound_ok else 'FAIL'}]")
    lines.append(f"smallest sigma_min/bound {worst_bound[0]:.3e} at (M={worst_bound[1]}, "
                 f"L={worst_bound[2]}) (reported)")
    lines.append(f"sigma_min(B) >= sigma_min(Bbar) on grid [{'ok' if extra_col_ok else 'FAIL'}]")
    for cell in unasserted:
        lines.append(f"sigma_min(Bbar) <= {FLOAT_FLOOR:g} sigma_max at {cell} (reported, not asserted)")

    tm_ok = True
    worst = None
    try:
        for M in range(2, 33):
            basis = chebyshev_basis(M, min(8, M - 1))
            for m in range(1, basis.L + 1):
                report = tm_modulus_check(M, m, 64, basis=basis)
                if worst is None or report.worst_ratio > worst.worst_ratio:
                    worst = report
    except BoundCheckError as exc:
        tm_ok = False
        lines.append(f"modulus bound FAILURE: {exc}")
    where = "n/a" if worst is None else (
        f"{worst.worst_ratio:.3e} at (M={worst.M}, m={worst.m}, z={worst.worst_point:.4g})")
    lines.append(f"t_m modulus bound (M<=32, m<=8): worst ratio {where} [{'ok' if tm_ok else 'FAIL'}]")
    return lines, bound_ok and extra_col_ok and tm_ok


def estimator_report() -> tuple[list[str], bool]:
    lines = []
    ok = True
    from .estimator import build_estimator, exact_bias

    zero_ok = True
    for M in (2, 5, 12, 30):
        for k, n in ((M, 4 * M), (4 * M, 4 * M), (8 * M, 4 * M)):
            coeffs = interp_coeffs(M, k, n)
            c_lo = -(-k // M)
            for C in {c_lo, k}:
                urn = make_uniform_support(k, C)
                if exact_bias(urn, coeffs, n, exact=True) != 0.0:
                    zero_ok = False
                if abs(exact_bias(urn, coeffs, n)) > 1e-6 * k:
                    zero_ok = False
    if not zero_ok:
        ok = False
    lines.append(f"interpolation zero bias (float and rational) [{'ok' if zero_ok else 'FAIL'}]")

    k, n = 10_000, 5_000
    params = select_params(k, n)
    coeffs = build_estimator(params)
    urn = make_uniform_support(k, k)
    bias = exact_bias(urn, coeffs, n)
    budget = k * math.exp(-n / k) * l2_min_value(params.M, params.L)
    l2_ok = abs(bias) <= budget * (1 + 1e-9)
    if not l2_ok:
        ok = False
    lines.append(
        f"l2 bias within closed-form budget at (k={k}, n={n}, L={params.L}, M={params.M}): "
        f"|{bias:.1f}| <= {budget:.1f} [{'ok' if l2_ok else 'FAIL'}]"
    )

    for a, b in ((0.5, 2.0), (0.875, 3.5)):
        expo = b - a * math.log(math.e * b / a) - 3.0
        lines.append(f"concentration failure exponent at (alpha={a}, beta={b}): "
                     f"k^({-expo:+.3f}) (reported)")
    return lines, ok


SUITES = {
    "orthopoly": orthopoly_report,
    "stirling": stirling_report,
    "spectral": spectral_report,
    "estimator": estimator_report,
}
