"""Distinct-color estimation for k-ball urns from random samples."""

from .estimator import (
    EstimateResult,
    EstimatorParams,
    ParameterizationError,
    adapt_fixed_to_randomized,
    adapt_randomized_to_fixed,
    build_estimator,
    estimate,
    exact_bias,
    naive_coefficients,
    select_params,
    variance_diagnostic,
)
from .fingerprint import (
    Fingerprint,
    fingerprint_from_count_values,
    parse_fingerprint,
    serialize_fingerprint,
)
from .harness import (
    CorrelationRow,
    ExperimentConfig,
    HardPairRow,
    RiskRow,
    correlation_experiment,
    hard_pair_experiment,
    load_experiment_config,
    run_risk_curve,
)
from .orthopoly import (
    ChebyshevBasis,
    CoefficientVector,
    chebyshev_basis,
    l2_min_value,
    orthonormality_deviation,
    phi_at_zero,
    solve_l2,
    u_to_w,
    w_to_u,
)
from .rng import RngStream
from .sampling import (
    SampleBatch,
    bernoulli_counts,
    draw_bernoulli,
    draw_poissonized,
    draw_with_replacement,
    draw_without_replacement,
    hypergeometric_counts,
    multinomial_counts,
    poissonized_color_counts,
    simulate_with_from_without,
)
from .stirling import (
    LogMagnitude,
    interp_coeffs,
    stirling_bound_report,
    stirling_first,
)
from .urn import (
    HardInstancePair,
    UrnParseError,
    UrnSpec,
    make_hard_pair,
    make_uniform_support,
    parse_urn,
    serialize_urn,
)
from .vandermonde import (
    NodeMatrix,
    build_matrix,
    certify_sigma_min_bound,
    sigma_min,
    sigma_min_bound,
    sigma_min_exceeds,
    tm_modulus_check,
)

__version__ = "0.1.0"
