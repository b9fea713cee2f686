"""Distinct-color estimation for k-ball urns from random samples."""

from .estimator import (
    CoefficientVector,
    EstimateResult,
    EstimatorParams,
    ParameterizationError,
    build_estimator,
    estimate,
    exact_bias,
    select_params,
)
from .fingerprint import Fingerprint, fingerprint_from_count_values
from .rng import RngStream
from .sampling import (
    bernoulli_counts,
    hypergeometric_counts,
    multinomial_counts,
    poissonized_color_counts,
    sample_counts,
    sample_draws,
)
from .urn import UrnSpec, make_uniform_support

__version__ = "0.1.0"
