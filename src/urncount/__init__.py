"""Distinct-color estimation for k-ball urns from random samples."""

from .estimator import (
    EstimateResult,
    EstimatorParams,
    ParameterizationError,
    build_estimator,
    estimate,
    exact_bias,
    select_params,
)
from .fingerprint import Fingerprint, fingerprint_from_count_values
from .orthopoly import CoefficientVector
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
)
from .urn import UrnSpec, make_uniform_support

__version__ = "0.1.0"
