"""Simulation and inference for window-averaged fractional Brownian
motion models: exact covariances, exact Gaussian sampling, closed-form
parameter estimators, asymptotic variances and a Monte Carlo harness."""

from .covariance import (
    MixedParams,
    NifbmParams,
    autocov_sequence,
    find_h0,
    gamma,
    nifbm_cov,
    nifbm_var,
)
from .errors import (
    ConfigError,
    GridMismatchError,
    HTooLargeError,
    LengthError,
    NifbmError,
    NotPositiveDefiniteError,
    ZeroDenominatorError,
)
from .simulation import (
    DriftSpec,
    add_drift,
    cholesky_factor,
    sample_increments,
    sample_mixed_components,
    stream_generator,
)
from .estimation import (
    AGGREGATION_FACTORS,
    DriftEstimate,
    OneNifbmEstimate,
    TwoNifbmEstimate,
    aggregate_increments,
    drift_mle,
    drift_two_point,
    estimate_one_nifbm,
    estimate_two_nifbm,
    forward_moment_map,
    two_point_variance,
    two_stage_estimate,
    xi_statistic,
    xi_statistics_from_base,
)
from .asymptotics import (
    gamma_square_series,
    jacobian,
    sigma0_one,
    sigma_tilde_one,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    empirical_estimator_cov,
    parse_config,
    run_experiment,
    table_configs,
    write_results,
)

__version__ = "0.1.0"
