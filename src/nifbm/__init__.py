"""Simulation and inference for window-averaged fractional Brownian
motion models: exact covariances, exact Gaussian sampling, closed-form
parameter estimators, asymptotic variances and a Monte Carlo harness."""

from .covariance import (
    AGGREGATION_FACTORS,
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
    RngSeed,
    SampleGrid,
    add_drift,
    aggregate_increments,
    cholesky_factor,
    sample_increments,
    sample_mixed_components,
)
from .estimation import (
    DriftEstimate,
    OneNifbmEstimate,
    TwoNifbmEstimate,
    drift_mle,
    drift_two_point,
    estimate_one_nifbm,
    estimate_two_nifbm,
    forward_moment_map,
    forward_moment_map_one,
    two_point_variance,
    two_stage_estimate,
    xi_statistic,
    xi_statistics_from_base,
)
from .asymptotics import (
    gamma_square_series,
    jacobian_one,
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
