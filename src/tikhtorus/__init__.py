"""Spectral Tikhonov regularization on the torus with white-noise data.

The package provides the closed-form spectral regularizer and its matrix
counterpart for Fourier-multiplier forward maps, seeded white-noise
sampling, Sobolev-scale error diagnostics, and a batch CLI that reproduces
the standard experiments (deconvolution errors, rate fits, noise
regularity, discretization refinement).
"""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    ConfigError,
    DimensionError,
    DomainError,
    InvalidFieldError,
    NotRealValuedError,
    NumericalError,
    ParameterError,
    TikhtorusError,
    TruncationRangeError,
)
from .spectral import (
    Ellipticity,
    FrequencyLattice,
    MultiplierOperator,
    SpectralField,
    apply_multiplier,
    check_ellipticity,
    deblur_operator,
    evaluate_on_grid,
    field_from_grid,
    power_law_operator,
    single_mode_field,
    sobolev_norm,
    sobolev_weights,
    truncate,
    zero_field,
)
from .noise import expected_sobolev_energy, regularity_probe, sample_white_noise
from .tikhonov import (
    BiasBound,
    Measurement,
    RegularizationSchedule,
    TikhonovSplit,
    bias_bound_check,
    data_shifted_functional,
    forward,
    functional,
    solve,
    solve_split,
    stationarity_defect,
)
from .discrete import (
    DiscreteProblem,
    assemble,
    coords_to_field,
    field_to_coords,
    gamma_sweep,
    low_frequency_test_functions,
    solve_discrete,
)
from .rates import (
    DivergenceReport,
    QuadraticScheduleRate,
    RateExponents,
    SlopeFit,
    SweepResult,
    error_sweep,
    fit_loglog_slope,
    h1_divergence,
    quadratic_schedule_exponent,
    predicted_exponent,
)
from .signals import hat_coefficients, hat_values, load_coefficient_file
from .config import ExperimentConfig, load_config
from .experiments import (
    run_deblur,
    run_experiment,
    run_gamma,
    run_noise_probe,
    run_rates,
)
