"""Spectral Tikhonov regularization on the torus with white-noise data.

The package provides the closed-form spectral regularizer and its matrix
counterpart for Fourier-multiplier forward maps, seeded white-noise
sampling, Sobolev-scale error diagnostics, and a batch CLI that reproduces
the standard experiments (deconvolution errors, rate fits, noise
regularity, discretization refinement).

The namespace is lazy (PEP 562): ``import tikhtorus`` loads no submodule and
no numpy. A public name imports its submodule on first access and is looked
up there on every access, so what the package serves is always the
submodule's current binding.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it serves from the package
_EXPORTS = {
    "errors": "CalibrationError ConfigError DimensionError DomainError InvalidFieldError "
    "NotRealValuedError NumericalError ParameterError TikhtorusError TruncationRangeError",
    "spectral": "Ellipticity FrequencyLattice MultiplierOperator SpectralField apply_multiplier "
    "check_ellipticity deblur_operator evaluate_on_grid field_from_grid power_law_operator "
    "single_mode_field sobolev_norm sobolev_weights truncate zero_field",
    "noise": "expected_sobolev_energy regularity_probe sample_white_noise",
    "tikhonov": "BiasBound Measurement RegularizationSchedule TikhonovSplit bias_bound_check "
    "data_shifted_functional forward functional solve solve_split stationarity_defect",
    "discrete": "DiscreteProblem assemble coords_to_field field_to_coords gamma_sweep "
    "low_frequency_test_functions solve_discrete",
    "rates": "DivergenceReport QuadraticScheduleRate RateExponents SlopeFit SweepResult error_sweep "
    "fit_loglog_slope h1_divergence quadratic_schedule_exponent predicted_exponent",
    "signals": "hat_coefficients hat_values load_coefficient_file",
    "config": "ExperimentConfig load_config",
    "experiments": "run_deblur run_experiment run_gamma run_noise_probe run_rates",
    "svgplot": "",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_ORIGIN]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
