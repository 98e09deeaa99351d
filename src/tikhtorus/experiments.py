"""Batch experiment runners behind the CLI.

Every runner takes a validated :class:`~tikhtorus.config.ExperimentConfig`,
writes CSV tables, self-contained SVG plots, and a JSON metadata sidecar
into the output directory, and returns the written paths. Output files
appear atomically (write to a temp name, then rename) and regenerate byte
for byte from the same configuration: CSV floats use shortest round-trip
repr, JSON keys are sorted, and nothing time- or host-dependent is recorded.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .discrete import GammaRow, gamma_sweep, low_frequency_test_functions
from .errors import CalibrationError, ParameterError
from .noise import regularity_probe, sample_white_noise
from .rates import (
    DivergenceRow,
    DivergenceTables,
    SweepRow,
    SweepTables,
    _sweep_pass,
    error_sweep,
    predicted_exponent,
)
from .signals import hat_coefficients, hat_values, load_coefficient_file
from .spectral import (
    FrequencyLattice,
    MultiplierOperator,
    SpectralField,
    check_ellipticity,
    deblur_operator,
    evaluate_on_grid,
    power_law_operator,
    truncate,
)
from .svgplot import Series, line_plot
from .tikhonov import RegularizationSchedule, forward, solve

__all__ = ["run_deblur", "run_rates", "run_noise_probe", "run_gamma", "run_experiment"]

# noise amplitude for the single illustrative reconstruction in deblur runs
SIGNAL_DELTA = 3.5e-5


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(value) for value in row])
    return buffer.getvalue()


def _write_outputs(config: ExperimentConfig, files: dict, derived: dict) -> dict:
    """Write ``files`` (name -> text) and the ``metadata.json`` sidecar,
    which records the package version, the config and ``derived``, into the
    config's output directory; return the written paths by name."""
    metadata = {"package_version": __version__, "parameters": config.to_metadata(), "derived": derived}
    files = {**files, "metadata.json": json.dumps(metadata, indent=2, sort_keys=True) + "\n"}
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, text in files.items():
        path = out_dir / name
        _atomic_write(path, text)
        written[name] = path
    return written


def _build_operator(config: ExperimentConfig) -> MultiplierOperator:
    if config.operator_kind == "deblur_1d":
        return deblur_operator()
    return power_law_operator(-config.operator_exponent, name=config.operator_kind)


def _problem(config: ExperimentConfig) -> tuple:
    """The configured operator, the reference lattice it is checked on, the
    truth on that lattice and the regularization schedule."""
    operator = _build_operator(config)
    lattice = FrequencyLattice(1, config.reference_bandlimit)
    try:
        check_ellipticity(operator, lattice)
    except ParameterError as exc:
        raise ParameterError(
            f"{exc} ([operator] exponent = {config.operator_exponent:g}, "
            f"[resolution] reference_bandlimit = {config.reference_bandlimit})"
        ) from exc
    truth = (
        hat_coefficients(lattice)
        if config.truth_kind == "hat"
        else load_coefficient_file(config.truth_path, lattice)
    )
    schedule = RegularizationSchedule(alpha0=config.alpha0, kappa=config.kappa, r=config.r)
    return operator, lattice, truth, schedule


def _positive_alpha(schedule: RegularizationSchedule, delta: float) -> float:
    """alpha(delta) for a closed-form solve; an underflow to 0 names its keys."""
    alpha = schedule.alpha(delta)
    if alpha == 0.0:
        raise ParameterError(
            f"alpha = alpha0 * delta^kappa underflows to 0 at delta = {delta:g} "
            f"([schedule] alpha0 = {schedule.alpha0:g}, kappa = {schedule.kappa:g})"
        )
    return alpha


def _s1_window(config: ExperimentConfig, t: float) -> dict:
    s = config.noise_regularity
    return {
        "main_bound": s - t + 2 * (t + config.r) / config.kappa,
        "narrow_bound": s - t + (t + config.r) / config.kappa,
        "note": (
            "regime classification uses the 2(t+r)/kappa window; the "
            "narrower (t+r)/kappa variant is reported alongside so both "
            "conventions can be compared against the fitted slopes"
        ),
    }


def _error_plot(config: ExperimentConfig, curves: dict, title: str, ylabel: str) -> str:
    """Log-log plot of one error curve per s1 (``curves[s1]``, along the
    delta grid)."""
    return line_plot(
        [
            Series(label=f"s1={s1:g}", x=list(config.delta_grid), y=curves[s1])
            for s1 in (float(v) for v in config.s1_list)
        ],
        title=title,
        xlabel="delta",
        ylabel=ylabel,
        logx=True,
        logy=True,
    )


def _plot_band(config: ExperimentConfig) -> int:
    """The bandlimit the signal snapshot is plotted at."""
    return min(config.bandlimit, (config.plot_points - 1) // 2)


def _snapshot(
    config: ExperimentConfig,
    operator: MultiplierOperator,
    truth: SpectralField,
    noise: SpectralField,
    alpha: float,
    r: float,
) -> tuple:
    """Signal table of the illustrative reconstruction at SIGNAL_DELTA, one
    float64 row (x, truth, data, reconstruction) per plot point, its plot,
    and the bandlimit it is plotted at (:func:`_plot_band`).

    The truth and the draw (on any lattice that holds that band) are
    truncated to that bandlimit first, and the measurement and
    reconstruction are made on its small lattice: both are per-mode
    operations, so they equal the truncations of the full-lattice ones bit
    for bit."""
    plot_band = _plot_band(config)
    truth = truncate(truth, plot_band)
    measurement = forward(operator, truth, SIGNAL_DELTA, truncate(noise, plot_band))
    reconstruction = solve(operator, measurement.data, alpha, r)
    x_grid = np.arange(config.plot_points) / config.plot_points
    blurred_values = evaluate_on_grid(measurement.data, config.plot_points)
    reconstruction_values = evaluate_on_grid(reconstruction, config.plot_points)
    truth_values = (
        hat_values(x_grid)
        if config.truth_kind == "hat"
        else evaluate_on_grid(truth, config.plot_points)
    )
    signal_table = np.column_stack((x_grid, truth_values, blurred_values, reconstruction_values))
    signal_plot = line_plot(
        [
            Series(label="truth", x=x_grid, y=truth_values),
            Series(label="data", x=x_grid, y=blurred_values),
            Series(label=f"reconstruction (delta={SIGNAL_DELTA:g})", x=x_grid, y=reconstruction_values),
        ],
        title="signal, data, reconstruction",
        xlabel="x",
        ylabel="value",
    )
    return signal_table, signal_plot, plot_band


def run_deblur(config: ExperimentConfig) -> dict:
    """Full noisy pipeline: reconstruction errors across (s1, delta, seed),
    a signal/reconstruction snapshot at a fixed small delta, the H^1
    certificate, and plots.

    The snapshot draws the first seed on its plot band only; nesting makes
    that draw the truncation of the reference one. The error sweep and the
    certificate then take every seed in one pass of their shared leaf
    kernel (``rates._sweep_pass``, the pass of ``error_sweep`` and
    ``h1_divergence`` too): each seed's span of each piece of the reference
    lattice is drawn once, and no draw exists lattice-wide. Its sums follow
    ``spectral._kernel_sums``' summation rule, and its checks run in seed
    order after the snapshot's. The sweep and the certificate
    share the operator's cached symbol tables on the reference lattice,
    evaluated once by the ellipticity check.
    """
    operator, lattice, truth, schedule = _problem(config)
    signal_alpha = _positive_alpha(schedule, SIGNAL_DELTA)
    sweep = SweepTables(operator, truth, schedule, config.s1_list, config.delta_grid, config.seeds)
    # H^1 certificate for the filtered noise part: the pinch-band lower bound
    # needs the quadratic schedule, so it runs with kappa = 2 at the
    # configured alpha0 (only meaningful for the first-derivative penalty)
    certificate = None
    if config.r == 1.0 and max(config.delta_grid) <= 1.0:
        try:
            certificate = DivergenceTables(
                operator,
                RegularizationSchedule(alpha0=config.alpha0, kappa=2.0, r=1.0),
                config.delta_grid,
                config.seeds,
                lattice,
            )
        except CalibrationError as exc:
            raise CalibrationError(
                f"{exc} ([grids] delta_grid, [operator] exponent = {config.operator_exponent:g})"
            ) from exc

    # illustrative reconstruction at the fixed noise amplitude
    noise = sample_white_noise(FrequencyLattice(1, _plot_band(config)), config.seeds[0])
    signal_table, signal_plot, plot_band = _snapshot(config, operator, truth, noise, signal_alpha, schedule.r)
    errors, divergence = _sweep_pass(sweep, certificate, config.seeds)
    result = sweep.result(errors)

    divergence_meta: dict = {"emitted": False}
    if certificate is not None:
        report = certificate.report(divergence)
        divergence_meta = {
            "emitted": True,
            "certificate_kappa": 2.0,
            "band_c0": report.c0,
            "band_c1": report.c1,
            "min_max_ratio_median": report.median_ratio,
        }

    derived = {
        "alpha_by_delta": {repr(d): schedule.alpha(d) for d in config.delta_grid},
        "normalizers": {repr(s1): c for s1, c in result.normalizers.items()},
        "fitted_slopes": {
            repr(s1): {"slope": f.slope, "intercept": f.intercept, "residual": f.residual}
            for s1, f in result.slopes.items()
        },
        "signal_delta": SIGNAL_DELTA,
        "signal_seed": config.seeds[0],
        "plot_truncation_bandlimit": plot_band,
        "s1_window": _s1_window(config, operator.smoothing),
        "divergence": divergence_meta,
    }
    outputs = {
        "errors.csv": _csv_text(SweepRow._fields, result.rows),
        "signal.csv": _csv_text(
            ("x", "truth", "data", "reconstruction"),
            (row.tolist() for row in signal_table),  # one row of Python floats at a time
        ),
        "errors.svg": _error_plot(
            config,
            {
                s1: [m * scale for m in result.median_errors[s1]]
                for s1, scale in result.normalizers.items()
            },
            "normalized reconstruction error vs noise amplitude",
            "normalized error (seed median)",
        ),
        "signal.svg": signal_plot,
    }
    if certificate is not None:
        outputs["divergence.csv"] = _csv_text(DivergenceRow._fields, report.rows)
    return _write_outputs(config, outputs, derived)


def run_rates(config: ExperimentConfig) -> dict:
    """Noise-free rate study: bias-term decay against the predicted
    exponents, one fitted slope per s1."""
    operator, lattice, truth, schedule = _problem(config)
    t = operator.smoothing
    try:
        predicted = [
            predicted_exponent(t, config.r, config.kappa, config.noise_regularity, float(s1))
            for s1 in config.s1_list
        ]
    except ParameterError as exc:
        raise ParameterError(
            f"{exc} ([noise] noise_regularity = {config.noise_regularity:g}, "
            f"[operator] exponent = {config.operator_exponent:g}, [schedule] r = {config.r:g})"
        ) from exc

    sweep = error_sweep(operator, truth, schedule, config.s1_list, config.delta_grid, [None])
    slope_rows = []
    for rates in predicted:
        fit = sweep.slopes.get(rates.s1)
        slope_rows.append(
            (
                rates.s1,
                rates.regime,
                rates.predicted_exponent,
                fit.slope if fit else None,
                fit.residual if fit else None,
            )
        )

    derived = {
        "alpha_by_delta": {repr(d): schedule.alpha(d) for d in config.delta_grid},
        "smoothing_order": t,
        "s1_window": _s1_window(config, t),
    }
    return _write_outputs(
        config,
        {
            "errors.csv": _csv_text(SweepRow._fields, sweep.rows),
            "slopes.csv": _csv_text(
                ("s1", "regime", "predicted_exponent", "fitted_slope", "residual"),
                slope_rows,
            ),
            "errors.svg": _error_plot(
                config,
                sweep.median_errors,
                "noise-free reconstruction error vs noise amplitude",
                "H^s1 error",
            ),
        },
        derived,
    )


def run_noise_probe(config: ExperimentConfig) -> dict:
    """Partial H^s energies of sampled white noise at growing truncations,
    classified convergent/divergent against the growth threshold."""
    rows = regularity_probe(
        config.probe_s_values,
        config.probe_bandlimits,
        config.seeds,
        dimension=1,
        growth_threshold=config.probe_growth_threshold,
    )
    expected_series = [
        Series(
            label=f"s={s:g}",
            x=list(config.probe_bandlimits),
            y=[
                row.partial_energy
                for row in rows
                if row.s == s and row.trajectory == "expected"
            ],
        )
        for s in config.probe_s_values
    ]
    plot = line_plot(
        expected_series,
        title="expected partial H^s energy vs truncation",
        xlabel="bandlimit",
        ylabel="partial energy",
        logx=True,
        logy=True,
    )
    derived = {
        "growth_threshold": config.probe_growth_threshold,
        "classification_rule": "convergent iff final growth ratio < threshold",
    }
    return _write_outputs(
        config,
        {
            "probe.csv": _csv_text(
                ("s", "bandlimit", "seed_or_expected", "partial_energy", "growth_ratio", "classification"),
                rows,
            ),
            "probe.svg": plot,
        },
        derived,
    )


def _gamma_sizes(config: ExperimentConfig) -> list:
    halves = []
    for divisor in (8, 4, 2, 1):
        half = max(1, config.bandlimit // divisor)
        if half not in halves:
            halves.append(half)
    sizes = [(2 * half + 1, 2 * half + 1) for half in halves]
    full = 2 * config.reference_bandlimit + 1
    sizes.append((full, full))
    return sizes


def run_gamma(config: ExperimentConfig) -> dict:
    """Discretization-refinement study: weak pairing gaps and objective gaps
    between matrix minimizers and the closed-form reference minimizer."""
    operator, lattice, truth, schedule = _problem(config)

    noise = sample_white_noise(lattice, config.seeds[0])
    delta = config.delta_grid[0]
    alpha = _positive_alpha(schedule, delta)
    sizes = _gamma_sizes(config)
    test_functions = low_frequency_test_functions(lattice, config.gamma_test_function_count)
    result = gamma_sweep(operator, truth, noise, delta, schedule, sizes, test_functions)

    floor = 1e-18  # log-plot floor for gaps that are exactly zero
    gap_series = [
        Series(
            label=f"phi={label}",
            x=[row.n for row in result.rows if row.test_function_id == label],
            y=[
                max(abs(row.pairing_gap), floor)
                for row in result.rows
                if row.test_function_id == label
            ],
        )
        for label, _ in test_functions
    ]
    gap_series.append(
        Series(
            label="objective gap",
            x=[summary.n for summary in result.summaries],
            y=[max(summary.functional_gap, floor) for summary in result.summaries],
        )
    )
    plot = line_plot(
        gap_series,
        title="discrete-to-reference gaps vs unknown dimension",
        xlabel="n",
        ylabel="gap (floored at 1e-18)",
        logx=True,
        logy=True,
    )

    derived = {
        "delta": delta,
        "alpha": alpha,
        "noise_seed": config.seeds[0],
        "sizes": [list(pair) for pair in sizes],
        "continuum_objective": result.continuum_objective,
        "ball_radius_by_n": {str(s.n): s.ball_radius for s in result.summaries},
        "minimizer_hr_norm_by_n": {str(s.n): s.minimizer_hr_norm for s in result.summaries},
        "plot_floor": floor,
    }
    return _write_outputs(
        config,
        {
            "gamma.csv": _csv_text(GammaRow._fields, result.rows),
            "gamma.svg": plot,
        },
        derived,
    )


_RUNNERS = {
    "deblur": run_deblur,
    "rates": run_rates,
    "noise_probe": run_noise_probe,
    "gamma": run_gamma,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Dispatch on the experiment name recorded in the config."""
    return _RUNNERS[config.experiment](config)
