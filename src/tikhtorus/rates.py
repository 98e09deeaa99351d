"""Convergence-rate machinery: closed-form exponent predictions, log-log
slope fitting for delta sweeps, reconstruction-error sweeps, and the H^1
divergence certificate for the filtered noise part.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CalibrationError, DomainError, ParameterError
from .noise import NoiseRealization, sample_white_noise, zero_noise
from .spectral import (
    FrequencyLattice,
    MultiplierOperator,
    SpectralField,
    sobolev_norm,
    sobolev_weights,
)
from .tikhonov import RegularizationSchedule, forward, solve_split

__all__ = [
    "RateExponents",
    "predicted_exponent",
    "QuadraticScheduleRate",
    "quadratic_schedule_exponent",
    "SlopeFit",
    "fit_loglog_slope",
    "SweepRow",
    "SweepResult",
    "error_sweep",
    "ModeBand",
    "DivergenceRow",
    "DivergenceReport",
    "h1_divergence",
]

CASE_I = "case_i"
CASE_II = "case_ii"
OUT_OF_RANGE = "out_of_range"


@dataclasses.dataclass(frozen=True)
class RateExponents:
    """Predicted decay exponent of ||T(m_delta) - u||_{H^s1} in delta.

    ``regime`` classifies s1 against the admissible window: ``case_i`` for
    s1 <= s - t, ``case_ii`` for s - t <= s1 < s - t + 2(t+r)/kappa, and
    ``out_of_range`` beyond it (predicted_exponent is NaN there). ``eta``
    and ``gamma`` are the interpolation weights t/(2(t+r)) and r/(2(t+r));
    they always sum to 1/2.
    """

    t: float
    r: float
    kappa: float
    s: float
    s1: float
    zeta: float
    eta: float
    gamma: float
    regime: str
    predicted_exponent: float


def predicted_exponent(t: float, r: float, kappa: float, s: float, s1: float) -> RateExponents:
    """Classify s1 and return the guaranteed convergence-rate exponent.

    case (i):  min( kappa (r - zeta) / (2(t+r)), 1 )
    case (ii): min( kappa (r - zeta) / (2(t+r)),
                    1 + kappa (s - t - s1) / (2(t+r)) )
    with zeta = max(s1, -r - 2t).

    Both admissible exponents are positive whenever s1 < r; for kappa >= 2
    the window cap s - t + 2(t+r)/kappa <= s + r < r enforces that on its
    own. For kappa < 2 the window can reach beyond r, where the bias
    exponent turns nonpositive and the bound, while still valid, certifies
    no convergence.
    """
    if r < 0:
        raise ParameterError(f"penalty order r must be >= 0, got {r}")
    if kappa <= 0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    if t <= max(0.0, -s - r):
        raise ParameterError(
            f"smoothing order t must exceed max(0, -s-r) = {max(0.0, -s - r)}, got {t}"
        )

    zeta = max(s1, -r - 2 * t)
    eta = t / (2 * (r + t))
    gamma = r / (2 * (r + t))
    bias_rate = kappa * (r - zeta) / (2 * (t + r))

    if s1 <= s - t:
        regime, exponent = CASE_I, min(bias_rate, 1.0)
    elif s1 < s - t + 2 * (t + r) / kappa:
        regime = CASE_II
        exponent = min(bias_rate, 1.0 + kappa * (s - t - s1) / (2 * (t + r)))
    else:
        regime, exponent = OUT_OF_RANGE, math.nan

    return RateExponents(
        t=t, r=r, kappa=kappa, s=s, s1=s1,
        zeta=zeta, eta=eta, gamma=gamma,
        regime=regime, predicted_exponent=exponent,
    )


@dataclasses.dataclass(frozen=True)
class QuadraticScheduleRate:
    """Rate for the translation-invariant kappa = 2 analysis with free
    interpolation parameter beta in (0, 1/2).

    The error bound is max(delta^bias_exponent, delta^noise_exponent); the
    smoothness index s1 it covers satisfies s1 <= s + smoothness_shift where
    s is the noise regularity.
    """

    exponent: float
    bias_exponent: float
    noise_exponent: float
    smoothness_shift: float


def quadratic_schedule_exponent(t: float, r: float, beta: float) -> QuadraticScheduleRate:
    """min( r/(t+r), 1 - 2 beta ) plus the admissible smoothness shift
    -(1-2 beta) t + 2 beta r."""
    if not 0.0 < beta < 0.5:
        raise ParameterError(f"beta must lie in (0, 1/2), got {beta}")
    if r <= 0 or t <= 0:
        raise ParameterError(f"need r > 0 and t > 0, got r={r}, t={t}")
    bias = r / (t + r)
    noise_e = 1.0 - 2.0 * beta
    return QuadraticScheduleRate(
        exponent=min(bias, noise_e),
        bias_exponent=bias,
        noise_exponent=noise_e,
        smoothness_shift=-(1.0 - 2.0 * beta) * t + 2.0 * beta * r,
    )


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    residual: float


def fit_loglog_slope(samples: Sequence[tuple]) -> SlopeFit:
    """Ordinary least squares on (log delta, log error).

    ``residual`` is the root-mean-square misfit in log space, a quick trust
    indicator: near zero means a clean power law.
    """
    if len(samples) < 3:
        raise ParameterError(f"need at least 3 samples, got {len(samples)}")
    deltas = np.array([d for d, _ in samples], dtype=np.float64)
    errors = np.array([e for _, e in samples], dtype=np.float64)
    if np.any(deltas <= 0) or np.any(errors <= 0):
        raise DomainError("log-log fit needs strictly positive deltas and errors")
    x = np.log(deltas)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return SlopeFit(slope=float(slope), intercept=float(intercept), residual=residual)


@dataclasses.dataclass(frozen=True)
class SweepRow:
    s1: float
    delta: float
    seed: int  # -1 marks the noise-free trajectory
    raw_error: float
    normalized_error: float


@dataclasses.dataclass(frozen=True)
class SweepResult:
    rows: list
    median_errors: dict  # s1 -> list of medians along delta_grid
    slopes: dict         # s1 -> SlopeFit on the seed-median curve
    normalizers: dict    # s1 -> 1 / median error at the largest delta


def error_sweep(
    A: MultiplierOperator,
    truth: SpectralField,
    schedule: RegularizationSchedule,
    s1_list: Sequence[float],
    delta_grid: Sequence[float],
    seeds: Sequence[int | None],
) -> SweepResult:
    """Reconstruction error ||T(m_delta) - u||_{H^s1} over (s1, delta, seed).

    A seed of ``None`` runs the noise-free pipeline (zero realization,
    reported as seed -1). Errors are normalized per s1 curve so the
    seed-median starts at 1 at the largest delta; slopes are fitted on the
    seed-median raw errors, the robust choice under white-noise scatter.
    """
    if len(delta_grid) < 1 or len(s1_list) < 1 or len(seeds) < 1:
        raise ParameterError("error_sweep needs nonempty s1_list, delta_grid, seeds")
    if any(d2 >= d1 for d1, d2 in zip(delta_grid, delta_grid[1:])):
        raise ParameterError("delta_grid must be strictly decreasing")
    if not math.isfinite(sobolev_norm(truth, schedule.r)):
        raise ParameterError("truth must have finite H^r norm")

    realizations: list[tuple[int, NoiseRealization]] = []
    for seed in seeds:
        if seed is None:
            realizations.append((-1, zero_noise(truth.lattice)))
        else:
            realizations.append((int(seed), sample_white_noise(truth.lattice, int(seed))))

    errors: dict[float, np.ndarray] = {
        float(s1): np.empty((len(delta_grid), len(realizations))) for s1 in s1_list
    }
    for j, (label, realization) in enumerate(realizations):
        for i, delta in enumerate(delta_grid):
            meas = forward(A, truth, float(delta), realization)
            split = solve_split(A, meas, schedule)
            deviation = split.reconstruction - truth
            for s1 in s1_list:
                error = sobolev_norm(deviation, float(s1))
                if not math.isfinite(error):
                    raise ParameterError(f"error at s1 = {s1:g}, delta = {delta:g} is {error}, not finite")
                errors[float(s1)][i, j] = error

    rows: list[SweepRow] = []
    median_errors: dict[float, list] = {}
    slopes: dict[float, SlopeFit] = {}
    normalizers: dict[float, float] = {}
    for s1 in (float(v) for v in s1_list):
        table = errors[s1]
        medians = [float(np.median(table[i])) for i in range(len(delta_grid))]
        median_errors[s1] = medians
        if medians[0] == 0.0:
            raise ParameterError(
                f"median error at s1 = {s1:g}, delta = {delta_grid[0]:g} is 0, "
                f"so the curve cannot be normalized (alpha = {schedule.alpha(delta_grid[0]):g})"
            )
        scale = 1.0 / medians[0]
        normalizers[s1] = scale
        if len(delta_grid) >= 3:
            slopes[s1] = fit_loglog_slope(list(zip(delta_grid, medians)))
        for i, delta in enumerate(delta_grid):
            for j, (label, _) in enumerate(realizations):
                raw = float(table[i, j])
                rows.append(
                    SweepRow(
                        s1=s1,
                        delta=float(delta),
                        seed=label,
                        raw_error=raw,
                        normalized_error=raw * scale,
                    )
                )
    return SweepResult(rows=rows, median_errors=median_errors, slopes=slopes, normalizers=normalizers)


@dataclasses.dataclass(frozen=True)
class ModeBand:
    """Modes where |a(l)|^2 is pinched between c0 and c1 times
    delta^2 (1+l^2): the frequencies the regularizer neither resolves nor
    fully suppresses at noise level delta."""

    c0: float
    c1: float
    delta: float
    member_indices: np.ndarray


def _band_members(
    symbol_sq: np.ndarray, weights1: np.ndarray, delta: float, c0: float, c1: float
) -> np.ndarray:
    scale = delta * delta * weights1
    return np.flatnonzero((c0 * scale <= symbol_sq) & (symbol_sq <= c1 * scale))


def calibrate_band(
    A: MultiplierOperator,
    lattice: FrequencyLattice,
    delta_grid: Sequence[float],
    widening_limit: int = 40,
) -> tuple:
    """Pick (c0, c1) so the pinch band is nonempty for every delta.

    Starts from (0.5, 2.0) times the symbol's squared-to-weight ratio at the
    mode closest to balance at the largest delta, then widens geometrically.
    """
    values = A.symbol_values(lattice)
    symbol_sq = values.real**2 + values.imag**2
    weights1 = 1.0 + lattice.squared_norms()
    delta_max = max(delta_grid)
    ratio = symbol_sq / (delta_max**2 * weights1)
    center = int(np.argmin(np.abs(np.log(ratio))))
    c0 = 0.5 * float(ratio[center])
    c1 = 2.0 * float(ratio[center])
    for _ in range(widening_limit):
        if all(
            _band_members(symbol_sq, weights1, float(d), c0, c1).size > 0 for d in delta_grid
        ):
            bands = [
                ModeBand(
                    c0=c0,
                    c1=c1,
                    delta=float(d),
                    member_indices=_band_members(symbol_sq, weights1, float(d), c0, c1),
                )
                for d in delta_grid
            ]
            return c0, c1, bands
        c0 *= 0.5
        c1 *= 2.0
    raise CalibrationError(
        "no (c0, c1) produced a nonempty band for every delta; "
        f"symbol squared-to-weight ratios span [{ratio.min():.3e}, {ratio.max():.3e}] "
        f"at delta = {delta_max:g}"
    )


@dataclasses.dataclass(frozen=True)
class DivergenceRow:
    delta: float
    seed: int
    band_size: int
    lower_bound: float
    h1_norm_sq: float


@dataclasses.dataclass(frozen=True)
class DivergenceReport:
    rows: list
    c0: float
    c1: float
    ratio_by_seed: dict  # seed -> min/max of ||w_delta||_{H^1} over the grid
    median_ratio: float


def h1_divergence(
    A: MultiplierOperator,
    schedule: RegularizationSchedule,
    delta_grid: Sequence[float],
    seeds: Sequence[int],
    lattice: FrequencyLattice,
) -> DivergenceReport:
    """Certificate that the filtered noise part keeps H^1 mass as delta -> 0.

    For every (delta, seed) the report carries the pinch-band lower bound

        sum_band |eps(l)|^2 / ((1 + alpha0/c0) (c1 + alpha0))

    and the actual ||w_delta||_{H^1}^2, which dominates it mode by mode.
    The chain needs the H^1 penalty (r = 1) and kappa >= 2 with deltas <= 1,
    where the kappa = 2 constants remain valid lower bounds. The summary
    statistic is the per-seed min/max ratio of ||w_delta||_{H^1} across the
    grid: bounded away from zero means no decay.
    """
    if schedule.r != 1.0:
        raise ParameterError(f"divergence certificate needs r = 1, got r = {schedule.r}")
    if schedule.kappa < 2.0:
        raise ParameterError(f"divergence certificate needs kappa >= 2, got {schedule.kappa}")
    if len(delta_grid) == 0 or len(seeds) == 0:
        raise ParameterError("h1_divergence needs nonempty delta_grid and seeds")
    if max(delta_grid) > 1.0:
        raise ParameterError("divergence certificate requires deltas <= 1")

    c0, c1, bands = calibrate_band(A, lattice, delta_grid)
    values = A.symbol_values(lattice)
    symbol_sq = values.real**2 + values.imag**2
    weights1 = 1.0 + lattice.squared_norms()
    bound_factor = 1.0 / ((1.0 + schedule.alpha0 / c0) * (c1 + schedule.alpha0))

    rows: list[DivergenceRow] = []
    ratio_by_seed: dict[int, float] = {}
    for seed in seeds:
        eps = sample_white_noise(lattice, int(seed)).field.coefficients
        eps_power = eps.real**2 + eps.imag**2
        h1_norms = []
        for band in bands:
            delta = band.delta
            z = symbol_sq + schedule.alpha(delta) * weights1
            w_power = symbol_sq * (delta * delta) * eps_power / (z * z)
            h1_sq = float(np.sum(weights1 * w_power))
            lower = bound_factor * float(np.sum(eps_power[band.member_indices]))
            rows.append(
                DivergenceRow(
                    delta=delta,
                    seed=int(seed),
                    band_size=int(band.member_indices.size),
                    lower_bound=lower,
                    h1_norm_sq=h1_sq,
                )
            )
            h1_norms.append(math.sqrt(h1_sq))
        ratio_by_seed[int(seed)] = min(h1_norms) / max(h1_norms)

    median_ratio = float(np.median(list(ratio_by_seed.values())))
    return DivergenceReport(
        rows=rows, c0=c0, c1=c1, ratio_by_seed=ratio_by_seed, median_ratio=median_ratio
    )
