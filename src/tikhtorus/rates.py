"""Convergence-rate machinery: closed-form exponent predictions, log-log
slope fitting for delta sweeps, reconstruction-error sweeps, and the H^1
divergence certificate for the filtered noise part.

The sweep and the certificate each split into seed-independent tables
(:class:`SweepTables`, :class:`DivergenceTables`), a per-seed kernel that
takes the noise coefficients, and a summary. :func:`error_sweep` and
:func:`h1_divergence` loop draw -> kernel; a deblur run draws each seed once
and feeds every stage (sweep, certificate, snapshot) from that draw.

The sweep's kernel takes each piece's bias and filtered-noise parts from
``tikhonov._split``, the routine that :func:`~tikhtorus.tikhonov.solve_split`
runs on the whole lattice, so the two share one spelling of the split.

The kernels do their elementwise work in pieces of ``spectral._CHUNK`` modes,
each with its own small scratch, spread over the CPUs of the process's
affinity (``spectral._map_chunks``). Only the per-mode tables that a sum reads
are lattice-sized, and every sum is one whole-array ``np.sum`` on the
calling thread: numpy's pairwise summation order depends on the array
length, so the bytes depend neither on the CPU count nor on the chunk size.
The sweep's kernel checks its noise coefficients once, at entry, so the
error that a non-finite draw raises does not depend on the pieces either.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CalibrationError, DomainError, InvalidFieldError, ParameterError
from .noise import sample_white_noise
from .spectral import (
    FrequencyLattice,
    MultiplierOperator,
    SpectralField,
    _map_chunks,
    finite_sobolev_weights,
    sobolev_norm,
    sobolev_weights,
)
from .tikhonov import RegularizationSchedule, _split

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


class SweepRow(NamedTuple):
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


class SweepTables:
    """The seed-independent half of :func:`error_sweep`.

    The constructor validates the grids and takes the per-mode tables once
    per sweep: a and |a|^2 on the truth's lattice (the operator's cached
    tables, shared with a :class:`DivergenceTables` of the same run),
    (1+|l|^2)^r and alpha(delta) per delta. :meth:`errors` is the per-seed
    kernel and :meth:`result` the summary, so a caller that already holds a
    noise draw (a deblur run) can feed it in without drawing again.

    The kernel builds each (seed, delta) deviation piece by piece across
    the CPUs, in piece-sized scratch, from the bias and noise parts of
    ``tikhonov._split``, and squares it once into a
    lattice-sized |T(m) - u|^2; every s1's weighted copy goes into one more
    lattice-sized buffer, and the norm is sqrt(sum((1+|l|^2)^s1
    |T(m) - u|^2)) as one whole-array sum on the calling thread: the
    arithmetic and summation order of
    :func:`~tikhtorus.spectral.sobolev_norm`, so each error equals that
    function's value on the deviation bit for bit, at any CPU count and
    chunk size.

    :meth:`errors` rejects a draw with a non-finite coefficient at entry
    (InvalidFieldError). An error that is still not finite raises a
    ParameterError that names ``[grids] s1_list`` when that s1's weights
    overflow, and otherwise the s1 and delta it occurred at.
    """

    def __init__(
        self,
        A: MultiplierOperator,
        truth: SpectralField,
        schedule: RegularizationSchedule,
        s1_list: Sequence[float],
        delta_grid: Sequence[float],
        seeds: Sequence[int | None],
    ) -> None:
        lattice = truth.lattice
        self._symbol = A.symbol_values(lattice)
        self._symbol_sq = A.squared_modulus(lattice)
        if len(delta_grid) < 1 or len(s1_list) < 1 or len(seeds) < 1:
            raise ParameterError("error_sweep needs nonempty s1_list, delta_grid, seeds")
        if any(d2 >= d1 for d1, d2 in zip(delta_grid, delta_grid[1:])):
            raise ParameterError("delta_grid must be strictly decreasing")
        self.truth = truth
        self.s1_list = [float(s1) for s1 in s1_list]
        self.delta_grid = [float(delta) for delta in delta_grid]
        self.labels = [-1 if seed is None else int(seed) for seed in seeds]
        self._weights_r = finite_sobolev_weights(
            lattice, schedule.r, f"the penalty at [schedule] r = {schedule.r:g}"
        )
        if not math.isfinite(sobolev_norm(truth, schedule.r)):
            raise ParameterError("truth must have finite H^r norm")
        self._alphas = [schedule.alpha(delta) for delta in self.delta_grid]
        if 0.0 in self._alphas and not self._symbol_sq.all():
            raise ParameterError(
                f"alpha = alpha0 * delta^kappa underflows to 0 at delta = "
                f"{self.delta_grid[self._alphas.index(0.0)]:g} and so does |a(l)|^2 at some "
                f"mode, so the filter is 0/0 there ([schedule] alpha0 = {schedule.alpha0:g}, "
                f"kappa = {schedule.kappa:g})"
            )

    def errors(self, eps: np.ndarray) -> np.ndarray:
        """errors[k, i] = ||T(m_delta_i) - u||_{H^s1_k} for one noise draw
        ``eps`` (its coefficients; zeros for the noise-free pipeline)."""
        if not np.isfinite(eps).all():
            raise InvalidFieldError("field has non-finite coefficients")
        lattice, size = self.truth.lattice, self.truth.coefficients.size
        out = np.empty((len(self.s1_list), len(self.delta_grid)))
        power = np.empty(size)  # |T(m) - u|^2
        weighted = np.empty(size)  # (1+|l|^2)^s1 |T(m) - u|^2

        def square(start: int, stop: int) -> None:
            """|T(m) - u|^2 on the modes [start, stop), in piece-sized buffers."""
            u = self.truth.coefficients[start:stop]
            tables = (self._symbol[start:stop], self._symbol_sq[start:stop], self._weights_r[start:stop])
            bias, noisy = _split(*tables, alpha, u, np.multiply(delta, eps[start:stop]))
            result = np.add(bias, noisy, out=bias)
            deviation = np.subtract(result, u, out=result)
            np.square(deviation.real, out=power[start:stop])
            np.add(power[start:stop], np.square(deviation.imag), out=power[start:stop])

        def weigh(start: int, stop: int) -> None:
            np.multiply(weights[start:stop], power[start:stop], out=weighted[start:stop])

        # an inf z (alpha (1+|l|^2)^r overflows) makes the filter factors 0,
        # their value in double precision; an error that is not finite is
        # caught below
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (delta, alpha) in enumerate(zip(self.delta_grid, self._alphas)):
                _map_chunks(square, size)
                for k, s1 in enumerate(self.s1_list):
                    weights = sobolev_weights(lattice, s1)
                    _map_chunks(weigh, size)
                    # whole-array: numpy's pairwise order depends on the length
                    error = float(np.sqrt(np.sum(weighted)))
                    if not math.isfinite(error):
                        where = f"s1 = {s1:g}, delta = {delta:g}"
                        finite_sobolev_weights(lattice, s1, f"the error at {where} ([grids] s1_list)")
                        raise ParameterError(f"error at {where} is {error}, not finite")
                    out[k, i] = error
        return out

    def result(self, per_seed: list) -> SweepResult:
        """Rows, seed medians, normalizers and slopes from the outputs of
        :meth:`errors`, one per seed in seed order."""
        errors = np.stack(per_seed, axis=-1)  # (s1, delta, seed)
        delta_grid = self.delta_grid
        rows: list[SweepRow] = []
        median_errors: dict[float, list] = {}
        slopes: dict[float, SlopeFit] = {}
        normalizers: dict[float, float] = {}
        medians_by_s1 = np.median(errors, axis=-1).tolist()
        for s1, table, medians in zip(self.s1_list, errors.tolist(), medians_by_s1):
            median_errors[s1] = medians
            if medians[0] == 0.0:
                raise ParameterError(
                    f"median error at s1 = {s1:g}, delta = {delta_grid[0]:g} is 0, "
                    f"so the curve cannot be normalized (alpha = {self._alphas[0]:g})"
                )
            scale = 1.0 / medians[0]
            normalizers[s1] = scale
            if len(delta_grid) >= 3:
                slopes[s1] = fit_loglog_slope(list(zip(delta_grid, medians)))
            rows.extend(
                SweepRow(s1, delta, label, raw, raw * scale)
                for delta, raws in zip(delta_grid, table)
                for label, raw in zip(self.labels, raws)
            )
        return SweepResult(rows=rows, median_errors=median_errors, slopes=slopes, normalizers=normalizers)


def error_sweep(
    A: MultiplierOperator,
    truth: SpectralField,
    schedule: RegularizationSchedule,
    s1_list: Sequence[float],
    delta_grid: Sequence[float],
    seeds: Sequence[int | None],
) -> SweepResult:
    """Reconstruction error ||T(m_delta) - u||_{H^s1} over (s1, delta, seed).

    Per mode, T(m_delta) - u = (|a|^2 / z) u + (conj(a) / z) delta eps - u
    with z = |a|^2 + alpha(delta) (1+|l|^2)^r: the arithmetic, in order, of
    ``solve_split(...).reconstruction - truth``. Each deviation is squared
    once, |T(m_delta) - u|^2, and weighted by (1+|l|^2)^s1 per s1 before the
    sum, in ``sobolev_norm``'s summation order, so the errors match that
    composition bit for bit. A seed of ``None`` runs the noise-free pipeline
    (eps = 0, reported as seed -1). Errors are normalized per s1 curve so the
    seed-median starts at 1 at the largest delta; slopes are fitted on the
    seed-median raw errors, the robust choice under white-noise scatter.
    The per-mode work runs in mode chunks across the CPUs and each sum on
    the calling thread, so the errors do not depend on the CPU count.

    Each seed is drawn once and only one draw is alive at a time. A deblur
    run feeds the same draw to this sweep's per-seed kernel
    (:class:`SweepTables`), to the H^1 certificate and, for its first seed,
    to the signal snapshot.
    """
    tables = SweepTables(A, truth, schedule, s1_list, delta_grid, seeds)
    errors = [
        tables.errors(
            np.zeros_like(truth.coefficients)
            if seed is None
            else sample_white_noise(truth.lattice, seed).coefficients
        )
        for seed in seeds
    ]
    return tables.result(errors)


@dataclasses.dataclass(frozen=True)
class ModeBand:
    """Modes where |a(l)|^2 is pinched between c0 and c1 times
    delta^2 (1+l^2): the frequencies the regularizer neither resolves nor
    fully suppresses at noise level delta."""

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
) -> tuple:
    """Pick (c0, c1) so the pinch band is nonempty for every delta, and
    return them with one :class:`ModeBand` per delta.

    Starts from (0.5, 2.0) times the symbol's squared-to-weight ratio at the
    mode closest to balance at the largest delta, then widens geometrically,
    at most 40 times.
    """
    symbol_sq = A.squared_modulus(lattice)
    weights1 = sobolev_weights(lattice, 1.0)
    delta_max = max(delta_grid)
    ratio = symbol_sq / (delta_max**2 * weights1)
    positive = ratio > 0
    if not positive.any():
        raise ParameterError(
            "|a(l)|^2 underflows to 0 at every mode; no band to calibrate ([operator] exponent)"
        )
    # a ratio that underflowed to 0 is never the mode closest to balance
    log_ratio = np.log(ratio, out=np.full_like(ratio, np.inf), where=positive)
    center = int(np.argmin(np.abs(log_ratio)))
    c0 = 0.5 * float(ratio[center])
    c1 = 2.0 * float(ratio[center])
    for _ in range(40):
        members = [_band_members(symbol_sq, weights1, float(d), c0, c1) for d in delta_grid]
        if all(indices.size > 0 for indices in members):
            bands = [ModeBand(float(d), indices) for d, indices in zip(delta_grid, members)]
            return c0, c1, bands
        c0 *= 0.5
        c1 *= 2.0
    raise CalibrationError(
        "no (c0, c1) produced a nonempty band for every delta; "
        f"symbol squared-to-weight ratios span [{ratio.min():.3e}, {ratio.max():.3e}] "
        f"at delta = {delta_max:g}"
    )


class DivergenceRow(NamedTuple):
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


class DivergenceTables:
    """The seed-independent half of :func:`h1_divergence`.

    The constructor validates the schedule and grid, calibrates the pinch
    band (:func:`calibrate_band`), and keeps the operator's cached |a|^2 on
    ``lattice`` next to the shared (1+|l|^2) weights.
    :meth:`rows` is the per-seed kernel and :meth:`report` the summary.

    The kernel writes (1+|l|^2) |w_delta|^2 piece by piece across the CPUs
    into one lattice-sized buffer, with piece-sized temporaries, and sums it
    whole on the calling thread; the lower bound squares the band's noise
    coefficients after gathering them. Every row is the same at any CPU
    count and chunk size.
    """

    def __init__(
        self,
        A: MultiplierOperator,
        schedule: RegularizationSchedule,
        delta_grid: Sequence[float],
        seeds: Sequence[int],
        lattice: FrequencyLattice,
    ) -> None:
        self._symbol_sq = A.squared_modulus(lattice)
        if schedule.r != 1.0:
            raise ParameterError(f"divergence certificate needs r = 1, got r = {schedule.r}")
        if schedule.kappa < 2.0:
            raise ParameterError(f"divergence certificate needs kappa >= 2, got {schedule.kappa}")
        if len(delta_grid) == 0 or len(seeds) == 0:
            raise ParameterError("h1_divergence needs nonempty delta_grid and seeds")
        if max(delta_grid) > 1.0:
            raise ParameterError("divergence certificate requires deltas <= 1")
        if min(delta_grid) ** 2 < sys.float_info.min:
            raise ParameterError(
                f"divergence certificate needs delta^2 to be a normal double, got "
                f"delta = {min(delta_grid):g} ([grids] delta_grid)"
            )
        self.c0, self.c1, self.bands = calibrate_band(A, lattice, delta_grid)
        self._weights1 = sobolev_weights(lattice, 1.0)
        self._alphas = [schedule.alpha(band.delta) for band in self.bands]
        self._bound_factor = 1.0 / ((1.0 + schedule.alpha0 / self.c0) * (self.c1 + schedule.alpha0))

    def rows(self, seed: int, eps: np.ndarray) -> list:
        """One :class:`DivergenceRow` per delta for the noise draw ``eps``
        (its coefficients) of ``seed``."""
        product = np.empty(eps.size)  # (1+|l|^2) |w_delta|^2

        def weigh(start: int, stop: int) -> None:
            piece = eps[start:stop]
            symbol_sq, weights1 = self._symbol_sq[start:stop], self._weights1[start:stop]
            z = symbol_sq + alpha * weights1
            w_power = symbol_sq * (delta * delta) * (piece.real**2 + piece.imag**2) / (z * z)
            np.multiply(weights1, w_power, out=product[start:stop])

        rows = []
        # z * z may leave the double range at some modes: their share of the
        # norm is then 0 (benign) or inf/nan, which is caught below
        with np.errstate(all="ignore"):
            for band, alpha in zip(self.bands, self._alphas):
                delta = band.delta
                _map_chunks(weigh, eps.size)
                members = eps[band.member_indices]
                row = DivergenceRow(
                    delta=delta,
                    seed=int(seed),
                    band_size=int(band.member_indices.size),
                    lower_bound=self._bound_factor * float(np.sum(members.real**2 + members.imag**2)),
                    h1_norm_sq=float(np.sum(product)),
                )
                if not 0.0 < row.h1_norm_sq < math.inf:
                    raise ParameterError(
                        f"||w_delta||_H^1^2 is {row.h1_norm_sq} at delta = {delta:g}, seed = {seed}: "
                        f"(|a|^2 + alpha (1+|l|^2))^2 leaves the double range at alpha = {alpha:g} "
                        "([schedule] alpha0)"
                    )
                rows.append(row)
        return rows

    def report(self, per_seed: list) -> DivergenceReport:
        """The report over the outputs of :meth:`rows`, one per seed in seed
        order."""
        ratio_by_seed: dict[int, float] = {}
        for rows in per_seed:
            h1_norms = [math.sqrt(row.h1_norm_sq) for row in rows]
            ratio_by_seed[rows[0].seed] = min(h1_norms) / max(h1_norms)
        median_ratio = float(np.median(list(ratio_by_seed.values())))
        return DivergenceReport(
            rows=[row for rows in per_seed for row in rows],
            c0=self.c0,
            c1=self.c1,
            ratio_by_seed=ratio_by_seed,
            median_ratio=median_ratio,
        )


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

    Each seed is drawn once and only one draw is alive at a time. A deblur
    run feeds the per-seed kernel (:class:`DivergenceTables`) the same draw
    its error sweep uses, so the certificate draws nothing of its own there.
    The per-mode work runs in mode chunks across the CPUs and each sum on
    the calling thread, so the rows do not depend on the CPU count.
    """
    tables = DivergenceTables(A, schedule, delta_grid, seeds, lattice)
    rows = [
        tables.rows(seed, sample_white_noise(lattice, seed).coefficients)
        for seed in seeds
    ]
    return tables.report(rows)
