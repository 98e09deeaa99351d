"""Convergence-rate machinery: closed-form exponent predictions, log-log
slope fitting for delta sweeps, reconstruction-error sweeps, and the H^1
divergence certificate for the filtered noise part.

The sweep and the certificate each split into seed-independent tables
(:class:`SweepTables`, :class:`DivergenceTables`), per-seed sums and a
summary. Both tables are stages of one group kernel (``_pass_sums``),
which ``spectral._kernel_sums`` runs, like every sum, on mirror groups of
the lattice's leaves (``spectral._mirror_groups``): a leaf above the zero
mode with the leaves below it that hold the conjugate modes, since
position p holds the conjugate of position 2 zero - p. When the problem is
Hermitian (the symbol and the truth for the sweep, an even |a|^2 for the
certificate) each mirror pair shares every per-mode value, so the group
draws each seed's canonical modes once, and builds its a, |a|^2 and weight
tables (``spectral._leaf_tables``, which the gamma sweep shares), each
delta's factors and each seed's powers once, on its canonical modes;
otherwise each leaf draws and builds its own, on its own modes. A span is
drawn on its own (``noise._draw_span`` in d = 1), so no draw exists
lattice-wide. Each leaf then sums its own modes in its own order,
and ``spectral._kernel_sums`` adds the leaves' sums up its tree: no mirror
pair is folded into one term, so every sum keeps the summation rule of
``_kernel_sums`` (its docstring), and the bytes depend neither on the
pairing, nor on the CPU count, nor on the leaf size. No lattice-sized table
outlives a call. :func:`error_sweep`, :func:`h1_divergence` and a deblur run
all run it through one pass, ``_sweep_pass``.

The sweep's kernel takes the bias and filtered-noise parts from
``tikhonov._delta_parts`` and ``tikhonov._noise_part``, the routines that
:func:`~tikhtorus.tikhonov.solve_split` runs on the whole lattice, so the two
share one spelling of the split. Every check runs on the finished sums, in
seed order, so the error that a bad input raises does not depend on the
pieces either.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CalibrationError, DomainError, ParameterError
from .noise import _draw_span, _seed_index, sample_white_noise
from .spectral import (
    FrequencyLattice,
    MultiplierOperator,
    SpectralField,
    _kernel_sums,
    _leaf_tables,
    _mirrored,
    _mode_weights,
    _sobolev_norm,
    _squared_modulus,
    _symbol_pieces,
    finite_sobolev_weights,
    is_hermitian,
    sobolev_norm,  # not called here; the benchmark's tracer and its tests read this binding
    sobolev_weights,  # not called here; the benchmark's tests read this binding
)
from .tikhonov import RegularizationSchedule, _delta_parts, _noise_part

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
    no convergence. An argument that is not finite raises ParameterError.
    """
    for name, value in (("t", t), ("r", r), ("kappa", kappa), ("s", s), ("s1", s1)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
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
    indicator: near zero means a clean power law. A delta or error that is
    not positive and finite raises DomainError.
    """
    if len(samples) < 3:
        raise ParameterError(f"need at least 3 samples, got {len(samples)}")
    deltas = np.array([d for d, _ in samples], dtype=np.float64)
    errors = np.array([e for _, e in samples], dtype=np.float64)
    if np.any(deltas <= 0) or np.any(errors <= 0):
        raise DomainError("log-log fit needs strictly positive deltas and errors")
    if not (np.isfinite(deltas).all() and np.isfinite(errors).all()):
        raise DomainError("log-log fit needs finite deltas and errors")
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

    The constructor checks the symbol, the grids, the truth's H^r norm (its
    coefficients, its penalty weights (1+|l|^2)^r and its sum) and
    alpha(delta), in that order, and keeps alpha(delta) per delta and the
    exponents r and s1 of the pass's weight tables; it forms no
    lattice-sized table. The symbol runs once per mode, on mirror pieces
    across the CPUs (``spectral._symbol_pieces``: a piece below the zero
    mode with its mirror), which give its checks, whether it is Hermitian
    and whether |a|^2 has a zero; each leaf of the norm's sum
    (``spectral._sobolev_norm``) builds its own weights, so the norm keeps
    its summation tree and its bits.
    :meth:`result` is the summary of the errors that ``_sweep_pass`` gives.

    Per mirror group of leaves, the pass builds a, |a|^2, (1+|l|^2)^r and
    (1+|l|^2)^s1 per s1, shared with a :class:`DivergenceTables` of the same
    run. Per delta, the kernel forms the gain conj(a)/z and the bias part
    once (``tikhonov._delta_parts``); per seed, the filtered noise part, the
    deviation T(m) - u and |T(m) - u|^2 (:meth:`_powers`). When the symbol
    and the truth are Hermitian (``_even``), T(m) - u is too, so
    |T(m) - u|^2 is even bit for bit and all of this runs once per mirror
    pair, on the group's canonical modes; otherwise once per mode. Each leaf
    then sums (1+|l|^2)^s1 |T(m) - u|^2 per s1 over its own modes, read in
    its own order, and ``spectral._kernel_sums`` adds the leaves up: the
    arithmetic and summation order of
    :func:`~tikhtorus.spectral.sobolev_norm`, which is why no pair is
    folded, so each error equals that function's value on the deviation bit
    for bit.

    An error that is not finite raises a ParameterError that names
    ``[grids] s1_list`` when that s1's weights overflow, and otherwise the s1
    and delta it occurred at and ``[grids] delta_grid``. :meth:`result` refuses a seed median of 0, which
    has no logarithm, naming ``[grids] delta_grid`` and the schedule keys: a
    ParameterError at the largest delta, which normalizes the curve, and a
    DomainError at the others, which the slope fit reads.
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
        pieces = _symbol_pieces(
            A, lattice, lambda index, modes, values: (is_hermitian(values), _squared_modulus(values).all())
        )
        # a Hermitian symbol and truth give every mirror pair one |T(m) - u|^2
        self._even = truth.hermitian and all(hermitian for hermitian, _ in pieces)
        if len(delta_grid) < 1 or len(s1_list) < 1 or len(seeds) < 1:
            raise ParameterError("error_sweep needs nonempty s1_list, delta_grid, seeds")
        if any(d2 >= d1 for d1, d2 in zip(delta_grid, delta_grid[1:])):
            raise ParameterError("delta_grid must be strictly decreasing")
        self.truth, self._operator, self._lattice = truth, A, lattice
        self.s1_list = [float(s1) for s1 in s1_list]
        self.delta_grid = [float(delta) for delta in delta_grid]
        self.labels = [-1 if seed is None else int(seed) for seed in seeds]
        norm = _sobolev_norm(truth, schedule.r, f"the penalty at [schedule] r = {schedule.r:g}")
        if not math.isfinite(norm):
            raise ParameterError(
                f"truth must have finite H^r norm at [schedule] r = {schedule.r:g}: its weighted "
                "squares overflow ([truth] path)"
            )
        self._schedule = schedule
        self._alphas = [schedule.alpha(delta) for delta in self.delta_grid]
        if 0.0 in self._alphas and not all(nonzero for _, nonzero in pieces):
            raise ParameterError(
                f"alpha = alpha0 * delta^kappa underflows to 0 at delta = "
                f"{self.delta_grid[self._alphas.index(0.0)]:g} and so does |a(l)|^2 at some "
                f"mode, so the filter is 0/0 there ([schedule] alpha0 = {schedule.alpha0:g}, "
                f"kappa = {schedule.kappa:g})"
            )
        self._exponents = [float(schedule.r), *self.s1_list]  # r first
        self._sum_exponents = self.s1_list

    def _powers(self, i: int, part: slice, block: list, leaf: tuple, scratch: tuple) -> list:
        """|T(m) - u|^2 on the positions ``part`` at delta i, one table per
        noise coefficients block[j] on them, from the ``spectral._leaf_tables``
        of ``part``, formed in the pass's ``scratch`` (:func:`_scratch`); the
        pass weights each by (1+|l|^2)^s1 per s1 and sums it."""
        u = self.truth.coefficients[part]
        delta = self.delta_grid[i]
        (gain, bias, scaled, noisy), (z, square, _, *powers) = (rows[:, : u.size] for rows in scratch)
        # an inf z (alpha (1+|l|^2)^r overflows) makes the filter factors 0,
        # their value in double precision; an error that is not finite is
        # caught by _errors
        symbol, symbol_sq, weights = leaf
        with np.errstate(over="ignore", invalid="ignore"):
            _delta_parts(symbol, symbol_sq, weights[self._exponents[0]], self._alphas[i], u, out=(gain, z, bias))
            for eps, power in zip(block, powers):
                _noise_part(gain, np.multiply(delta, eps, out=scaled), out=noisy)
                deviation = np.subtract(np.add(bias, noisy, out=noisy), u, out=noisy)
                np.square(deviation.real, out=power)
                np.add(power, np.square(deviation.imag, out=square), out=power)
        return powers[: len(block)]

    def _errors(self, sums: np.ndarray) -> np.ndarray:
        """errors[k, i] = ||T(m_delta_i) - u||_{H^s1_k} of one seed from its
        sums[i, k] (delta i, s1 k), checked in (delta, s1) order."""
        errors = np.empty((len(self.s1_list), len(self.delta_grid)))
        for i, delta in enumerate(self.delta_grid):
            for k, s1 in enumerate(self.s1_list):
                error = float(np.sqrt(sums[i, k]))
                if not math.isfinite(error):
                    where = f"s1 = {s1:g}, delta = {delta:g}"
                    finite_sobolev_weights(
                        self.truth.lattice, s1, f"the error at {where} ([grids] s1_list)"
                    )
                    raise ParameterError(
                        f"error at {where} is {error}, not finite ([grids] delta_grid)"
                    )
                errors[k, i] = error
        return errors

    def result(self, per_seed: list) -> SweepResult:
        """Rows, seed medians, normalizers and slopes from the errors of
        ``_sweep_pass``, one per seed in seed order."""
        errors = np.stack(per_seed, axis=-1)  # (s1, delta, seed)
        delta_grid = self.delta_grid
        rows: list[SweepRow] = []
        median_errors: dict[float, list] = {}
        slopes: dict[float, SlopeFit] = {}
        normalizers: dict[float, float] = {}
        medians_by_s1 = np.median(errors, axis=-1).tolist()
        keys = (
            f"[grids] delta_grid, [schedule] alpha0 = {self._schedule.alpha0:g}, "
            f"kappa = {self._schedule.kappa:g}"
        )
        for s1, table, medians in zip(self.s1_list, errors.tolist(), medians_by_s1):
            median_errors[s1] = medians
            if medians[0] == 0.0:
                raise ParameterError(
                    f"median error at s1 = {s1:g}, delta = {delta_grid[0]:g} is 0, so the curve "
                    f"cannot be normalized: alpha = {self._alphas[0]:g} is too small to regularize ({keys})"
                )
            scale = 1.0 / medians[0]
            normalizers[s1] = scale
            if len(delta_grid) >= 3:
                if 0.0 in medians:  # alpha too small to regularize, or the squares underflow
                    raise DomainError(
                        f"median error at s1 = {s1:g}, delta = {delta_grid[medians.index(0.0)]:g} "
                        f"is 0 and has no logarithm for the slope fit ({keys})"
                    )
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
    The per-mode work runs in mirror groups of leaves across the CPUs, once
    per mirror pair when the symbol and the truth are Hermitian, and each
    leaf's sum keeps the summation rule of ``spectral._kernel_sums``, so the
    errors depend neither on the pairing nor on the CPU count. Every seed is
    checked before any is drawn.
    """
    tables = SweepTables(A, truth, schedule, s1_list, delta_grid, seeds)
    return tables.result(_sweep_pass(tables, None, seeds)[0])


@dataclasses.dataclass(frozen=True)
class ModeBand:
    """Modes where |a(l)|^2 is pinched between c0 and c1 times
    delta^2 (1+l^2): the frequencies the regularizer neither resolves nor
    fully suppresses at noise level delta."""

    delta: float
    member_indices: np.ndarray


def _even_modulus(index, modes, values) -> bool:
    """Whether |a|^2 is even on a piece of ``spectral._symbol_pieces``."""
    symbol_sq = _squared_modulus(values)
    return np.array_equal(symbol_sq[::-1], symbol_sq)


def calibrate_band(
    A: MultiplierOperator,
    lattice: FrequencyLattice,
    delta_grid: Sequence[float],
) -> tuple:
    """Pick (c0, c1) so the pinch band is nonempty for every delta, and
    return them with one :class:`ModeBand` per delta, from the operator's
    |a(l)|^2 on ``lattice``.

    Starts from (0.5, 2.0) times the symbol's squared-to-weight ratio at the
    mode closest to balance at the largest delta (the first such mode in
    lattice order), then widens geometrically, at most 40 times. It is a
    reduction over the mirror pieces of ``spectral._symbol_pieces``, which
    forms no lattice-sized table: one walk finds that mode and the ratio's
    range, the next gathers each delta's band members, and only a band that
    comes out empty makes the widening walk the pieces again.
    """
    delta_max = max(delta_grid)
    scale = delta_max**2

    def centre(index, modes, values) -> tuple:
        ratio = _squared_modulus(values) / (scale * _mode_weights(modes, 1.0))
        positive = ratio > 0
        # a ratio that underflowed to 0 is never the mode closest to balance
        distance = np.abs(np.log(ratio, out=np.full_like(ratio, np.inf), where=positive))
        j = int(np.argmin(distance))
        return distance[j], index[j], float(ratio[j]), ratio.min(), ratio.max(), positive.any()

    distances, positions, ratios, lows, highs, positive = zip(*_symbol_pieces(A, lattice, centre))
    if not any(positive):
        raise ParameterError(
            "|a(l)|^2 underflows to 0 at every mode; no band to calibrate ([operator] exponent)"
        )
    closest = min(range(len(ratios)), key=lambda k: (distances[k], positions[k]))
    c0, c1 = 0.5 * ratios[closest], 2.0 * ratios[closest]

    def members(index, modes, values) -> list:
        symbol_sq, weights1 = _squared_modulus(values), _mode_weights(modes, 1.0)
        return [
            index[(c0 * band_scale <= symbol_sq) & (symbol_sq <= c1 * band_scale)]
            for band_scale in (float(d) * float(d) * weights1 for d in delta_grid)
        ]

    for _ in range(40):
        found = zip(*_symbol_pieces(A, lattice, members))
        bands = [ModeBand(float(d), np.sort(np.concatenate(parts))) for d, parts in zip(delta_grid, found)]
        if all(band.member_indices.size > 0 for band in bands):
            return c0, c1, bands
        c0 *= 0.5
        c1 *= 2.0
    raise CalibrationError(
        "no (c0, c1) produced a nonempty band for every delta; "
        f"symbol squared-to-weight ratios span [{min(lows):.3e}, {max(highs):.3e}] at delta = {delta_max:g}"
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

    The constructor checks the symbol, the schedule and the grid, in that
    order, and calibrates the pinch band (:func:`calibrate_band`); it forms
    no lattice-sized table. The symbol's checks and whether |a|^2 is even
    come from one walk over the mirror pieces of
    ``spectral._symbol_pieces`` (a piece below the zero mode with its
    mirror), across the CPUs, and the calibration is a reduction over the
    same pieces. :meth:`report` is
    the summary of the rows that ``_sweep_pass`` gives.

    Per mirror group of leaves, the pass builds |a|^2 and the (1+|l|^2)
    weights, shared with a :class:`SweepTables` of the same run. Per delta,
    the kernel forms |a|^2 delta^2 and z^2 once; per seed, |w_delta|^2
    (:meth:`_powers`). When |a|^2 is even on the constructor's table
    (``_even``), so is |w_delta|^2, and this runs once per mirror pair, on
    the group's canonical modes; otherwise once per mode. Each leaf sums
    (1+|l|^2) |w_delta|^2 over its own modes in its own order, and
    ``spectral._kernel_sums`` adds the leaves up, so no pair is folded and
    each sum is the ``np.sum`` of the whole table that its summation rule
    names. The lower bound squares the band's noise coefficients after
    reading them.
    """

    def __init__(
        self,
        A: MultiplierOperator,
        schedule: RegularizationSchedule,
        delta_grid: Sequence[float],
        seeds: Sequence[int],
        lattice: FrequencyLattice,
    ) -> None:
        # the symbol's checks come first; an even |a|^2 gives every mirror pair one |w_delta|^2
        even = all(_symbol_pieces(A, lattice, _even_modulus))
        if schedule.r != 1.0:
            raise ParameterError(f"divergence certificate needs r = 1, got r = {schedule.r}")
        if schedule.kappa < 2.0:
            raise ParameterError(f"divergence certificate needs kappa >= 2, got {schedule.kappa}")
        if len(delta_grid) == 0 or len(seeds) == 0:
            raise ParameterError("h1_divergence needs nonempty delta_grid and seeds")
        if max(delta_grid) > 1.0:
            raise ParameterError("divergence certificate requires deltas <= 1")
        if min(delta_grid) < 0:  # before it is squared, which may overflow
            raise ParameterError(f"delta must be positive, got {min(delta_grid)}")
        if min(delta_grid) ** 2 < sys.float_info.min:
            raise ParameterError(
                f"divergence certificate needs delta^2 to be a normal double, got "
                f"delta = {min(delta_grid):g} ([grids] delta_grid)"
            )
        self.c0, self.c1, self.bands = calibrate_band(A, lattice, delta_grid)
        self._operator, self._lattice, self._exponents = A, lattice, [1.0]
        self._sum_exponents = self._exponents
        self._alphas = [schedule.alpha(band.delta) for band in self.bands]
        self._bound_factor = 1.0 / ((1.0 + schedule.alpha0 / self.c0) * (self.c1 + schedule.alpha0))
        self._even = even

    def _powers(self, i: int, part: slice, block: list, leaf: tuple, scratch: tuple) -> list:
        """|w_delta|^2 on the positions ``part`` at delta i, one table per
        noise coefficients block[j] on them, from the ``spectral._leaf_tables``
        of ``part``, formed in the pass's ``scratch`` (:func:`_scratch`); the
        pass weights each by (1+|l|^2) and sums it."""
        symbol_sq, weights1 = leaf[1], leaf[2][1.0]
        alpha, delta = self._alphas[i], self.bands[i].delta
        z_sq, square, scaled_sq, *powers = scratch[1][:, : symbol_sq.size]
        # z * z may leave the double range at some modes: their share of the
        # norm is then 0 (benign) or inf/nan, which _rows catches
        with np.errstate(all="ignore"):
            np.add(symbol_sq, np.multiply(alpha, weights1, out=z_sq), out=z_sq)  # z, then z^2 in place
            np.multiply(z_sq, z_sq, out=z_sq)
            np.multiply(symbol_sq, delta * delta, out=scaled_sq)
            for eps, power in zip(block, powers):
                np.add(np.square(eps.real, out=power), np.square(eps.imag, out=square), out=power)
                np.divide(np.multiply(scaled_sq, power, out=power), z_sq, out=power)
        return powers[: len(block)]

    def _rows(self, seed: int, h1_sums: np.ndarray, noise: Callable) -> list:
        """One :class:`DivergenceRow` per delta of one seed from its sums per
        delta and ``noise(start, stop)``, its coefficients on the modes
        [start, stop), checked in delta order."""
        rows = []
        with np.errstate(all="ignore"):
            for band, alpha, h1_norm_sq in zip(self.bands, self._alphas, h1_sums.tolist()):
                indices = band.member_indices  # sorted; read run by run
                runs = np.split(indices, np.flatnonzero(np.diff(indices) != 1) + 1)
                members = np.concatenate([noise(int(run[0]), int(run[-1]) + 1) for run in runs])
                row = DivergenceRow(
                    delta=band.delta,
                    seed=int(seed),
                    band_size=int(indices.size),
                    lower_bound=self._bound_factor * float(np.sum(members.real**2 + members.imag**2)),
                    h1_norm_sq=h1_norm_sq,
                )
                if not 0.0 < row.h1_norm_sq < math.inf:
                    raise ParameterError(
                        f"||w_delta||_H^1^2 is {row.h1_norm_sq} at delta = {band.delta:g}, seed = {seed}: "
                        f"(|a|^2 + alpha (1+|l|^2))^2 leaves the double range at alpha = {alpha:g} "
                        "([schedule] alpha0)"
                    )
                rows.append(row)
        return rows

    def report(self, per_seed: list) -> DivergenceReport:
        """The report over the rows of ``_sweep_pass``, one list per seed in
        seed order."""
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

    The per-mode work runs in mirror groups of leaves across the CPUs, once
    per mirror pair when |a|^2 is even, and each leaf's sum keeps the
    summation rule of ``spectral._kernel_sums``, so the rows depend neither
    on the pairing nor on the CPU count. Every seed is checked before any is
    drawn.
    """
    tables = DivergenceTables(A, schedule, delta_grid, seeds, lattice)
    return tables.report(_sweep_pass(None, tables, seeds)[1])


# seeds whose draws a group of the pass holds at once, so a worker's scratch
# grows with neither the seed count nor the delta grid. Each delta's factors
# are formed once per block. A block of 2 is 1 MiB of draws per worker on a
# group's 32,768 canonical modes; 8 (4 MiB) ran 0.03-0.05 s faster on
# 524,289 modes and 5 seeds, but made a 40-seed run peak 40 % above a
# 2-seed one
_SEED_BLOCK = 2


def _scratch(size: int) -> tuple:
    """The buffers in which a block of the pass forms every stage's per-mode
    tables on a part of up to ``size`` modes (``_powers``): 4 complex rows
    and 3 + ``_SEED_BLOCK`` real ones, the last ``_SEED_BLOCK`` for the
    powers. Each block allocates them once, after its draws, so a worker's
    memory stays level from one delta and stage to the next, and the pass's
    peak does not hang on how its workers' steps interleave."""
    return np.empty((4, size), dtype=np.complex128), np.empty((3 + _SEED_BLOCK, size))


def _pass_sums(lattice: FrequencyLattice, noise: Callable, seeds: Sequence, stages: list) -> np.ndarray:
    """sums[j, i, :] of seeds[j] at delta i: the sums of each of ``stages``
    (a :class:`SweepTables` and/or a :class:`DivergenceTables` of one
    operator on ``lattice`` with the same delta grid), side by side, one per
    exponent of its ``_sum_exponents``, from the one group kernel.

    The kernel runs on the mirror groups of ``spectral._kernel_sums``: a
    leaf above the zero mode with the leaves below it whose mirrors it
    holds. It works on parts of a group: when every stage is even (a
    Hermitian symbol and truth; an even |a|^2), one part, the group's span
    (its canonical modes, and the zero mode if the group holds it), on
    which it builds the tables (``spectral._leaf_tables``) and the per-mode
    powers once; otherwise one part per leaf, its own positions.
    ``noise(seed, start, stop)`` gives the seed's coefficients on the modes
    [start, stop); the kernel asks once for each seed and part, a block of
    seeds at a time, before the block's scratch is allocated. Each leaf then
    weights the powers it reads in its own order (``spectral._mirrored``)
    into a buffer and sums it, so that each leaf's sum is the ``np.sum``
    that the summation rule of ``_kernel_sums`` asks for, and no mirror pair
    is added up before it."""
    deltas = len(stages[0]._alphas)
    exponents = {s for stage in stages for s in stage._exponents}
    columns = list(itertools.accumulate((len(stage._sum_exponents) for stage in stages), initial=0))
    paired = all(stage._even for stage in stages)
    zero = lattice.zero_index

    def kernel(span: slice, pieces: list) -> list:
        if paired:  # one part, the span, that every piece reads mirrored
            parts = [(span, range(len(pieces)))]
        else:  # one part per piece, on its own positions
            parts = [(piece, [v]) for v, piece in enumerate(pieces)]

        def read(table: np.ndarray, v: int) -> np.ndarray:
            """Piece v's entries of a table on its part, in the piece's order."""
            return _mirrored(table, pieces[v], zero, span.start - zero) if paired else table

        leaves = [_leaf_tables(stages[0]._operator, lattice, part, exponents) for part, _ in parts]
        weights = [{s: read(w, v) for s, w in leaf[2].items()} for leaf, (_, vs) in zip(leaves, parts) for v in vs]
        sums = np.empty((len(pieces), len(seeds), deltas, columns[-1]))
        product = np.empty(max(piece.stop - piece.start for piece in pieces))

        def block(first: int) -> None:
            """The sums of the block of seeds from seeds[first] on; its draws
            and scratch are freed on return, before the next block draws."""
            block_seeds = seeds[first : first + _SEED_BLOCK]
            draws = [[noise(seed, part.start, part.stop) for seed in block_seeds] for part, _ in parts]
            scratch = _scratch(max(leaf[1].size for leaf in leaves))
            for (part, vs), leaf, eps in zip(parts, leaves, draws):
                for i, (stage, column) in itertools.product(range(deltas), zip(stages, columns)):
                    for j, power in enumerate(stage._powers(i, part, eps, leaf, scratch), start=first):
                        for v in vs:
                            values, out = read(power, v), product[: pieces[v].stop - pieces[v].start]
                            sums[v, j, i, column : column + len(stage._sum_exponents)] = [
                                np.sum(np.multiply(weights[v][s], values, out=out))
                                for s in stage._sum_exponents
                            ]

        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, len(seeds), _SEED_BLOCK):
                block(first)
        return list(sums.reshape(len(pieces), -1))

    return _kernel_sums(lattice, kernel).reshape(len(seeds), deltas, -1)


def _sweep_pass(sweep: SweepTables | None, certificate: DivergenceTables | None, seeds: Sequence) -> tuple:
    """The errors of ``sweep`` and the rows of ``certificate``, one per seed
    (an empty list for a stage that is None), from the one group kernel
    (``_pass_sums``). Every seed is checked before any draw; a None seed,
    the noise-free pipeline, has zero noise and no certificate.

    In d = 1 every seed runs in one pass: each part of ``_pass_sums`` is
    drawn straight from the seed's stream (``noise._draw_span``; for a
    Hermitian problem, the group's canonical modes once), so no draw exists
    lattice-wide; the certificate's lower bound reads its band members the
    same way. In d >= 2 a span cannot be drawn on its own, so each seed is
    drawn whole and runs in a pass of its own, which builds the group tables
    again, and one draw is alive at a time. Each leaf's sum is taken in the
    leaf's own order, so the values are those of the per-mode formulas
    summed by ``spectral._kernel_sums``.
    The checks run on the finished sums, per seed the sweep's and then the
    certificate's, in seed order."""
    for seed in seeds:
        if seed is not None or certificate is not None:
            _seed_index(seed)
    stages = [stage for stage in (sweep, certificate) if stage is not None]
    lattice = stages[0]._lattice
    errors, rows = [], []
    for group in [seeds] if lattice.dimension == 1 else [[seed] for seed in seeds]:
        draw = None  # frees the last seed's draw before the next is made
        if lattice.dimension > 1 and group[0] is not None:
            draw = sample_white_noise(lattice, group[0]).coefficients

        def noise(seed, start: int, stop: int) -> np.ndarray:
            if seed is None:
                return np.zeros(stop - start, dtype=np.complex128)
            return _draw_span(lattice, seed, start, stop) if draw is None else draw[start:stop]

        for seed, sums in zip(group, _pass_sums(lattice, noise, group, stages)):
            if sweep is not None:
                errors.append(sweep._errors(sums[:, : len(sweep.s1_list)]))
            if certificate is not None:
                rows.append(certificate._rows(seed, sums[:, -1], functools.partial(noise, seed)))
    return errors, rows
