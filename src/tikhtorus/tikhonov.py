"""Spectral Tikhonov regularization: measurement model, closed-form solver,
and the bias/noise decomposition of the regularized reconstruction.

For a multiplier forward map the penalized least-squares problem

    minimize ||A u - m||_{L^2}^2 + alpha ||u||_{H^r}^2

decouples mode by mode, and the minimizer is

    u(l) = conj(a(l)) m(l) / z(l),     z(l) = |a(l)|^2 + alpha (1+|l|^2)^r.

Everything in this module is O(mode count); no matrix is ever formed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InvalidFieldError, ParameterError
from .spectral import (
    MultiplierOperator,
    SpectralField,
    _leaf_tables,
    _sobolev_norm,
    apply_multiplier,
    finite_sobolev_weights,
)

__all__ = [
    "RegularizationSchedule",
    "Measurement",
    "TikhonovSplit",
    "forward",
    "solve",
    "solve_split",
    "bias_bound_check",
    "BiasBound",
    "functional",
    "data_shifted_functional",
    "stationarity_defect",
]


@dataclasses.dataclass(frozen=True)
class RegularizationSchedule:
    """Noise-driven penalty rule alpha(delta) = alpha0 * delta^kappa with an
    H^r penalty."""

    alpha0: float
    kappa: float
    r: float

    def __post_init__(self) -> None:
        if not self.alpha0 > 0:
            raise ParameterError(f"alpha0 must be positive, got {self.alpha0}")
        if not self.kappa > 0:
            raise ParameterError(f"kappa must be positive, got {self.kappa}")
        if not self.r >= 0:
            raise ParameterError(f"penalty order r must be >= 0, got {self.r}")

    def alpha(self, delta: float) -> float:
        if not delta > 0:
            raise ParameterError(f"delta must be positive, got {delta}")
        try:
            alpha = self.alpha0 * delta**self.kappa
        except OverflowError:  # a delta above 1 to a huge kappa
            alpha = math.inf
        if alpha == math.inf:
            raise ParameterError(
                f"alpha = alpha0 * delta^kappa overflows at delta = {delta:g} "
                f"([schedule] alpha0 = {self.alpha0:g}, kappa = {self.kappa:g})"
            )
        return alpha


@dataclasses.dataclass(frozen=True, eq=False)
class Measurement:
    """Synthetic data m = A u + delta * noise next to the truth u and the
    noise draw it was made from, all three fields on one lattice, so that a
    reconstruction can be split into bias and noise parts."""

    data: SpectralField
    delta: float
    noise: SpectralField
    truth: SpectralField

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ParameterError(f"delta must be positive, got {self.delta}")
        for name, other in (("noise", self.noise), ("truth", self.truth)):
            if other.lattice != self.data.lattice:
                raise DimensionError(f"{name} lattice differs from data lattice")


@dataclasses.dataclass(frozen=True, eq=False)
class TikhonovSplit:
    """reconstruction = bias_part + noise_part, exactly per mode."""

    reconstruction: SpectralField
    bias_part: SpectralField
    noise_part: SpectralField


def forward(
    A: MultiplierOperator,
    truth: SpectralField,
    delta: float,
    noise: SpectralField,
) -> Measurement:
    """Synthesize the measurement m = A u + delta * eps on the truth lattice,
    as one array expression with the operations, in order, of
    ``apply_multiplier(A, truth) + delta * noise``: bit for bit that sum.
    Data that leave the double range (a huge delta) raise ParameterError."""
    if truth.lattice != noise.lattice:
        raise DimensionError("truth and noise live on different lattices")
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    values = A.symbol_values(truth.lattice)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = values * truth.coefficients + noise.coefficients * delta
    if not np.isfinite(coeffs.view(np.float64)).all():
        raise ParameterError(
            f"the data a u + delta eps are not finite at delta = {delta:g} ([grids] delta_grid)"
        )
    data = SpectralField(truth.lattice, coeffs)
    return Measurement(data=data, delta=delta, noise=noise, truth=truth)


def solve(A: MultiplierOperator, m: SpectralField, alpha: float, r: float) -> SpectralField:
    """Closed-form regularized reconstruction from data m.

    Per mode: conj(a) * m / (|a|^2 + alpha (1+|l|^2)^r). The denominator is
    strictly positive for alpha > 0, so the solve never degenerates even
    where the symbol is tiny. The tables a, |a|^2 and (1+|l|^2)^r come from
    one ``spectral._leaf_tables`` call over the whole lattice, so the symbol
    callable runs once.
    """
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not r >= 0:
        raise ParameterError(f"penalty order r must be >= 0, got {r}")
    lattice, r = m.lattice, float(r)
    with np.errstate(over="ignore"):  # see _gain
        symbol, symbol_sq, weights = _leaf_tables(A, lattice, slice(0, lattice.mode_count), (r,))
        gain, _ = _gain(symbol, symbol_sq, weights[r], alpha)
    return SpectralField(lattice, np.multiply(gain, m.coefficients))


def _gain(
    symbol: np.ndarray, symbol_sq: np.ndarray, weights_r: np.ndarray, alpha: float, out: tuple = (None, None)
) -> tuple:
    """The filter gain conj(a)/z and z = |a|^2 + alpha (1+|l|^2)^r, from
    matching slices of the per-mode tables a, |a|^2 and (1+|l|^2)^r: the one
    spelling of the filter. :func:`solve` passes whole lattices and the gamma
    sweep (``discrete.gamma_sweep``) one piece at a time, each forming the
    minimizer ``np.multiply(gain, m)``, and :func:`_delta_parts` builds the
    split on it, so every route gets the same bits.

    Operand order: complex a * b and b * a round differently, and numpy
    computes a * (temporary) of 256 KiB or more in place as (temporary) * a.
    So every product here and in :func:`_delta_parts` is an explicit ufunc
    call with its operands in the order of the formula. The caller sets
    ``np.errstate``; where alpha (1+|l|^2)^r overflows, z = inf makes the
    filter factors 0, their value in double precision. ``out`` may hold a
    buffer for the gain and one for z, which the sweep kernel reuses: a
    product written into a buffer of its own rounds as one into a fresh
    array (only an in-place one differs, see :func:`_noise_part`).
    """
    z = np.multiply(alpha, weights_r, out=out[1])
    np.add(symbol_sq, z, out=z)
    gain = np.conjugate(symbol, out=out[0])
    return np.divide(gain, z, out=gain), z


def _delta_parts(
    symbol: np.ndarray,
    symbol_sq: np.ndarray,
    weights_r: np.ndarray,
    alpha: float,
    u: np.ndarray,
    out: tuple = (None, None, None),
) -> tuple:
    """The per-delta half of the split: the filter gain conj(a)/z of
    :func:`_gain` and the bias part (|a|^2/z) u, from matching slices of the
    per-mode tables a, |a|^2 and (1+|l|^2)^r and of the truth coefficients
    u. :func:`_noise_part` is the per-seed half. :func:`solve_split` passes
    whole lattices, the sweep kernel (``rates.SweepTables``) one piece at a
    time, forming these once per delta for many seeds; this is the one
    spelling of the split, so both get the same bits. ``out`` may hold
    buffers for the gain, z and the bias part (:func:`_gain`).
    """
    gain, z = _gain(symbol, symbol_sq, weights_r, alpha, out[:2])
    return gain, np.multiply(np.divide(symbol_sq, z, out=z), u, out=out[2])


def _noise_part(gain: np.ndarray, scaled_noise: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The filtered-noise part (conj(a)/z) (delta eps) from the gain of
    :func:`_delta_parts` and ``scaled_noise`` = ``np.multiply(delta, eps)``,
    in a fresh array or in the buffer ``out``. Never in place: an in-place
    complex product over a one-element array rounds differently from the
    vector loop, and a piece can hold one mode."""
    return np.multiply(gain, scaled_noise, out=out)


def solve_split(
    A: MultiplierOperator, meas: Measurement, schedule: RegularizationSchedule
) -> TikhonovSplit:
    """Reconstruction split into the deterministic bias part
    |a|^2 u / z and the filtered-noise part conj(a) delta eps / z, from the
    truth and noise the measurement records.

    The parts sum to the reconstruction exactly because the sum is formed
    per mode. The tables a, |a|^2 and (1+|l|^2)^r come from one
    ``spectral._leaf_tables`` call over the whole lattice, as in :func:`solve`.
    """
    alpha, r = schedule.alpha(meas.delta), float(schedule.r)
    lattice = meas.data.lattice
    scaled_noise = np.multiply(meas.delta, meas.noise.coefficients)
    with np.errstate(over="ignore"):
        symbol, symbol_sq, weights = _leaf_tables(A, lattice, slice(0, lattice.mode_count), (r,))
        gain, bias_part = _delta_parts(symbol, symbol_sq, weights[r], alpha, meas.truth.coefficients)
        parts = bias_part, _noise_part(gain, scaled_noise)
    bias, noise_part = (SpectralField(lattice, coeffs) for coeffs in parts)
    reconstruction = bias + noise_part
    return TikhonovSplit(reconstruction=reconstruction, bias_part=bias, noise_part=noise_part)


class BiasBound(NamedTuple):
    observed: float
    bound: float


def bias_bound_check(
    A: MultiplierOperator,
    truth: SpectralField,
    schedule: RegularizationSchedule,
    delta: float,
    zeta: float,
) -> BiasBound:
    """H^zeta norm of the bias deviation u - v_delta next to its a-priori bound.

    The deviation is alpha (1+|l|^2)^r u / z per mode. Interpolating the two
    lower bounds z >= c_op (1+|l|^2)^(-t) and z >= alpha (1+|l|^2)^r with
    exponents gamma = (2r + theta) / (2(t+r)), eta = 1 - gamma,
    theta = -(r + zeta), gives

        observed <= c_op^(-gamma) * alpha0^(1-eta)
                    * delta^(kappa (r - zeta) / (2(t+r))) * ||u||_{H^r}

    where c_op = min_l |a(l)|^2 (1+|l|^2)^t is measured by a direct lattice
    scan, so the inequality holds mode by mode on the truncated lattice.
    Valid for -r - 2t <= zeta <= r. The tables |a|^2 and (1+|l|^2)^s for
    s = r, zeta, t come from one ``spectral._leaf_tables`` call; truth
    coefficients that are not finite raise InvalidFieldError, weights that
    overflow a ParameterError naming r, zeta or t, alpha (1+|l|^2)^r that
    overflows one naming alpha, and a deviation norm or H^r norm that
    overflows one naming truth, with no warning.
    """
    t = A.smoothing
    r = schedule.r
    if t <= 0:
        raise ParameterError("bias bound requires a smoothing operator (order < 0)")
    if zeta < -r - 2 * t or zeta > r:
        raise ParameterError(f"zeta must lie in [-r-2t, r] = [{-r - 2 * t}, {r}]")
    alpha = schedule.alpha(delta)
    lattice, coeffs = truth.lattice, truth.coefficients
    exponents = {"r": float(r), "zeta": float(zeta), "t": float(t)}
    _, symbol_sq, weights = _leaf_tables(A, lattice, slice(0, lattice.mode_count), exponents.values())
    if not np.isfinite(coeffs.view(np.float64)).all():
        raise InvalidFieldError("field has non-finite coefficients")
    for name, s in exponents.items():
        if not np.isfinite(weights[s]).all():
            raise ParameterError(
                f"(1+|l|^2)^{name} is not finite at {name} = {s:g}: it overflows on bandlimit {lattice.bandlimit}"
            )
    weights_r = weights[exponents["r"]]
    with np.errstate(over="ignore"):  # refused below
        penalty = alpha * weights_r
    if not np.isfinite(penalty).all():
        raise ParameterError(f"alpha (1+|l|^2)^r is not finite at alpha = {alpha:g}, r = {r:g}")
    deviation = (penalty / (symbol_sq + penalty)) * coeffs
    with np.errstate(over="ignore"):  # refused below
        observed = float(np.sqrt(np.sum(weights[exponents["zeta"]] * np.abs(deviation) ** 2)))
        # sobolev_norm(truth, r): the whole-table sum that its pass adds up leaf by leaf
        norm_r = float(np.sqrt(np.sum(np.multiply(weights_r, coeffs.real**2 + coeffs.imag**2))))
    if not (math.isfinite(observed) and math.isfinite(norm_r)):
        raise ParameterError(
            f"the bias deviation's H^zeta norm or ||truth||_{{H^r}} is not finite at zeta = {zeta:g}, "
            f"r = {r:g}: the weighted squares of truth overflow"
        )

    theta = -(r + zeta)
    gamma = (2 * r + theta) / (2 * (t + r))
    eta = (2 * t - theta) / (2 * (t + r))
    c_op = float(np.min(symbol_sq * weights[exponents["t"]]))
    exponent = schedule.kappa * (r - zeta) / (2 * (t + r))
    bound = c_op ** (-gamma) * schedule.alpha0 ** (1.0 - eta) * delta**exponent * norm_r
    return BiasBound(observed=observed, bound=bound)


def _penalized(fit: float, what: str, alpha: float, r: float, u: SpectralField) -> float:
    """fit + alpha ||u||_{H^r}^2 for the functionals, or a ParameterError
    naming m and u when the fit term ``what`` overflowed, one naming r when
    the penalty weights or the H^r norm overflow, and one naming alpha when
    the value does."""
    if not math.isfinite(fit):
        raise ParameterError(f"the fit term {what} is not finite: the coefficients of m or u are too large")
    norm = _sobolev_norm(u, r, f"the penalty at r = {r:g}")
    if not math.isfinite(norm):
        raise ParameterError(f"the penalty at r = {r:g} is not finite: ||u||_{{H^r}} overflows")
    value = fit + alpha * norm**2
    if not math.isfinite(value):
        raise ParameterError(f"the functional is not finite at alpha = {alpha:g}: alpha ||u||_{{H^r}}^2 overflows")
    return value


def functional(
    A: MultiplierOperator, m: SpectralField, alpha: float, r: float, u: SpectralField
) -> float:
    """Penalized least-squares value ||A u - m||_{L^2}^2 + alpha ||u||_{H^r}^2.
    A fit term that overflows raises a ParameterError naming m and u,
    penalty weights or an H^r norm that overflow one naming r, and a value
    that overflows one naming alpha, with no warning."""
    image = apply_multiplier(A, u).coefficients
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _penalized
        residual = image - m.coefficients
        fit = float(np.sum(residual.real**2 + residual.imag**2))
    return _penalized(fit, "||A u - m||^2", alpha, r, u)


def data_shifted_functional(
    A: MultiplierOperator, m: SpectralField, alpha: float, r: float, u: SpectralField
) -> float:
    """||A u||^2 - 2 <m, A u> + alpha ||u||_{H^r}^2: the objective with the
    data-only constant removed, the form that stays finite when the data is
    rougher than L^2. A fit term that overflows raises a ParameterError
    naming m and u, penalty weights or an H^r norm that overflow one naming
    r, and a value that overflows one naming alpha, with no warning."""
    image = apply_multiplier(A, u).coefficients
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _penalized
        pairing = float(np.sum((m.coefficients * image.conj()).real))
        energy = float(np.sum(image.real**2 + image.imag**2))
    return _penalized(energy - 2.0 * pairing, "||A u||^2 - 2 <m, A u>", alpha, r, u)


def stationarity_defect(
    A: MultiplierOperator,
    m: SpectralField,
    alpha: float,
    r: float,
    u: SpectralField,
    step: float = 1e-6,
) -> float:
    """Largest decrease of the functional over single-mode perturbations of
    size ``step`` in the four coordinate directions (+-h, +-ih).

    Perturbing one mode only changes that mode's terms, so the difference is
    evaluated per mode without re-summing the whole functional. A true
    minimizer returns a defect <= 0 up to roundoff. Penalty weights
    (1+|l|^2)^r or alpha (1+|l|^2)^r that overflow, a step that is not
    finite, and a step so large that a per-mode change overflows, raise a
    ParameterError naming r, alpha or step, with no warning.
    """
    values = A.symbol_values(u.lattice)
    with np.errstate(over="ignore"):  # refused below
        penalty = alpha * finite_sobolev_weights(u.lattice, r, f"the penalty at r = {r:g}")
    if not np.isfinite(penalty).all():
        raise ParameterError(f"alpha (1+|l|^2)^r is not finite at alpha = {alpha:g}, r = {r:g}")
    if not math.isfinite(step):
        raise ParameterError(f"step must be finite, got {step}")
    base_residual = values * u.coefficients - m.coefficients

    def change(before: np.ndarray, after: np.ndarray) -> np.ndarray:  # |after|^2 - |before|^2
        return after.real**2 + after.imag**2 - before.real**2 - before.imag**2

    worst = -np.inf
    for direction in (step, -step, 1j * step, -1j * step):
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            fit_change = change(base_residual, base_residual + values * direction)
            total = fit_change + penalty * change(u.coefficients, u.coefficients + direction)
        if not np.isfinite(total).all():
            raise ParameterError(f"step = {step:g} is too large: a per-mode change of the functional overflows")
        worst = max(worst, float(np.max(-total)))
    return worst
