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

from .errors import DimensionError, ParameterError
from .spectral import (
    FrequencyLattice,
    MultiplierOperator,
    SpectralField,
    apply_multiplier,
    sobolev_norm,
    sobolev_weights,
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
    ``apply_multiplier(A, truth) + delta * noise``: bit for bit that sum."""
    if truth.lattice != noise.lattice:
        raise DimensionError("truth and noise live on different lattices")
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    values = A.symbol_values(truth.lattice)
    coeffs = values * truth.coefficients + noise.coefficients * delta
    data = SpectralField(truth.lattice, coeffs)
    return Measurement(data=data, delta=delta, noise=noise, truth=truth)


def _denominator(
    A: MultiplierOperator, lattice: FrequencyLattice, alpha: float, r: float
) -> np.ndarray:
    # where alpha (1+|l|^2)^r overflows, z = inf makes the filter factors 0,
    # which is their value in double precision
    with np.errstate(over="ignore"):
        return A.squared_modulus(lattice) + alpha * sobolev_weights(lattice, r)


def solve(A: MultiplierOperator, m: SpectralField, alpha: float, r: float) -> SpectralField:
    """Closed-form regularized reconstruction from data m.

    Per mode: conj(a) * m / (|a|^2 + alpha (1+|l|^2)^r). The denominator is
    strictly positive for alpha > 0, so the solve never degenerates even
    where the symbol is tiny.
    """
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not r >= 0:
        raise ParameterError(f"penalty order r must be >= 0, got {r}")
    filter_values = A.symbol_values(m.lattice).conj() / _denominator(A, m.lattice, alpha, r)
    return SpectralField(m.lattice, filter_values * m.coefficients)


def _split(
    symbol: np.ndarray, symbol_sq: np.ndarray, weights_r: np.ndarray, alpha: float,
    u: np.ndarray, scaled_noise: np.ndarray,
) -> tuple:
    """The bias part (|a|^2/z) u and the filtered-noise part
    (conj(a)/z) (delta eps), z = |a|^2 + alpha (1+|l|^2)^r, from matching
    slices of the per-mode tables a, |a|^2 and (1+|l|^2)^r, of the truth
    coefficients u and of ``scaled_noise`` = ``np.multiply(delta, eps)``.
    :func:`solve_split` passes whole lattices, the sweep kernel
    (``rates.SweepTables.errors``) one piece at a time; this is the one
    spelling of the split, so both get the same bits.

    Operand order: complex a * b and b * a round differently, and numpy
    computes a * (temporary) of 256 KiB or more in place as (temporary) * a.
    So every product here is an explicit ufunc call with its operands in
    the order of the formula, and the noise product is out of place: an
    in-place complex product over a one-element array rounds differently
    from the vector loop, and a piece can hold one mode. The caller sets
    ``np.errstate``; where alpha (1+|l|^2)^r overflows, z = inf makes both
    filter factors 0, their value in double precision.
    """
    z = np.multiply(alpha, weights_r)
    np.add(symbol_sq, z, out=z)
    gain = np.conjugate(symbol)
    np.divide(gain, z, out=gain)
    noise_part = np.multiply(gain, scaled_noise)
    ratio = np.divide(symbol_sq, z, out=z)
    bias_part = np.multiply(ratio, u, out=gain)
    return bias_part, noise_part


def solve_split(
    A: MultiplierOperator, meas: Measurement, schedule: RegularizationSchedule
) -> TikhonovSplit:
    """Reconstruction split into the deterministic bias part
    |a|^2 u / z and the filtered-noise part conj(a) delta eps / z, from the
    truth and noise the measurement records.

    The parts sum to the reconstruction exactly because the sum is formed
    per mode.
    """
    alpha = schedule.alpha(meas.delta)
    lattice = meas.data.lattice
    scaled_noise = np.multiply(meas.delta, meas.noise.coefficients)
    with np.errstate(over="ignore"):
        tables = A.symbol_values(lattice), A.squared_modulus(lattice), sobolev_weights(lattice, schedule.r)
        parts = _split(*tables, alpha, meas.truth.coefficients, scaled_noise)
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
    Valid for -r - 2t <= zeta <= r.
    """
    t = A.smoothing
    r = schedule.r
    if t <= 0:
        raise ParameterError("bias bound requires a smoothing operator (order < 0)")
    if zeta < -r - 2 * t or zeta > r:
        raise ParameterError(f"zeta must lie in [-r-2t, r] = [{-r - 2 * t}, {r}]")
    alpha = schedule.alpha(delta)
    z = _denominator(A, truth.lattice, alpha, r)
    weights_r = sobolev_weights(truth.lattice, r)
    deviation = (alpha * weights_r / z) * truth.coefficients
    observed = float(
        np.sqrt(
            np.sum(sobolev_weights(truth.lattice, zeta) * np.abs(deviation) ** 2)
        )
    )

    theta = -(r + zeta)
    gamma = (2 * r + theta) / (2 * (t + r))
    eta = (2 * t - theta) / (2 * (t + r))
    c_op = float(np.min(A.squared_modulus(truth.lattice) * sobolev_weights(truth.lattice, t)))
    exponent = schedule.kappa * (r - zeta) / (2 * (t + r))
    bound = (
        c_op ** (-gamma)
        * schedule.alpha0 ** (1.0 - eta)
        * delta**exponent
        * sobolev_norm(truth, r)
    )
    return BiasBound(observed=observed, bound=bound)


def functional(
    A: MultiplierOperator, m: SpectralField, alpha: float, r: float, u: SpectralField
) -> float:
    """Penalized least-squares value ||A u - m||_{L^2}^2 + alpha ||u||_{H^r}^2."""
    residual = apply_multiplier(A, u).coefficients - m.coefficients
    fit = float(np.sum(residual.real**2 + residual.imag**2))
    return fit + alpha * sobolev_norm(u, r) ** 2


def data_shifted_functional(
    A: MultiplierOperator, m: SpectralField, alpha: float, r: float, u: SpectralField
) -> float:
    """||A u||^2 - 2 <m, A u> + alpha ||u||_{H^r}^2: the objective with the
    data-only constant removed, the form that stays finite when the data is
    rougher than L^2."""
    image = apply_multiplier(A, u).coefficients
    pairing = float(np.sum((m.coefficients * image.conj()).real))
    energy = float(np.sum(image.real**2 + image.imag**2))
    return energy - 2.0 * pairing + alpha * sobolev_norm(u, r) ** 2


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
    minimizer returns a defect <= 0 up to roundoff.
    """
    values = A.symbol_values(u.lattice)
    weights = sobolev_weights(u.lattice, r)
    base_residual = values * u.coefficients - m.coefficients

    worst = -np.inf
    for direction in (step, -step, 1j * step, -1j * step):
        shifted_residual = base_residual + values * direction
        fit_change = (
            shifted_residual.real**2
            + shifted_residual.imag**2
            - base_residual.real**2
            - base_residual.imag**2
        )
        shifted_coeff = u.coefficients + direction
        penalty_change = alpha * weights * (
            shifted_coeff.real**2
            + shifted_coeff.imag**2
            - u.coefficients.real**2
            - u.coefficients.imag**2
        )
        decrease = -(fit_change + penalty_change)
        worst = max(worst, float(np.max(decrease)))
    return worst
