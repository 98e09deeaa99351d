"""Spectral substrate: frequency lattices on the torus, coefficient fields,
fractional Sobolev norms, and diagonal Fourier-multiplier operators.

Conventions
-----------
The torus has unit period and the basis functions are
``e_l(x) = exp(2j*pi*l.x)`` for integer frequency vectors ``l``. All
operators act directly on integer mode indices, so ``(I - Laplacian)``
multiplies mode ``l`` by ``1 + |l|^2`` exactly.

A lattice of bandlimit ``M`` holds every mode with max-norm at most ``M``,
enumerated lexicographically with each axis running ``-M..M``. The
enumeration is deterministic: position ``i`` and position ``count-1-i``
always hold opposite modes, which makes Hermitian symmetry a simple array
reversal.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DimensionError,
    InvalidFieldError,
    NotRealValuedError,
    ParameterError,
    TruncationRangeError,
)

__all__ = [
    "FrequencyLattice",
    "SpectralField",
    "MultiplierOperator",
    "Ellipticity",
    "zero_field",
    "single_mode_field",
    "sobolev_weights",
    "finite_sobolev_weights",
    "sobolev_norm",
    "apply_multiplier",
    "truncate",
    "evaluate_on_grid",
    "field_from_grid",
    "power_law_operator",
    "deblur_operator",
    "check_ellipticity",
]


@lru_cache(maxsize=64)
def _mode_table(dimension: int, bandlimit: int) -> np.ndarray:
    axis = np.arange(-bandlimit, bandlimit + 1, dtype=np.int64)
    if dimension == 1:
        modes = axis.reshape(-1, 1)
    else:
        grids = np.meshgrid(*([axis] * dimension), indexing="ij")
        modes = np.stack(grids, axis=-1).reshape(-1, dimension)
    modes.setflags(write=False)
    return modes


@lru_cache(maxsize=64)
def _squared_norms(dimension: int, bandlimit: int) -> np.ndarray:
    modes = _mode_table(dimension, bandlimit)
    sq = np.sum(modes.astype(np.float64) ** 2, axis=1)
    sq.setflags(write=False)
    return sq


@dataclasses.dataclass(frozen=True)
class FrequencyLattice:
    """Truncated frequency lattice on T^d, d in {1, 2}."""

    dimension: int
    bandlimit: int

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise DimensionError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.bandlimit < 0:
            raise ParameterError(f"bandlimit must be >= 0, got {self.bandlimit}")

    @property
    def mode_count(self) -> int:
        return (2 * self.bandlimit + 1) ** self.dimension

    @property
    def zero_index(self) -> int:
        # the all-zero mode sits at the middle of the enumeration
        return (self.mode_count - 1) // 2

    def modes(self) -> np.ndarray:
        """All lattice modes, shape (mode_count, dimension), enumeration order."""
        return _mode_table(self.dimension, self.bandlimit)

    def squared_norms(self) -> np.ndarray:
        """|l|^2 per mode, enumeration order."""
        return _squared_norms(self.dimension, self.bandlimit)

    def shells(self) -> np.ndarray:
        """max_i |l_i| per mode, enumeration order."""
        return np.max(np.abs(self.modes()), axis=1)

    def index_of(self, mode) -> int:
        mode = np.atleast_1d(np.asarray(mode, dtype=np.int64))
        if mode.shape != (self.dimension,):
            raise DimensionError(f"mode must have {self.dimension} components")
        if np.any(np.abs(mode) > self.bandlimit):
            raise ParameterError(f"mode {tuple(mode)} outside bandlimit {self.bandlimit}")
        width = 2 * self.bandlimit + 1
        index = 0
        for component in mode:
            index = index * width + int(component) + self.bandlimit
        return index


def _check_coefficients(lattice: FrequencyLattice, coeffs: np.ndarray, hermitian: bool) -> None:
    if coeffs.shape != (lattice.mode_count,):
        raise DimensionError(f"expected {lattice.mode_count} coefficients, got {coeffs.shape}")
    if hermitian and not np.array_equal(coeffs[::-1].conj(), coeffs):
        if not np.all(np.isfinite(coeffs.view(np.float64))):
            raise InvalidFieldError("field has non-finite coefficients")
        raise InvalidFieldError("hermitian flag set but c(-l) != conj(c(l))")


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex Fourier coefficients of a function on the torus.

    ``hermitian=True`` asserts c(-l) == conj(c(l)) for every mode (checked
    exactly at construction), i.e. the represented function is real-valued.
    """

    lattice: FrequencyLattice
    coefficients: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        _check_coefficients(self.lattice, coeffs, self.hermitian)
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def _owned(
        cls, lattice: FrequencyLattice, coefficients: np.ndarray, hermitian: bool = False
    ) -> "SpectralField":
        """Wrap a complex128 array the library has just built and holds no
        other reference to, without the defensive copy; the array becomes
        read-only. Shape, dtype and the Hermitian flag are checked as in the
        public constructor."""
        if coefficients.dtype != np.complex128:
            raise TypeError(f"expected complex128 coefficients, got {coefficients.dtype}")
        _check_coefficients(lattice, coefficients, hermitian)
        coefficients.setflags(write=False)
        field = object.__new__(cls)
        object.__setattr__(field, "lattice", lattice)
        object.__setattr__(field, "coefficients", coefficients)
        object.__setattr__(field, "hermitian", hermitian)
        return field

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if not isinstance(other, SpectralField):
            return NotImplemented
        if self.lattice != other.lattice:
            raise DimensionError("cannot add fields on different lattices")
        return SpectralField(
            self.lattice,
            self.coefficients + other.coefficients,
            hermitian=self.hermitian and other.hermitian,
        )

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if not isinstance(other, SpectralField):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "SpectralField":
        if not np.isscalar(scalar):
            return NotImplemented
        keeps_symmetry = self.hermitian and np.isrealobj(np.asarray(scalar))
        return SpectralField(self.lattice, self.coefficients * scalar, hermitian=keeps_symmetry)

    __rmul__ = __mul__


def zero_field(lattice: FrequencyLattice) -> SpectralField:
    return SpectralField(lattice, np.zeros(lattice.mode_count, dtype=np.complex128), hermitian=True)


def single_mode_field(lattice: FrequencyLattice, mode, value: complex) -> SpectralField:
    """Field with one nonzero coefficient. Not Hermitian unless the mode is 0
    with a real value."""
    coeffs = np.zeros(lattice.mode_count, dtype=np.complex128)
    index = lattice.index_of(mode)
    coeffs[index] = value
    hermitian = index == lattice.zero_index and float(np.imag(value)) == 0.0
    return SpectralField(lattice, coeffs, hermitian=hermitian)


@dataclasses.dataclass(frozen=True)
class Ellipticity:
    """Two-sided symbol bounds c_lower*|l|^(-t) <= |a(l)| <= c_upper*|l|^(-t)
    required only for |l| > mode_floor."""

    c_lower: float
    c_upper: float
    mode_floor: float = 0.0


@dataclasses.dataclass(frozen=True, eq=False)
class MultiplierOperator:
    """Fourier multiplier l -> a(l), i.e. (A u)^(l) = a(l) * u^(l).

    ``order`` is the pseudodifferential order: an operator that smooths by t
    derivatives has order -t. The symbol callable receives the lattice mode
    table (count, d) and must return one complex value per mode.
    """

    symbol: Callable[[np.ndarray], np.ndarray]
    order: float
    ellipticity: Ellipticity
    dimension: int | None = None
    name: str = "multiplier"

    @property
    def smoothing(self) -> float:
        """t such that the operator has order -t."""
        return -self.order

    def symbol_values(self, lattice: FrequencyLattice) -> np.ndarray:
        if self.dimension is not None and lattice.dimension != self.dimension:
            raise DimensionError(
                f"operator {self.name!r} is fixed to dimension {self.dimension}, "
                f"lattice has dimension {lattice.dimension}"
            )
        values = np.asarray(self.symbol(lattice.modes()), dtype=np.complex128)
        if values.shape != (lattice.mode_count,):
            raise DimensionError("symbol must return one value per lattice mode")
        if np.any(values == 0):
            raise ParameterError(f"symbol of {self.name!r} vanishes on the lattice")
        return values


def symbol_is_hermitian(values: np.ndarray) -> bool:
    """True when a(-l) == conj(a(l)) exactly, so real fields map to real fields."""
    return bool(np.array_equal(values[::-1].conj(), values))


def check_ellipticity(op: MultiplierOperator, lattice: FrequencyLattice) -> None:
    """Verify the stored ellipticity constants against a direct lattice scan."""
    values = op.symbol_values(lattice)
    norms = np.sqrt(lattice.squared_norms())
    outside = norms > op.ellipticity.mode_floor
    if not np.any(outside):
        return
    magnitude = np.abs(values[outside])
    envelope = norms[outside] ** op.order
    low = op.ellipticity.c_lower * envelope
    high = op.ellipticity.c_upper * envelope
    if np.any(magnitude < low * (1 - 1e-12)) or np.any(magnitude > high * (1 + 1e-12)):
        raise ParameterError(
            f"ellipticity constants of {op.name!r} do not bound |a(l)| on the lattice"
        )


@lru_cache(maxsize=16)
def _sobolev_weights(dimension: int, bandlimit: int, s: float) -> np.ndarray:
    weights = (1.0 + _squared_norms(dimension, bandlimit)) ** s
    weights.setflags(write=False)
    return weights


def sobolev_weights(lattice: FrequencyLattice, s: float) -> np.ndarray:
    """(1 + |l|^2)^s per mode, as a read-only array shared by every caller
    that asks for the same lattice and s (cached like the squared norms)."""
    return _sobolev_weights(lattice.dimension, lattice.bandlimit, float(s))


def finite_sobolev_weights(lattice: FrequencyLattice, s: float, what: str) -> np.ndarray:
    """:func:`sobolev_weights`, or a ParameterError instead of weights that
    overflow to inf (and of the RuntimeWarning). ``what`` names the quantity
    the weights enter, as the error message's subject."""
    with np.errstate(over="ignore"):
        weights = sobolev_weights(lattice, s)
    if not np.isfinite(weights).all():
        raise ParameterError(
            f"{what} is not finite: (1+|l|^2)^{s:g} overflows on bandlimit {lattice.bandlimit}"
        )
    return weights


def sobolev_norm(field: SpectralField, s: float) -> float:
    """Truncated H^s norm ( sum_l (1+|l|^2)^s |c(l)|^2 )^(1/2).

    Equals the L^2 norm at s = 0. Raises InvalidFieldError on non-finite
    coefficients. The summation order is the lattice enumeration, so the
    result is reproducible bit-for-bit.
    """
    coeffs = field.coefficients
    if not np.all(np.isfinite(coeffs.view(np.float64))):
        raise InvalidFieldError("field has non-finite coefficients")
    weights = sobolev_weights(field.lattice, s)
    return float(np.sqrt(np.sum(weights * (coeffs.real**2 + coeffs.imag**2))))


def apply_multiplier(op: MultiplierOperator, field: SpectralField) -> SpectralField:
    """Per-mode product a(l) * c(l). Hermitian symmetry survives whenever the
    symbol itself is Hermitian-symmetric on the lattice."""
    values = op.symbol_values(field.lattice)
    hermitian = field.hermitian and symbol_is_hermitian(values)
    return SpectralField(field.lattice, values * field.coefficients, hermitian=hermitian)


def truncate(field: SpectralField, new_bandlimit: int) -> SpectralField:
    """Keep modes with max_i |l_i| <= new_bandlimit (spectral projection).

    Lexicographic order restricted to the smaller cube is the smaller
    lattice's own enumeration, so kept coefficients transfer verbatim.
    """
    if new_bandlimit > field.lattice.bandlimit:
        raise TruncationRangeError(
            f"new bandlimit {new_bandlimit} exceeds field bandlimit {field.lattice.bandlimit}"
        )
    small = FrequencyLattice(field.lattice.dimension, new_bandlimit)
    keep = field.lattice.shells() <= new_bandlimit
    return SpectralField(small, field.coefficients[keep], hermitian=field.hermitian)


def _fft_bins(lattice: FrequencyLattice, points_per_axis: int) -> tuple:
    # mode l occupies FFT bin l mod n on each axis
    modes = lattice.modes()
    return tuple(modes[:, axis] % points_per_axis for axis in range(lattice.dimension))


def evaluate_on_grid(field: SpectralField, points_per_axis: int) -> np.ndarray:
    """Synthesize the real field on the uniform grid x_j = j / n per axis.

    Requires the Hermitian flag (the output is real) and
    points_per_axis >= 2*bandlimit + 1 so that no two lattice modes alias.
    """
    if not field.hermitian:
        raise NotRealValuedError("evaluate_on_grid requires a Hermitian field")
    lattice = field.lattice
    if points_per_axis < 2 * lattice.bandlimit + 1:
        raise ParameterError(
            f"need at least {2 * lattice.bandlimit + 1} points per axis "
            f"for bandlimit {lattice.bandlimit}"
        )
    shape = (points_per_axis,) * lattice.dimension
    spectrum = np.zeros(shape, dtype=np.complex128)
    spectrum[_fft_bins(lattice, points_per_axis)] = field.coefficients
    values = np.fft.ifftn(spectrum) * points_per_axis**lattice.dimension
    return np.ascontiguousarray(values.real)


def field_from_grid(lattice: FrequencyLattice, values: np.ndarray) -> SpectralField:
    """Analyze real grid samples into lattice coefficients (inverse of
    evaluate_on_grid for bandlimited data).

    The output is symmetrized exactly, so the Hermitian flag always holds.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != lattice.dimension:
        raise DimensionError(f"expected a {lattice.dimension}-dimensional grid")
    points = values.shape[0]
    if any(n != points for n in values.shape):
        raise DimensionError("grid must have the same number of points per axis")
    if points < 2 * lattice.bandlimit + 1:
        raise ParameterError(
            f"need at least {2 * lattice.bandlimit + 1} points per axis "
            f"for bandlimit {lattice.bandlimit}"
        )
    spectrum = np.fft.fftn(values) / points**lattice.dimension
    coeffs = spectrum[_fft_bins(lattice, points)]
    coeffs = 0.5 * (coeffs + coeffs[::-1].conj())
    zero = lattice.zero_index
    coeffs[zero] = coeffs[zero].real
    return SpectralField(lattice, coeffs, hermitian=True)


def power_law_operator(
    t: float, dimension: int | None = None, name: str | None = None
) -> MultiplierOperator:
    """Elliptic multiplier with symbol (1 + |l|^2)^(-t/2), order -t.

    t > 0 smooths (the forward maps studied here), t < 0 roughens; t = -r
    realizes (I - Laplacian)^(r/2), the Sobolev-norm multiplier.
    """

    def symbol(modes: np.ndarray) -> np.ndarray:
        sq = np.sum(modes.astype(np.float64) ** 2, axis=1)
        return ((1.0 + sq) ** (-t / 2.0)).astype(np.complex128)

    # for |l| >= 1:  |l|^(-t) and (2|l|^2)^(-t/2) bracket the symbol
    bounds = sorted((1.0, 2.0 ** (-t / 2.0)))
    return MultiplierOperator(
        symbol=symbol,
        order=-t,
        ellipticity=Ellipticity(c_lower=bounds[0], c_upper=bounds[1], mode_floor=0.0),
        dimension=dimension,
        name=name or f"power_law(t={t:g})",
    )


def deblur_operator() -> MultiplierOperator:
    """The 1-d periodic deblurring forward map with symbol (1 + n^2)^(-1).

    Inverting it amounts to applying (1 - d^2/dx^2) to the data, so the
    operator smooths by two derivatives (order -2).
    """
    return power_law_operator(2.0, dimension=1, name="deblur_1d")
