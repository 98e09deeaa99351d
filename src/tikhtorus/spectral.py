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
import operator
import os
import threading
from functools import lru_cache
from typing import Callable, Sequence

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
    "ball",
    "truncate",
    "evaluate_on_grid",
    "field_from_grid",
    "power_law_operator",
    "deblur_operator",
    "check_ellipticity",
]


def _as_index(value) -> int | None:
    """``value`` as an int when it is an integer (a numpy integer included),
    else None: the one test for a size, a mode bound or a seed."""
    try:
        return operator.index(value)
    except TypeError:  # a float, a string, None
        return None


@dataclasses.dataclass(frozen=True)
class FrequencyLattice:
    """Truncated frequency lattice on T^d, d in {1, 2}."""

    dimension: int
    bandlimit: int

    def __post_init__(self) -> None:
        if _as_index(self.dimension) not in (1, 2):
            raise DimensionError(f"dimension must be 1 or 2, got {self.dimension!r}")
        bandlimit = _as_index(self.bandlimit)
        if bandlimit is None or bandlimit < 0:
            raise ParameterError(f"bandlimit must be a non-negative integer, got {self.bandlimit!r}")

    @property
    def mode_count(self) -> int:
        return (2 * self.bandlimit + 1) ** self.dimension

    @property
    def zero_index(self) -> int:
        # the all-zero mode sits at the middle of the enumeration
        return (self.mode_count - 1) // 2

    def modes(self) -> np.ndarray:
        """All lattice modes, shape (mode_count, dimension), enumeration
        order, as a fresh int64 array."""
        axis = np.arange(-self.bandlimit, self.bandlimit + 1, dtype=np.int64)
        grids = np.meshgrid(*([axis] * self.dimension), indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, self.dimension)

    def squared_norms(self) -> np.ndarray:
        """|l|^2 per mode, enumeration order, as a fresh float64 array. Every
        value is an integer below 2^53, so it is exact in any summation order."""
        squares = np.arange(-self.bandlimit, self.bandlimit + 1, dtype=np.float64) ** 2
        return squares if self.dimension == 1 else np.add.outer(squares, squares).ravel()

    def shells(self) -> np.ndarray:
        """max_i |l_i| per mode, enumeration order."""
        return np.max(np.abs(self.modes()), axis=1)

    def index_of(self, mode) -> int:
        mode = np.atleast_1d(np.asarray(mode))
        if mode.shape != (self.dimension,):
            raise DimensionError(f"mode must have {self.dimension} components")
        if mode.dtype.kind not in "iu":
            raise ParameterError(f"mode must have integer components, got {mode.tolist()}")
        if np.any(np.abs(mode) > self.bandlimit):
            raise ParameterError(f"mode {tuple(mode)} outside bandlimit {self.bandlimit}")
        width = 2 * self.bandlimit + 1
        index = 0
        for component in mode:
            index = index * width + int(component) + self.bandlimit
        return index


def is_hermitian(values: np.ndarray) -> bool:
    """True when v(-l) == conj(v(l)) exactly for a lattice-ordered table (a
    NaN entry makes it False): a field with such coefficients is real-valued,
    and a symbol with such values maps real fields to real fields."""
    return bool(np.array_equal(values[::-1].conj(), values))


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex Fourier coefficients of a function on the torus.

    Every field, the noise draw and a measurement's data included, is built
    by this constructor. It checks the caller's array first (one coefficient
    per lattice mode, and the asserted symmetry), then copies it and freezes
    the copy, so a field never aliases the caller's array.

    ``hermitian`` is computed once, at construction: it is True exactly when
    c(-l) == conj(c(l)) for every mode, i.e. the represented function is
    real-valued. Passing ``hermitian=True`` only asserts it, and raises
    InvalidFieldError when the coefficients are not symmetric (or not finite).
    """

    lattice: FrequencyLattice
    coefficients: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.shape != (self.lattice.mode_count,):
            raise DimensionError(f"expected {self.lattice.mode_count} coefficients, got {coeffs.shape}")
        hermitian = is_hermitian(coeffs)
        if self.hermitian and not hermitian:
            if not np.all(np.isfinite(coeffs.view(np.float64))):
                raise InvalidFieldError("field has non-finite coefficients")
            raise InvalidFieldError("hermitian flag set but c(-l) != conj(c(l))")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "hermitian", hermitian)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if not isinstance(other, SpectralField):
            return NotImplemented
        if self.lattice != other.lattice:
            raise DimensionError("cannot add fields on different lattices")
        return SpectralField(self.lattice, self.coefficients + other.coefficients)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if not isinstance(other, SpectralField):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "SpectralField":
        if not np.isscalar(scalar):
            return NotImplemented
        return SpectralField(self.lattice, self.coefficients * scalar)

    __rmul__ = __mul__


def zero_field(lattice: FrequencyLattice) -> SpectralField:
    return SpectralField(lattice, np.zeros(lattice.mode_count, dtype=np.complex128), hermitian=True)


def single_mode_field(lattice: FrequencyLattice, mode, value: complex) -> SpectralField:
    """Field with one nonzero coefficient. Its computed Hermitian flag is
    True only when the mode is 0 with a real value (or the value is 0)."""
    coeffs = np.zeros(lattice.mode_count, dtype=np.complex128)
    coeffs[lattice.index_of(mode)] = value
    return SpectralField(lattice, coeffs)


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
    table (count, d) and must return one value per mode, complex or real (a
    real table is read as complex).
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
        """a(l) per mode, as a read-only array shared by every caller that asks
        for the same operator and lattice. The symbol callable runs once per
        lattice while its table is among the 8 most recently used; the cache
        keeps those operators alive."""
        return _symbol_table(self, lattice)

    def squared_modulus(self, lattice: FrequencyLattice) -> np.ndarray:
        """|a(l)|^2 = Re(a)^2 + Im(a)^2 per mode, read-only and cached like
        :meth:`symbol_values`."""
        return _squared_modulus(self, lattice)


@lru_cache(maxsize=8)
def _symbol_table(op: MultiplierOperator, lattice: FrequencyLattice) -> np.ndarray:
    if op.dimension is not None and lattice.dimension != op.dimension:
        raise DimensionError(
            f"operator {op.name!r} is fixed to dimension {op.dimension}, "
            f"lattice has dimension {lattice.dimension}"
        )
    # a copy, so that freezing it never freezes an array the callable keeps;
    # an overflow or a nan is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.array(op.symbol(lattice.modes()), dtype=np.complex128)
    if values.shape != (lattice.mode_count,):
        raise DimensionError("symbol must return one value per lattice mode")
    if not np.isfinite(values).all():
        raise ParameterError(f"symbol of {op.name!r} is not finite on the lattice")
    if np.any(values == 0):
        raise ParameterError(f"symbol of {op.name!r} vanishes on the lattice")
    values.setflags(write=False)
    return values


@lru_cache(maxsize=8)
def _squared_modulus(op: MultiplierOperator, lattice: FrequencyLattice) -> np.ndarray:
    values = _symbol_table(op, lattice)
    squared = values.real**2 + values.imag**2
    squared.setflags(write=False)
    return squared


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


# items per piece of a chunked kernel (the Sobolev weight tables, the noise
# draws) and at most per leaf of a tree sum (every sum :func:`_kernel_sums`
# takes): a piece keeps under 2 MiB of temporaries alive, which stays in a
# core's cache and leaves little in the worker threads' malloc arenas; the
# shipped configs' lattices (up to 32,769 modes) stay below two pieces and so
# on the calling thread
_CHUNK = 32768


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _dispatch(task: Callable[[int], object], count: int, size: int) -> None:
    """Call ``task(i)`` for i in range(count), the pieces of a job over
    ``size`` items. This is the package's one dispatcher: below two
    ``_CHUNK``s of items it is a plain loop on the calling thread; otherwise
    the pieces are split into one contiguous range per CPU of the process's
    affinity, the calling thread walks the first range and one thread each
    the others. Workers run under the caller's ``np.errstate`` (which numpy
    keeps per thread). A range stops at its first exception, which re-raises
    here once every range has stopped (the earliest range's, if several
    fail)."""
    workers = min(count, _cpu_count()) if size >= 2 * _CHUNK else 1
    errstate = np.geterr()
    failures: list = [None] * workers

    def run(worker: int) -> None:
        try:
            with np.errstate(**errstate):
                for i in range(worker * count // workers, (worker + 1) * count // workers):
                    task(i)
        except BaseException as exc:  # re-raised on the calling thread
            failures[worker] = exc

    threads = [threading.Thread(target=run, args=(worker,)) for worker in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in failures:
        if exc is not None:
            raise exc


def _map_chunks(kernel: Callable[[int, int], object], size: int) -> None:
    """Call ``kernel(start, stop)`` on the consecutive pieces of [0, size),
    ``_CHUNK`` items each (the last one shorter), through :func:`_dispatch`.
    ``noise`` imports it from here, so ``_CHUNK`` and ``_cpu_count`` are read
    from this module. Kernels write disjoint slices and sum nothing (a sum
    goes through :func:`_kernel_sums`), so the result depends neither on the
    split nor on ``_CHUNK``."""
    chunks = -(-size // _CHUNK)
    _dispatch(lambda piece: kernel(piece * _CHUNK, min(size, (piece + 1) * _CHUNK)), chunks, size)


class _Uncached(Exception):
    """Carries a table out of an ``lru_cache``d builder, which keeps no result
    of a call that raises."""


def _weigh(squares: np.ndarray, s: float) -> np.ndarray:
    """Overwrite a table of |l|^2 with (1+|l|^2)^s, in mode chunks across the
    CPUs (:func:`_map_chunks`), and return it: the one spelling of a weight
    table. Each entry is computed on its own, so the bytes depend neither on
    the split nor on which part of the lattice the table holds."""

    def kernel(start: int, stop: int) -> None:
        squares[start:stop] = (1.0 + squares[start:stop]) ** s  # ** keeps numpy's fast paths

    _map_chunks(kernel, squares.size)
    return squares


@lru_cache(maxsize=16)
def _sobolev_weights(dimension: int, bandlimit: int, s: float) -> np.ndarray:
    weights = _weigh(FrequencyLattice(dimension, bandlimit).squared_norms(), s)
    weights.setflags(write=False)
    if not np.isfinite(weights).all():
        raise _Uncached(weights)
    return weights


def sobolev_weights(lattice: FrequencyLattice, s: float) -> np.ndarray:
    """(1 + |l|^2)^s per mode, as a read-only array shared by every caller
    that asks for the same lattice and s while its table is among the 16 most
    recently used. The table is filled by :func:`_weigh`, as is the half
    table of :func:`_half_sobolev_weights`.

    A table that overflows is never cached: each call rebuilds it under the
    caller's ``np.errstate``, so it warns, raises or returns inf as a first
    call would."""
    try:
        return _sobolev_weights(lattice.dimension, lattice.bandlimit, float(s))
    except _Uncached as uncached:
        return uncached.args[0]


def _half_sobolev_weights(lattice: FrequencyLattice, s: float) -> np.ndarray:
    """(1+|l|^2)^s at the lattice positions zero_index, zero_index + 1, ...,
    the half table of an even quantity that :func:`_mirrored` reads, as a
    fresh array that is not cached: equal bit for bit to the same positions
    of ``sobolev_weights(lattice, s)``."""
    M = lattice.bandlimit
    squares = np.arange(M + 1, dtype=np.float64) ** 2
    if lattice.dimension == 2:  # rows l_1 = 0..M of l_2 = -M..M, from the zero mode (0, 0) on
        squares = np.add.outer(squares, np.arange(-M, M + 1, dtype=np.float64) ** 2).ravel()[M:]
    return _weigh(squares, float(s))


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
    coefficients. The sum is taken by :func:`_kernel_sums`, in the lattice
    enumeration order, so the result is reproducible bit for bit.
    """
    coeffs = field.coefficients
    if not np.all(np.isfinite(coeffs.view(np.float64))):
        raise InvalidFieldError("field has non-finite coefficients")
    weights = sobolev_weights(field.lattice, s)

    def kernel(piece) -> float:
        return np.sum(np.multiply(weights[piece], coeffs[piece].real**2 + coeffs[piece].imag**2))

    return float(np.sqrt(_kernel_sums(field.lattice, kernel)))


def apply_multiplier(op: MultiplierOperator, field: SpectralField) -> SpectralField:
    """Per-mode product a(l) * c(l). The product's Hermitian flag is computed
    from its coefficients, like every field's; it holds whenever the field and
    the symbol are both Hermitian-symmetric on the lattice."""
    values = op.symbol_values(field.lattice)
    return SpectralField(field.lattice, values * field.coefficients)


def _ball_bandlimit(lattice: FrequencyLattice, m) -> int:
    """``m``, or an error unless it is the bandlimit of a ball of the lattice."""
    if _as_index(m) is None:
        raise ParameterError(f"bandlimit must be an integer, got {m!r}")
    if not 0 <= m <= lattice.bandlimit:
        raise TruncationRangeError(f"bandlimit {m} is outside 0..{lattice.bandlimit}, the lattice's range")
    return m


def ball(lattice: FrequencyLattice, table: np.ndarray, m: int) -> np.ndarray:
    """The entries of a lattice-ordered table at the modes with
    max_i |l_i| <= m, as a view of shape (2m+1,)*d.

    The modes of the ball form a sub-cube of the enumeration, so this is a
    slice on each axis, not a mask. Its C-order ``ravel()`` is the lattice of
    bandlimit m in its own enumeration order, the same array as
    ``table[lattice.shells() <= m]``: a view in 1-d, a contiguous copy in
    2-d. Writing through the view writes the table.
    """
    M = lattice.bandlimit
    _ball_bandlimit(lattice, m)
    cube = table.reshape((2 * M + 1,) * lattice.dimension)
    return cube[(slice(M - m, M + m + 1),) * lattice.dimension]


def _pairwise_tree(start: int, size: int, leaves: list):
    """numpy's float64 pairwise-summation tree over the items
    [start, start + size): appends its leaves to ``leaves`` as (start, stop)
    and returns the root, a leaf's index in ``leaves`` or a pair of nodes."""
    if size <= max(_CHUNK, 128):
        leaves.append((start, start + size))
        return len(leaves) - 1
    half = size // 2 - (size // 2) % 8
    return (_pairwise_tree(start, half, leaves), _pairwise_tree(start + half, size - half, leaves))


def _add_up(node, sums: list):
    """The sum of a tree's leaf sums, added in the tree's order."""
    if isinstance(node, int):
        return sums[node]
    return _add_up(node[0], sums) + _add_up(node[1], sums)


def _pairwise_sums(sizes: Sequence[int], leaf_sums: Callable) -> list:
    """One sum per item count in ``sizes``, from ``leaf_sums(j, start, stop)``,
    the sums of the items [start, stop) of the j-th array (a float64 scalar
    or vector): the leaves of every array run in one :func:`_dispatch`, and
    each array's leaf sums are added up its :func:`_pairwise_tree`."""
    leaves: list = []
    owners: list = []
    roots = []
    for j, size in enumerate(sizes):
        roots.append(_pairwise_tree(0, size, leaves))
        owners += [j] * (len(leaves) - len(owners))
    sums: list = [None] * len(leaves)

    def task(i: int) -> None:
        sums[i] = leaf_sums(owners[i], *leaves[i])

    _dispatch(task, len(leaves), sum(sizes))
    return [_add_up(root, sums) for root in roots]


def _ball_piece(lattice: FrequencyLattice, m: int, start: int, stop: int):
    """The lattice positions of the items [start, stop) of the ball of
    bandlimit m in its own enumeration order (:func:`ball`): a slice when
    the ball is one slice of the lattice (d = 1, or the whole lattice), else
    an index array."""
    M = lattice.bandlimit
    if m == M:
        return slice(start, stop)
    if lattice.dimension == 1:
        return slice(M - m + start, M - m + stop)
    width = 2 * m + 1
    index = np.arange(start, stop)
    return (M - m + index // width) * (2 * M + 1) + (M - m + index % width)


def _mirrored(half: np.ndarray, piece, zero: int) -> np.ndarray:
    """The entries of an even per-mode table, ``half`` its entries at the
    positions zero, zero + 1, ..., at the lattice positions ``piece`` indexes
    (a slice or an index array, as :func:`_kernel_sums` hands them), in piece
    order. The conjugate of position p is 2 zero - p, so p reads
    half[|p - zero|]: a slice above the zero mode is a view, one below it a
    reversed view, the one slice that holds the zero mode a concatenation,
    and an index array a gather."""
    if not isinstance(piece, slice):
        return half[np.abs(piece - zero)]
    start, stop = piece.start - zero, piece.stop - zero
    if start >= 0:
        return half[start:stop]
    if stop <= 1:
        return half[1 - stop : 1 - start][::-1]
    return np.concatenate((half[1 : 1 - start][::-1], half[:stop]))


def _kernel_sums(lattice: FrequencyLattice, kernel: Callable, bandlimits=None):
    """Sums of per-mode quantities that ``kernel`` gives piece by piece: the
    package's one way to sum a per-mode quantity. No lattice-sized table is
    formed.

    ``kernel(piece)`` returns the sums over the modes ``piece`` indexes in
    lattice-ordered tables (a slice, or for a ball of a 2-d lattice an index
    array): a float64 scalar, or a vector in which each entry is one
    ``np.sum`` of an array the kernel formed for that piece. It runs on the
    pieces across the CPUs (:func:`_dispatch`), under the caller's
    ``np.errstate``. The result is one sum per ball of ``bandlimits``, in
    order, or the whole-lattice sum when ``bandlimits`` is None; a sum is a
    float when the kernel returns scalars.

    Summation rule: every sum equals ``np.sum`` of the whole table over its
    ball (``np.sum(ball(lattice, table, m).reshape(-1))``) bit for bit, on
    any CPU count and ``_CHUNK``.
    numpy sums a float64 array pairwise: a node of n > 128 items splits at
    n//2 - (n//2) % 8, so an ``np.sum`` over a node's items gives that
    node's exact value. The pieces are the nodes of each ball's own tree
    with at most max(``_CHUNK``, 128) items (:func:`_pairwise_tree`), and
    their sums are added up that tree.
    """
    balls = [lattice.bandlimit] if bandlimits is None else [_ball_bandlimit(lattice, m) for m in bandlimits]
    totals = _pairwise_sums(
        [(2 * m + 1) ** lattice.dimension for m in balls],
        lambda j, start, stop: kernel(_ball_piece(lattice, balls[j], start, stop)),
    )
    totals = [total if np.ndim(total) else float(total) for total in totals]
    return totals[0] if bandlimits is None else totals


def truncate(field: SpectralField, new_bandlimit: int) -> SpectralField:
    """Keep modes with max_i |l_i| <= new_bandlimit (spectral projection).

    Lexicographic order restricted to the smaller cube is the smaller
    lattice's own enumeration, so kept coefficients transfer verbatim.
    """
    small = FrequencyLattice(field.lattice.dimension, new_bandlimit)
    kept = ball(field.lattice, field.coefficients, new_bandlimit).ravel()
    return SpectralField(small, kept)


def _fft_bins(lattice: FrequencyLattice, points_per_axis: int) -> tuple:
    # mode l occupies FFT bin l mod n on each axis
    modes = lattice.modes()
    return tuple(modes[:, axis] % points_per_axis for axis in range(lattice.dimension))


def evaluate_on_grid(field: SpectralField, points_per_axis: int) -> np.ndarray:
    """Synthesize the real field on the uniform grid x_j = j / n per axis.

    Requires the Hermitian flag (the output is real) and an integer
    points_per_axis >= 2*bandlimit + 1 so that no two lattice modes alias.
    """
    if not field.hermitian:
        raise NotRealValuedError("evaluate_on_grid requires a Hermitian field")
    if _as_index(points_per_axis) is None:
        raise ParameterError(f"points per axis must be an integer, got {points_per_axis!r}")
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
        return (1.0 + sq) ** (-t / 2.0)

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
