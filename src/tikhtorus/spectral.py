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
import math
import operator
import os
import threading
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
    and a symbol with such values maps real fields to real fields. Position
    p holds the mode opposite to position count - 1 - p, so the check
    compares the two halves, ``_CHUNK`` positions at a time, and copies no
    more than one block of either."""
    count = len(values)
    half = (count + 1) // 2  # the middle entry, if any, is compared with itself
    for start in range(0, half, _CHUNK):
        stop = min(half, start + _CHUNK)
        if not np.array_equal(values[count - stop : count - start][::-1].conj(), values[start:stop]):
            return False
    return True


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
    derivatives has order -t. The symbol callable may be called on any subset
    of a lattice's modes, a (count, d) table of integer modes, and must return
    one value per row, complex or real (a real table is read as complex). Its
    values are checked on every call, with no warning: a table of the wrong
    shape raises DimensionError, and one that is not finite or vanishes at
    some mode raises ParameterError.
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
        """a(l) per mode, in enumeration order, as a fresh array: the symbol
        callable runs on the lattice's whole mode table at every call."""
        return _symbol_at(self, lattice, lattice.modes())

    def squared_modulus(self, lattice: FrequencyLattice) -> np.ndarray:
        """|a(l)|^2 = Re(a)^2 + Im(a)^2 per mode, as a fresh array from a
        fresh :meth:`symbol_values`."""
        return _squared_modulus(self.symbol_values(lattice))


def _squared_modulus(values: np.ndarray) -> np.ndarray:
    """|v|^2 = Re(v)^2 + Im(v)^2 per entry, as a fresh array: the package's
    one spelling of |a|^2, so that a whole table, a piece's
    (:func:`_leaf_tables`) and ``rates``' band members agree bit for bit."""
    return values.real**2 + values.imag**2


# the checks of a symbol table, in the order a whole table fails them
_SYMBOL_FAULTS = (
    (DimensionError, "symbol must return one value per lattice mode"),
    (ParameterError, "symbol of {!r} is not finite on the lattice"),
    (ParameterError, "symbol of {!r} vanishes on the lattice"),
)


def _symbol_table(op: MultiplierOperator, lattice: FrequencyLattice, modes: np.ndarray, out: np.ndarray) -> tuple:
    """a(l) at ``modes``, rows of ``lattice.modes()``, written into the
    complex buffer ``out``, and the index in ``_SYMBOL_FAULTS`` of the first
    check it fails (None when it passes them all), with no warning. An
    operator fixed to another dimension raises DimensionError at once."""
    if op.dimension is not None and lattice.dimension != op.dimension:
        raise DimensionError(
            f"operator {op.name!r} is fixed to dimension {op.dimension}, "
            f"lattice has dimension {lattice.dimension}"
        )
    # a copy, so that a caller never writes an array the callable keeps; an
    # overflow or a nan is reported by the checks, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(op.symbol(modes))
        if values.shape != (len(modes),):
            return values, 0
        out[...] = values
    return out, (1 if not np.isfinite(out).all() else 2 if np.any(out == 0) else None)


def _symbol_error(op: MultiplierOperator, fault: int) -> Exception:
    error, message = _SYMBOL_FAULTS[fault]
    return error(message.format(op.name))


def _symbol_at(op: MultiplierOperator, lattice: FrequencyLattice, modes: np.ndarray) -> np.ndarray:
    """a(l) at ``modes``, rows of ``lattice.modes()``, checked as the
    :class:`MultiplierOperator` docstring says: the whole table
    (:meth:`~MultiplierOperator.symbol_values`) or one piece of it
    (:func:`_leaf_tables`), equal bit for bit where they overlap."""
    values, fault = _symbol_table(op, lattice, modes, np.empty(len(modes), dtype=np.complex128))
    if fault is not None:
        raise _symbol_error(op, fault)
    return values


class _WalkBuffers(threading.local):
    """A symbol walk's buffers for one piece, one set per worker thread
    (``threading.local`` runs ``__init__`` in each thread that reads it),
    sized once per walk: the positions, modes (in d = 1) and symbol values
    of :func:`_symbol_pieces`, and four float rows in which its kernels form
    their temporaries. A piece then allocates only what the symbol callable
    does and masks of a byte a mode, which malloc serves from its heap; a
    fresh table of more than 128 KiB is mapped and page-faulted afresh."""

    def __init__(self, width: int) -> None:
        self.ramp, self.index = np.arange(width, dtype=np.int64), np.empty(width, dtype=np.int64)
        self.modes, self.values = np.empty((width, 1), dtype=np.int64), np.empty(width, dtype=np.complex128)
        self.rows = np.empty((4, width))


def _symbol_pieces(op: MultiplierOperator, lattice: FrequencyLattice, kernel: Callable) -> list:
    """``kernel(index, modes, values, buffers)`` on each mirror piece of
    ``lattice``, in piece order: the one walk over a symbol of the checks
    that precede the sweep pass. No lattice-sized table is formed.

    Piece i holds the modes at the offsets i w .. (i+1) w - 1 from the zero
    mode, on both of its sides, w = ``_CHUNK`` // 2 (at least 1), so at most
    ``_CHUNK`` modes (two when ``_CHUNK`` is 1): ``index`` their positions
    in lattice order, ``modes`` their rows of ``lattice.modes()`` and
    ``values`` the symbol there, so that entry j holds the mode opposite to
    entry len - 1 - j, as in a whole table (:func:`is_hermitian` reads a
    piece as it reads a lattice). ``index``, ``values`` and, in d = 1,
    ``modes`` live in the worker's :class:`_WalkBuffers` ``buffers``, whose
    ``rows`` the kernel may write, so a kernel keeps none of them. The pieces run across the CPUs
    (:func:`_dispatch`), under the caller's ``np.errstate``; the symbol runs
    once per mode. A piece whose table fails a check of ``_SYMBOL_FAULTS``
    is not handed to the kernel, and after the walk the error raised is the
    one the whole table raises (a wrong shape, then not finite, then
    vanishing), whichever pieces fail."""
    zero, width = lattice.zero_index, max(1, _CHUNK // 2)
    pieces = -(-(zero + 1) // width)
    results: list = [None] * pieces
    faults: list = [None] * pieces
    buffers = _WalkBuffers(min(2 * width, lattice.mode_count))

    def task(i: int) -> None:
        first, end = i * width, min(zero + 1, (i + 1) * width)
        size = 2 * end - max(first, 1) - first
        index = np.add(buffers.ramp[:size], zero + 1 - end, out=buffers.index[:size])
        index[end - max(first, 1) :] += max(2 * first - 1, 0)  # past the gap the piece leaves about the zero mode
        modes = _piece_modes(lattice, index, buffers.modes[:size])
        values, faults[i] = _symbol_table(op, lattice, modes, buffers.values[:size])
        if faults[i] is None:
            results[i] = kernel(index, modes, values, buffers)

    _dispatch(task, pieces, lattice.mode_count)
    worst = min((fault for fault in faults if fault is not None), default=None)
    if worst is not None:
        raise _symbol_error(op, worst)
    return results


def _piece_modes(lattice: FrequencyLattice, piece, out=None) -> np.ndarray:
    """The rows of ``lattice.modes()`` at the positions ``piece`` (a slice
    or an index array), built for those rows only; in d = 1 into the
    column of the (count, 1) buffer ``out`` when given."""
    M = lattice.bandlimit
    index = np.arange(piece.start, piece.stop, dtype=np.int64) if isinstance(piece, slice) else piece
    if lattice.dimension == 1:
        return np.subtract(index, M, out=None if out is None else out[:, 0])[:, None]
    return np.stack(np.divmod(index, 2 * M + 1), axis=-1) - M


def _squares(modes: np.ndarray, out=None) -> np.ndarray:
    """|l|^2 at ``modes``, into ``out`` when given: integers below 2^53, so
    equal to the entries of ``lattice.squared_norms()`` there."""
    if modes.shape[1] == 1:
        return np.square(modes[:, 0], dtype=np.float64, out=out)
    return np.sum(np.square(modes, dtype=np.float64), axis=1, out=out)


def _leaf_tables(A: MultiplierOperator, lattice: FrequencyLattice, piece: slice, exponents) -> tuple:
    """a, |a|^2 and {s: (1+|l|^2)^s for s in exponents} on the lattice
    positions ``piece``: the package's one routine for per-piece tables, for
    the sweep pass (``rates._pass_sums``) and the gamma sweep, and, with the
    whole lattice as its piece, for ``tikhonov``'s solves and bias bound.
    Per mode it does the arithmetic of
    :meth:`~MultiplierOperator.symbol_values`,
    :meth:`~MultiplierOperator.squared_modulus` and :func:`sobolev_weights`,
    so each table equals the matching slice of the whole one bit for bit. A
    weight that overflows is inf, without a warning; the callers check the
    whole table, or their sums, before or after."""
    modes = _piece_modes(lattice, piece)
    symbol = _symbol_at(A, lattice, modes)
    squares = _squares(modes)
    with np.errstate(over="ignore"):
        weights = {s: (1.0 + squares) ** s for s in exponents}
    return symbol, _squared_modulus(symbol), weights


def check_ellipticity(op: MultiplierOperator, lattice: FrequencyLattice) -> None:
    """Verify the stored ellipticity constants against a direct lattice scan.

    The symbol is evaluated and checked piece by piece across the CPUs
    (:func:`_symbol_pieces`), and so are the bounds, so no lattice-sized
    table is formed. A NaN order or constant, which bounds nothing, is
    refused first, naming it; then the symbol's own errors (a wrong shape,
    then not finite, then vanishing) come before a bound that fails, on any
    piece. An envelope |l|^order that overflows, or is 0 times inf, gives its
    verdict without a warning."""
    _elliptic_pieces(op, lattice, lambda *piece: None)


def _elliptic_pieces(op: MultiplierOperator, lattice: FrequencyLattice, kernel: Callable) -> list:
    """``kernel``'s results on the pieces of :func:`_symbol_pieces`, from the
    walk that checks the ellipticity constants, with the errors and order of
    :func:`check_ellipticity`: a deblur run checks its operator in the walk
    that gathers the rest of its set-up's facts (``rates._symbol_facts``).
    Each piece's bounds are compared in its walk buffers, ahead of the
    kernel, which may then reuse them."""
    bounds = op.ellipticity
    for name, value in (("order", op.order), *dataclasses.asdict(bounds).items()):
        if math.isnan(value):
            raise ParameterError(f"{name} of {op.name!r} is NaN, so it bounds nothing")

    def bounded(index, modes, values, buffers) -> tuple:
        norms, magnitude, envelope, bound = buffers.rows[:, : values.size]
        outside = np.sqrt(_squares(modes, out=norms), out=norms) > bounds.mode_floor
        np.abs(values, out=magnitude)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.copyto(envelope, norms)
            envelope **= op.order  # in place, ** keeps numpy's fast paths
            fails = magnitude < np.multiply(np.multiply(bounds.c_lower, envelope, out=bound), 1 - 1e-12, out=bound)
            fails |= magnitude > np.multiply(np.multiply(bounds.c_upper, envelope, out=bound), 1 + 1e-12, out=bound)
        return not (fails & outside).any(), kernel(index, modes, values, buffers)

    results = _symbol_pieces(op, lattice, bounded)
    if not all(verdict for verdict, _ in results):
        raise ParameterError(
            f"ellipticity constants of {op.name!r} do not bound |a(l)| on the lattice"
        )
    return [result for _, result in results]


# items per piece of a chunked kernel (the noise draws), at
# most per leaf of a tree sum (every sum :func:`_kernel_sums` takes, its
# leaves handed over in mirror groups of about two) and at most per mirror
# piece of a symbol walk (:func:`_symbol_pieces`): a group keeps a few MiB
# of temporaries alive (the sweep's, with its symbol and weight tables, a
# block of draws and its scratch, about 6 MiB), which leaves little in the
# worker threads' malloc arenas; the shipped configs' lattices (up to 32,769
# modes) stay below two pieces and so on the calling thread
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
    the others. A worker that has walked its range takes the back half of
    the range with the most pieces left, when that half holds two pieces or
    more, and walks it next: pieces that cost unevenly keep every CPU busy,
    and a worker still walks each range in order, so a kernel may keep what
    one piece formed for the next. Workers run under the caller's
    ``np.errstate`` (which numpy keeps per thread). A range, taken or not,
    stops at its first exception, and no one takes its pieces left; the
    exception of the earliest piece re-raises here once every worker has
    stopped."""
    workers = min(count, _cpu_count()) if size >= 2 * _CHUNK else 1
    errstate = np.geterr()
    ranges = [[worker * count // workers, (worker + 1) * count // workers] for worker in range(workers)]
    failures: dict = {}  # piece -> its exception
    lock = threading.Lock()

    def run(worker: int) -> None:
        own = ranges[worker]  # [next piece, end]
        with np.errstate(**errstate):
            while True:
                with lock:
                    if own[0] == own[1]:
                        largest = max(ranges, key=lambda pieces: pieces[1] - pieces[0])
                        if largest[1] - largest[0] < 4:
                            return
                        middle = (largest[0] + largest[1] + 1) // 2
                        own[:], largest[1] = [middle, largest[1]], middle
                    i, own[0] = own[0], own[0] + 1
                try:
                    task(i)
                except BaseException as exc:  # re-raised on the calling thread
                    with lock:
                        failures[i], own[1] = exc, own[0]
                    return

    threads = [threading.Thread(target=run, args=(worker,)) for worker in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]


def _map_chunks(kernel: Callable[[int, int], object], size: int) -> None:
    """Call ``kernel(start, stop)`` on the consecutive pieces of [0, size),
    ``_CHUNK`` items each (the last one shorter), through :func:`_dispatch`:
    the fan-out of the noise draws, which import it from here, so
    ``_CHUNK`` and ``_cpu_count`` are read from this module. Kernels write
    disjoint slices and sum nothing (a sum goes through
    :func:`_kernel_sums`), so the result depends neither on the split nor
    on ``_CHUNK``."""
    chunks = -(-size // _CHUNK)
    _dispatch(lambda piece: kernel(piece * _CHUNK, min(size, (piece + 1) * _CHUNK)), chunks, size)


def sobolev_weights(lattice: FrequencyLattice, s: float) -> np.ndarray:
    """(1 + |l|^2)^s per mode, as a fresh array, built on the calling thread
    from the |l|^2 table with the arithmetic of :func:`_leaf_tables` (the
    ``1.0 +`` in place, so one table besides the result is alive). A table
    that overflows warns, raises or holds inf as the caller's ``np.errstate``
    says; :func:`finite_sobolev_weights` is the checked form."""
    squares = lattice.squared_norms()
    return np.add(squares, 1.0, out=squares) ** float(s)  # ** keeps numpy's fast paths, as _leaf_tables


def _half_sobolev_weights(lattice: FrequencyLattice, s: float) -> np.ndarray:
    """(1+|l|^2)^s at the lattice positions zero_index, zero_index + 1, ...,
    the half table of an even quantity that :func:`_mirrored` reads, built
    as :func:`sobolev_weights` builds a whole one: equal bit for bit to the
    same positions of ``sobolev_weights(lattice, s)``."""
    M = lattice.bandlimit
    squares = np.arange(M + 1, dtype=np.float64) ** 2
    if lattice.dimension == 2:  # rows l_1 = 0..M of l_2 = -M..M, from the zero mode (0, 0) on
        squares = np.add.outer(squares, np.arange(-M, M + 1, dtype=np.float64) ** 2).ravel()[M:]
    return np.add(squares, 1.0, out=squares) ** float(s)


def finite_sobolev_weights(lattice: FrequencyLattice, s: float, what: str) -> np.ndarray:
    """:func:`sobolev_weights`, or a ParameterError instead of weights that
    overflow to inf (and of the RuntimeWarning). ``what`` names the quantity
    the weights enter, as the error message's subject."""
    with np.errstate(over="ignore"):
        weights = sobolev_weights(lattice, s)
    if not np.isfinite(weights).all():
        raise _overflowing_weights(lattice, s, what)
    return weights


def _overflowing_weights(lattice: FrequencyLattice, s: float, what: str) -> ParameterError:
    fault = "s is not a number" if math.isnan(s) else f"(1+|l|^2)^{s:g} overflows on bandlimit {lattice.bandlimit}"
    return ParameterError(f"{what} is not finite: {fault}")


def sobolev_norm(field: SpectralField, s: float) -> float:
    """Truncated H^s norm ( sum_l (1+|l|^2)^s |c(l)|^2 )^(1/2).

    Equals the L^2 norm at s = 0. Raises InvalidFieldError on non-finite
    coefficients, then a ParameterError naming s when the weights overflow
    (as :func:`finite_sobolev_weights` does) or the sum does, with no
    warning. The sum is taken by :func:`_kernel_sums`, in the lattice
    enumeration order, so the result is reproducible bit for bit.
    """
    norm = _sobolev_norm(field, s, f"the H^s norm at s = {s:g}")
    if not math.isfinite(norm):
        raise ParameterError(f"the H^s norm at s = {s:g} is not finite: the field's weighted squares overflow")
    return norm


def _span_reader(field) -> Callable:
    """``read(start, stop)``, the coefficients of ``field`` at the lattice
    positions [start, stop): a slice of a field's table, or what a source of
    coefficients with no table forms there (its ``span``, as
    ``signals._Hat``, a deblur run's truth)."""
    return getattr(field, "span", None) or (lambda start, stop: field.coefficients[start:stop])


def _sobolev_norm(field: SpectralField, s: float, what: str) -> float:
    """:func:`sobolev_norm`, with ``what`` naming the norm in the error its
    weights raise when they overflow (``tikhonov.functional`` names r), and
    inf, without a warning, where that function refuses a sum that overflows:
    each caller names its own keys. ``field`` may also be a source of
    coefficients by span (:func:`_span_reader`). Each leaf of the sum builds
    its own weights, with the arithmetic of :func:`_leaf_tables`, and checks
    them and its coefficients, so no lattice-sized table is formed. For a
    Hermitian field |c|^2 is even, as are the weights, so each mirror group
    forms both once per +-l pair, on its span, and each leaf reads them
    mirrored (:func:`_mirrored`), as the noise probe does: the same per-mode
    values, so the same sums. The errors are raised after the sum,
    non-finite coefficients first."""
    lattice, read = field.lattice, _span_reader(field)
    faults = [False, False]  # non-finite coefficients, weights that overflow; only ever set

    def tables(part: slice) -> tuple:
        values = read(part.start, part.stop)
        weights = (1.0 + _squares(_piece_modes(lattice, part))) ** float(s)
        if not np.isfinite(values).all():
            faults[0] = True
        if not np.isfinite(weights).all():
            faults[1] = True
        return weights, values.real**2 + values.imag**2

    def group_sums(span: slice, pieces: list) -> list:
        if not field.hermitian:
            return [np.sum(np.multiply(*tables(piece))) for piece in pieces]
        pair, zero = tables(span), lattice.zero_index
        return [np.sum(np.multiply(*(_mirrored(t, p, zero, span.start - zero) for t in pair))) for p in pieces]

    with np.errstate(over="ignore", invalid="ignore"):  # the workers run under it too
        total = _kernel_sums(lattice, group_sums)
    if faults[0]:
        raise InvalidFieldError("field has non-finite coefficients")
    if faults[1]:
        raise _overflowing_weights(lattice, s, what)
    return float(np.sqrt(total))


def apply_multiplier(op: MultiplierOperator, field: SpectralField) -> SpectralField:
    """Per-mode product a(l) * c(l). The product's Hermitian flag is computed
    from its coefficients, like every field's; it holds whenever the field and
    the symbol are both Hermitian-symmetric on the lattice. A product that is
    not finite (a roughening symbol on large coefficients) raises a
    ParameterError naming the operator, with no warning."""
    values = op.symbol_values(field.lattice)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        product = values * field.coefficients
    if not np.isfinite(product).all():
        raise ParameterError(
            f"the product of {op.name!r} and the field is not finite: the coefficients are not finite, "
            "or too large for the symbol"
        )
    return SpectralField(field.lattice, product)


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


def _mirror_groups(count: int, leaves: list) -> list:
    """The leaves of the tree over the ``count`` positions of a ball in its
    own enumeration order (:func:`_pairwise_tree`; the whole lattice is its
    largest ball) in mirror groups, as (span, members) pairs: the members'
    indices in ``leaves`` and the positions ``span`` = [zero + first,
    zero + end) that hold every mode of the members up to its sign, at the
    offsets first..end-1 from the zero mode. Position p holds the conjugate
    mode of count - 1 - p, so each member reads a table built on the span
    through :func:`_mirrored`.

    A leaf's offsets |p - zero| form one range. In offset order, a leaf
    joins the group before it when more than half of the shorter of its
    range and the group's span overlap: a leaf above the zero mode and the
    leaves below it that mirror it. The two halves' trees split within a
    few positions of each other's mirrors, so neighbouring groups share a
    few dozen modes at most, and where one half splits a range that the
    other keeps whole, the three leaves form one group."""
    zero = (count - 1) // 2
    ranges = sorted(
        (max(start - zero, zero + 1 - stop, 0), max(stop - zero, zero + 1 - start), i)
        for i, (start, stop) in enumerate(leaves)
    )
    groups: list = []
    for first, end, i in ranges:
        if groups and 2 * (min(groups[-1][1], end) - first) > min(end - first, groups[-1][1] - groups[-1][0]):
            groups[-1][1] = max(groups[-1][1], end)
            groups[-1][2].append(i)
        else:
            groups.append([first, end, [i]])
    return [(slice(zero + first, zero + end), members) for first, end, members in groups]


def _ball_tree(count: int) -> tuple:
    """The root and the leaves of the tree over the ``count`` positions of a
    ball in its own enumeration order (:func:`_pairwise_tree`), and the
    leaves' mirror groups (:func:`_mirror_groups`)."""
    leaves: list = []
    root = _pairwise_tree(0, count, leaves)
    return root, leaves, _mirror_groups(count, leaves)


def _add_up(node, sums: list):
    """The sum of a tree's leaf sums, added in the tree's order."""
    if isinstance(node, int):
        return sums[node]
    return _add_up(node[0], sums) + _add_up(node[1], sums)


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


def _mirrored(half: np.ndarray, piece, zero: int, first: int = 0) -> np.ndarray:
    """The entries of an even per-mode table, ``half`` its entries at the
    positions zero + first, zero + first + 1, ... (a group's span of
    :func:`_kernel_sums`, or with first = 0 the half lattice), at the lattice
    positions ``piece`` indexes (a slice or an index array, as
    :func:`_kernel_sums` hands its pieces), in piece order. The conjugate of
    position p is 2 zero - p, so p reads half[|p - zero| - first]: a slice
    above the zero mode is a view, one below it a reversed view, a slice
    that holds the zero mode (first = 0) a concatenation, and an index array
    a gather."""
    if not isinstance(piece, slice):
        return half[np.abs(piece - zero) - first]
    start, stop = piece.start - zero, piece.stop - zero
    if start >= 0:
        return half[start - first : stop - first]
    if stop <= 1:
        return half[1 - stop - first : 1 - start - first][::-1]
    return np.concatenate((half[1 : 1 - start][::-1], half[:stop]))


def _conjugated(half: np.ndarray, piece: slice, zero: int, first: int = 0) -> np.ndarray:
    """The entries of a Hermitian per-mode table, c(-l) = conj(c(l)), at the
    lattice positions of the slice ``piece``: those of :func:`_mirrored`
    from ``half``, its entries at the positions zero + first, zero + first +
    1, ..., conjugated below the zero mode, in a fresh array, or a view of
    ``half`` when no entry lies below it. The two sides are read apart, so
    no mirrored copy is formed before the conjugate."""
    below = max(0, min(piece.stop, zero) - piece.start)
    mirror = _mirrored(half, slice(piece.start, piece.start + below), zero, first).conj()
    values = _mirrored(half, slice(piece.start + below, piece.stop), zero, first)
    return np.concatenate((mirror, values)) if below else values


def _kernel_sums(lattice: FrequencyLattice, kernel: Callable, bandlimits=None):
    """Sums of per-mode quantities that ``kernel`` gives piece by piece: the
    package's one way to sum a per-mode quantity. No lattice-sized table is
    formed.

    The pieces come in the mirror groups of :func:`_mirror_groups`, so that
    a kernel can form what a piece and its mirror share once:
    ``kernel(span, pieces)`` returns one sum per piece, in order, each a
    float64 scalar, or a vector in which each entry is one ``np.sum`` of an
    array the kernel formed over that piece's own positions in their order.
    ``span`` and each piece index lattice-ordered tables (a slice, or for a
    ball of a 2-d lattice an index array, :func:`_ball_piece`); ``span``
    holds every mode of the group's pieces up to its sign, from the zero
    mode's side up, so that a table built on it reads through
    :func:`_mirrored` as each piece's own entries. The groups of every ball
    run across the CPUs in one :func:`_dispatch`, under the caller's
    ``np.errstate``, in order of their span's first offset from the zero
    mode (a ball's own, ties in ball order): a worker walks runs of them in
    that order, so a kernel may keep per thread what one group formed on
    its span for the next (``noise.regularity_probe`` does); the order
    changes no sum. The result is one sum per ball of ``bandlimits``, in
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
    roots, sums, groups = [], [], []
    for m in balls:
        count = (2 * m + 1) ** lattice.dimension
        root, leaves, ball_groups = _ball_tree(count)
        roots.append(root)
        sums.append([None] * len(leaves))
        groups += [(span.start - count // 2, m, leaves, sums[-1], span, members) for span, members in ball_groups]
    groups.sort(key=lambda group: group[0])

    def task(g: int) -> None:
        _, m, leaves, ball_sums, span, members = groups[g]
        pieces = [_ball_piece(lattice, m, *leaves[i]) for i in members]
        for i, total in zip(members, kernel(_ball_piece(lattice, m, span.start, span.stop), pieces), strict=True):
            ball_sums[i] = total

    _dispatch(task, len(groups), sum((2 * m + 1) ** lattice.dimension for m in balls))
    totals = [_add_up(root, ball_sums) for root, ball_sums in zip(roots, sums)]
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
    Coefficients so large that a grid value overflows raise
    InvalidFieldError, with no warning.
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
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        values = np.fft.ifftn(spectrum) * points_per_axis**lattice.dimension
    if not np.isfinite(values.real).all():
        raise InvalidFieldError("field coefficients must be small enough that their grid values are finite")
    return np.ascontiguousarray(values.real)


def field_from_grid(lattice: FrequencyLattice, values: np.ndarray) -> SpectralField:
    """Analyze real grid samples into lattice coefficients (inverse of
    evaluate_on_grid for bandlimited data).

    The output is symmetrized exactly, so the Hermitian flag always holds.
    Samples that are not finite, or so large that a coefficient overflows,
    raise InvalidFieldError, with no warning.
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
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        spectrum = np.fft.fftn(values) / points**lattice.dimension
        coeffs = spectrum[_fft_bins(lattice, points)]
        coeffs = 0.5 * (coeffs + coeffs[::-1].conj())
    if not np.isfinite(coeffs).all():
        raise InvalidFieldError("grid samples must be finite, and small enough that their coefficients are")
    zero = lattice.zero_index
    coeffs[zero] = coeffs[zero].real
    return SpectralField(lattice, coeffs, hermitian=True)


def power_law_operator(
    t: float, dimension: int | None = None, name: str | None = None
) -> MultiplierOperator:
    """Elliptic multiplier with symbol (1 + |l|^2)^(-t/2), order -t.

    t > 0 smooths (the forward maps studied here), t < 0 roughens; t = -r
    realizes (I - Laplacian)^(r/2), the Sobolev-norm multiplier. A t of
    -2048 or below raises ParameterError: the ellipticity bound 2^(-t/2)
    leaves the double range.
    """

    def symbol(modes: np.ndarray) -> np.ndarray:
        sq = np.sum(modes.astype(np.float64) ** 2, axis=1)
        return (1.0 + sq) ** (-t / 2.0)

    if t <= -2048.0:  # 2^(-t/2) below would raise an OverflowError
        raise ParameterError(f"t = {t:g} is too negative: the bound 2^(-t/2) overflows")
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
