"""Finite-dimensional Tikhonov problems in the real trigonometric basis: a
dense normal-equation solver (library API and reference oracle; the only
user of scipy, imported on first call) whose penalty is the H^r norm,
L = diag((1+|l|^2)^(r/2)) with r = 0 the identity, plus the refinement
sweep. That penalty keeps the normal matrix block-diagonal per mode, so the
sweep forms the reference minimizer piece by piece in one pass over the
reference lattice and reads every (n, k) size as sums of per-mode terms
over the size's observed ball.

Basis and projections (d = 1)
-----------------------------
The unknown space X_n with odd n = 2M+1 is spanned by the orthonormal real
basis ordered like the frequency lattice -M..M:

    position of -l  (l > 0):  sqrt(2) sin(2 pi l x)
    position of  0:           1
    position of +l  (l > 0):  sqrt(2) cos(2 pi l x)

so the coordinate map is literal Fourier truncation, and the data projection
onto k = 2K+1 coordinates is truncation to bandlimit K. Coordinates relate
to spectral coefficients by x_const = c(0), x_cos = sqrt(2) Re c(l),
x_sin = -sqrt(2) Im c(l).
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionError,
    InvalidFieldError,
    NotRealValuedError,
    NumericalError,
    ParameterError,
)
from .spectral import (
    FrequencyLattice,
    MultiplierOperator,
    SpectralField,
    _as_index,
    _kernel_sums,
    _leaf_tables,
    ball,
    finite_sobolev_weights,
    is_hermitian,
    sobolev_weights,
)
from .tikhonov import RegularizationSchedule, _gain, forward

DENSE_SIZE_CAP = 4096  # largest n or k that assemble() builds as a dense matrix

__all__ = [
    "DiscreteProblem",
    "assemble",
    "solve_discrete",
    "field_to_coords",
    "coords_to_field",
    "low_frequency_test_functions",
    "GammaRow",
    "GammaSizeSummary",
    "GammaResult",
    "gamma_sweep",
    "DENSE_SIZE_CAP",
]


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Matrix Tikhonov problem min ||A u - m||_2^2 + alpha ||L u||_2^2 with
    A the k x n section of the multiplier between trigonometric bases."""

    n: int
    k: int
    A_matrix: np.ndarray
    L_matrix: np.ndarray
    alpha: float


def assemble(A: MultiplierOperator, n: int, k: int, alpha: float, r: float) -> DiscreteProblem:
    """Build the k x n matrix section of the multiplier plus the H^r penalty
    L = diag((1+|l|^2)^(r/2)), so ||L u||_2 is the H^r norm of u; r = 0 is
    standard Tikhonov (L = I).

    Requires odd n and k (full conjugate pairs). A Hermitian symbol
    a = p + i q contributes the rotation block [[p, q], [-q, p]] on each
    (cos, sin) pair; real even symbols make the matrix diagonal.
    """
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not r >= 0:
        raise ParameterError(f"penalty order r must be >= 0, got {r}")
    if n < 1 or k < 1:
        raise ParameterError(f"need n, k >= 1, got n={n}, k={k}")
    if n % 2 == 0 or k % 2 == 0:
        raise ParameterError(f"n and k must be odd (2M+1 basis sizes), got n={n}, k={k}")
    if n > DENSE_SIZE_CAP or k > DENSE_SIZE_CAP:
        raise ParameterError(
            f"dense assembly capped at {DENSE_SIZE_CAP}; use the spectral solver instead"
        )

    half_n = (n - 1) // 2
    half_k = (k - 1) // 2
    lattice_n = FrequencyLattice(1, half_n)
    finite_sobolev_weights(lattice_n, r, f"the penalty at r = {r:g}")  # L^T L, not just L
    values = A.symbol_values(lattice_n)
    if not is_hermitian(values):
        raise ParameterError(
            "real-basis assembly needs a Hermitian-symmetric symbol "
            "(the operator must map real functions to real functions)"
        )

    matrix = np.zeros((k, n))
    matrix[half_k, half_n] = values[half_n].real
    l = np.arange(1, min(half_n, half_k) + 1)
    p, q = values[half_n + l].real, values[half_n + l].imag
    cos_n, sin_n, cos_k, sin_k = half_n + l, half_n - l, half_k + l, half_k - l
    matrix[cos_k, cos_n] = p
    matrix[cos_k, sin_n] = q
    matrix[sin_k, cos_n] = -q
    matrix[sin_k, sin_n] = p

    return DiscreteProblem(
        n=n,
        k=k,
        A_matrix=matrix,
        L_matrix=np.diag(sobolev_weights(lattice_n, r / 2.0)),
        alpha=float(alpha),
    )


def solve_discrete(problem: DiscreteProblem, data: np.ndarray) -> np.ndarray:
    """Normal-equations solve (A^T A + alpha L^T L)^(-1) A^T m via a dense
    Cholesky factorization, with a residual check that guards the
    positive-definiteness invariant."""
    import scipy.linalg  # deferred: the CLI never reaches the dense solver

    data = np.asarray(data, dtype=np.float64)
    if data.shape != (problem.k,):
        raise DimensionError(f"data must have length k = {problem.k}, got {data.shape}")
    gram = problem.A_matrix.T @ problem.A_matrix + problem.alpha * (
        problem.L_matrix.T @ problem.L_matrix
    )
    rhs = problem.A_matrix.T @ data
    try:
        factor = scipy.linalg.cho_factor(gram, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"normal matrix is not positive definite: {exc}") from exc
    solution = scipy.linalg.cho_solve(factor, rhs)
    residual = float(np.linalg.norm(gram @ solution - rhs))
    scale = float(np.linalg.norm(rhs))
    if residual > 1e-10 * max(scale, 1e-300):
        raise NumericalError(
            f"normal-equation residual {residual:.3e} exceeds 1e-10 * ||A^T m|| = {1e-10 * scale:.3e}"
        )
    return solution


def field_to_coords(field: SpectralField) -> np.ndarray:
    """Coordinates of a real field in the orthonormal trigonometric basis."""
    if field.lattice.dimension != 1:
        raise DimensionError("trigonometric coordinates are implemented for d = 1")
    if not field.hermitian:
        raise NotRealValuedError("field_to_coords needs a Hermitian field")
    half = field.lattice.bandlimit
    center = field.lattice.zero_index
    coeffs = field.coefficients
    coords = np.empty(field.lattice.mode_count)
    coords[center] = coeffs[center].real
    positive = coeffs[center + 1 :]
    coords[center + 1 :] = np.sqrt(2.0) * positive.real
    coords[:center] = -np.sqrt(2.0) * positive.imag[::-1]
    return coords


def coords_to_field(lattice: FrequencyLattice, coords: np.ndarray) -> SpectralField:
    """Inverse of field_to_coords; output always carries the Hermitian flag."""
    if lattice.dimension != 1:
        raise DimensionError("trigonometric coordinates are implemented for d = 1")
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (lattice.mode_count,):
        raise DimensionError(f"expected {lattice.mode_count} coordinates, got {coords.shape}")
    if not np.isfinite(coords).all():  # before any arithmetic, which would warn
        raise InvalidFieldError("trigonometric coordinates must be finite")
    center = lattice.zero_index
    coeffs = np.zeros(lattice.mode_count, dtype=np.complex128)
    coeffs[center] = coords[center]
    cos_part = coords[center + 1 :]
    sin_part = coords[:center][::-1]
    positive = (cos_part - 1j * sin_part) / np.sqrt(2.0)
    coeffs[center + 1 :] = positive
    coeffs[:center] = positive[::-1].conj()
    return SpectralField(lattice, coeffs, hermitian=True)


def low_frequency_test_functions(lattice: FrequencyLattice, count: int = 5) -> list:
    """Unit-norm probes for weak-topology gaps: the constant, then
    sqrt(2) cos / sqrt(2) sin at frequencies 1, 2, ... Labeled fields in the
    order const, cos1, sin1, cos2, sin2, ...; ``count`` is an integer from 0
    to the lattice's mode count, else ParameterError."""
    if lattice.dimension != 1:
        raise DimensionError("test functions are implemented for d = 1")
    if _as_index(count) is None or not 0 <= count <= lattice.mode_count:
        raise ParameterError(f"count must be an integer in 0..{lattice.mode_count}, got {count!r}")
    functions: list[tuple[str, SpectralField]] = []
    for i in range(count):
        # the probes are the coordinate basis vectors at modes 0, +1, -1, +2, ...
        frequency = (i + 1) // 2
        unit = np.zeros(lattice.mode_count)
        unit[lattice.index_of([frequency if i % 2 else -frequency])] = 1.0
        label = f"{'cos' if i % 2 else 'sin'}{frequency}" if i else "const"
        functions.append((label, coords_to_field(lattice, unit)))
    return functions


class GammaRow(NamedTuple):
    n: int
    k: int
    alpha: float
    test_function_id: str
    pairing_gap: float
    functional_gap: float
    c_k: float


@dataclasses.dataclass(frozen=True)
class GammaSizeSummary:
    n: int
    k: int
    c_k: float
    functional_value: float   # F_{n,k}(minimizer) - c_k
    functional_gap: float     # above minus the continuum objective value
    ball_radius: float        # 2 alpha^{-1} ||(P_k A)* m||_{H^-r}
    minimizer_hr_norm: float


@dataclasses.dataclass(frozen=True, eq=False)
class GammaResult:
    rows: list
    summaries: list
    continuum_objective: float
    reference_bandlimit: int


def gamma_sweep(
    A: MultiplierOperator,
    truth: SpectralField,
    noise: SpectralField,
    delta: float,
    schedule: RegularizationSchedule,
    sizes: Sequence[tuple],
    test_functions: Sequence[tuple],
) -> GammaResult:
    """Discretization-refinement sweep against the closed-form minimizer.

    For each (n, k) the matrix minimizer is compared with the reference
    spectral minimizer on the truth lattice through (i) pairings with fixed
    smooth test functions and (ii) shifted objective values; under the
    spectral penalty both gaps shrink to zero along nested sizes because the
    two solvers agree mode by mode on shared frequencies.

    No size is assembled or solved: the spectral penalty keeps the normal
    matrix block-diagonal per mode, so the matrix minimizer of size (n, k) is
    the reference minimizer on its observed ball |l| <= min(half_n, half_k)
    (half_n = (n - 1) // 2) and zero elsewhere. Every size is checked before
    any table is built; n and k must be odd integers, as :func:`assemble`
    requires. Only the data m is a whole-lattice table: one call of
    ``spectral._kernel_sums`` (whose docstring states the summation rule)
    takes every sum in one pass over the lattice, and its kernel builds, for
    each piece of a mirror group in turn, a, |a|^2 and (1+|l|^2)^{+-r}
    (``spectral._leaf_tables``) and the minimizer u = (conj(a)/z) m
    (``tikhonov._gain``, the filter that :func:`~tikhtorus.tikhonov.solve`
    applies, so u is solve's bit for bit). From them it forms the
    objective's terms |a u|^2 and Re(m conj(a u)), the H^r norm's and the
    ball radius's weighted squares and one pairing Re(u conj(phi)) per test
    function, and returns their sums as one vector per piece, which the pass
    adds up over each distinct ball once: the sizes' observed balls and the
    whole lattice, which a size that observes every mode shares with the
    continuum. The continuum objective is the same expression over the
    whole lattice.
    An alpha that underflows to 0 raises ParameterError, as solve does; data
    so large that a sum, a c_k or a gap is not finite raise ParameterError
    naming ``[grids] delta_grid``.
    """
    if schedule.r <= 0:
        raise ParameterError("gamma sweep needs a spectral penalty with r > 0")
    pairs = [(_as_index(n), _as_index(k)) for n, k in sizes]
    for (n, k), size in zip(pairs, sizes):
        if None in (n, k) or n % 2 == 0 or k % 2 == 0:
            raise ParameterError(f"sizes must be odd integers (2M+1 basis sizes), got {size!r}")
    if any(b < a for (a, _), (b, _) in zip(pairs, pairs[1:])):
        raise ParameterError("sizes must be nondecreasing in n")
    lattice = truth.lattice
    if lattice.dimension != 1:
        raise DimensionError("gamma sweep is implemented for d = 1")
    for n, k in pairs:
        if min(n, k) < 1:
            raise ParameterError(f"sizes must be positive, got ({n}, {k})")
        if max(n - 1, k - 1) // 2 > lattice.bandlimit:
            raise ParameterError(
                f"size ({n}, {k}) exceeds the reference bandlimit {lattice.bandlimit}"
            )
    finite_sobolev_weights(lattice, schedule.r, f"the penalty at [schedule] r = {schedule.r:g}")
    if any(phi.lattice != lattice for _, phi in test_functions):
        raise DimensionError("pairing needs a shared lattice")

    m_field = forward(A, truth, delta, noise).data
    alpha, r, m = schedule.alpha(delta), float(schedule.r), m_field.coefficients
    if not alpha > 0:  # alpha0 delta^kappa underflows to 0
        raise ParameterError(f"alpha must be positive, got {alpha}")
    # the observed ball of each size, then the whole lattice (the continuum),
    # each distinct ball walked once
    radii = [min(n - 1, k - 1) // 2 for n, k in pairs] + [lattice.bandlimit]
    distinct = list(dict.fromkeys(radii))

    # data near the top of the double range overflow the sums (or the
    # minimizer): what comes out inf or nan is refused below, naming the key
    # that sets the data's size
    with np.errstate(over="ignore", invalid="ignore"):
        coords = field_to_coords(m_field)
        c_ks = [float(v @ v) for v in (ball(lattice, coords, (k - 1) // 2) for _, k in pairs)]
        del coords
        phis = [phi.coefficients for _, phi in test_functions]

        def piece_sums(piece: slice) -> np.ndarray:
            symbol, symbol_sq, weights = _leaf_tables(A, lattice, piece, (r, -r))
            u = np.multiply(_gain(symbol, symbol_sq, weights[r], alpha)[0], m[piece])  # solve's minimizer
            image = np.multiply(symbol, u)  # a u
            adjoint_data = np.multiply(np.conjugate(symbol), m[piece])  # conj(a) m, of A* m
            return np.array([
                np.sum(image.real**2 + image.imag**2),  # the H^0 weights are 1
                np.sum(np.multiply(m[piece], np.conjugate(image)).real),
                np.sum(np.multiply(weights[r], u.real**2 + u.imag**2)),
                np.sum(np.multiply(weights[-r], adjoint_data.real**2 + adjoint_data.imag**2)),
                *(np.sum(np.multiply(u, np.conjugate(phi[piece])).real) for phi in phis),
            ])

        # per ball, then the whole lattice: ||a u||^2, <m, a u>, ||u||_{H^r}^2,
        # ||A* m||_{H^-r}^2 and <u, phi> per test function
        totals = _kernel_sums(lattice, lambda span, pieces: [piece_sums(piece) for piece in pieces], distinct)
        by_radius = dict(zip(distinct, (total.tolist() for total in totals)))
        sums = [by_radius[radius] for radius in radii]
    values = [energy - 2.0 * pairing + alpha * math.sqrt(hr) ** 2 for energy, pairing, hr, *_ in sums]
    continuum_objective = values[-1]
    summaries = [
        GammaSizeSummary(
            n=n,
            k=k,
            c_k=c_k,
            functional_value=value,
            functional_gap=value - continuum_objective,
            ball_radius=2.0 / alpha * math.sqrt(total[3]),
            minimizer_hr_norm=math.sqrt(total[2]),
        )
        for (n, k), c_k, value, total in zip(pairs, c_ks, values, sums)
    ]
    # <P u - u, phi>: the ball's pairing minus the whole lattice's
    gaps = [[part - whole for part, whole in zip(total[4:], sums[-1][4:])] for total in sums[:-1]]
    numbers = [continuum_objective, *(x for size in summaries for x in dataclasses.astuple(size))]
    if not all(map(math.isfinite, numbers + [gap for row in gaps for gap in row])):
        raise ParameterError(
            f"the gamma sweep overflows at delta = {delta:g} (alpha = {alpha:g}): a sum, c_k or "
            "gap is not finite ([grids] delta_grid)"
        )
    rows = [
        GammaRow(size.n, size.k, alpha, label, gap, size.functional_gap, size.c_k)
        for size, row in zip(summaries, gaps)
        for (label, _), gap in zip(test_functions, row)
    ]
    return GammaResult(
        rows=rows,
        summaries=summaries,
        continuum_objective=continuum_objective,
        reference_bandlimit=lattice.bandlimit,
    )
