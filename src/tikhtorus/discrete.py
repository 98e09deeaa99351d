"""Finite-dimensional Tikhonov problems in the real trigonometric basis: a
dense normal-equation solver (library API and reference oracle; the only
user of scipy, imported on first call) whose penalty is the H^r norm,
L = diag((1+|l|^2)^(r/2)) with r = 0 the identity, plus the refinement
sweep, which solves every (n, k) size in closed form because that penalty
keeps the normal matrix block-diagonal per mode.

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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionError,
    NotRealValuedError,
    NumericalError,
    ParameterError,
)
from .spectral import (
    FrequencyLattice,
    MultiplierOperator,
    SpectralField,
    ball,
    finite_sobolev_weights,
    is_hermitian,
    sobolev_norm,
    sobolev_weights,
    truncate,
)
from .tikhonov import (
    RegularizationSchedule,
    data_shifted_functional,
    forward,
    solve,
)

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
    order const, cos1, sin1, cos2, sin2, ..."""
    if lattice.dimension != 1:
        raise DimensionError("test functions are implemented for d = 1")
    functions: list[tuple[str, SpectralField]] = []
    for i in range(count):
        # the probes are the coordinate basis vectors at modes 0, +1, -1, +2, ...
        frequency = (i + 1) // 2
        unit = np.zeros(lattice.mode_count)
        unit[lattice.index_of([frequency if i % 2 else -frequency])] = 1.0
        label = f"{'cos' if i % 2 else 'sin'}{frequency}" if i else "const"
        functions.append((label, coords_to_field(lattice, unit)))
    return functions


def _l2_pairing(f: SpectralField, g: SpectralField) -> float:
    if f.lattice != g.lattice:
        raise DimensionError("pairing needs a shared lattice")
    return float(np.sum((f.coefficients * g.coefficients.conj()).real))


def _embed(field: SpectralField, big: FrequencyLattice) -> SpectralField:
    """Zero-extend a field onto a larger lattice."""
    coeffs = np.zeros(big.mode_count, dtype=np.complex128)
    window = ball(big, coeffs, field.lattice.bandlimit)
    window[...] = field.coefficients.reshape(window.shape)
    return SpectralField(big, coeffs)


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

    No size is assembled: the spectral penalty keeps the normal matrix
    block-diagonal per mode, so the matrix minimizer is solve() on the
    observed modes (bandlimit min(half_n, half_k)), zero-extended to n.
    """
    if schedule.r <= 0:
        raise ParameterError("gamma sweep needs a spectral penalty with r > 0")
    pairs = [(int(n), int(k)) for n, k in sizes]
    if any(b < a for (a, _), (b, _) in zip(pairs, pairs[1:])):
        raise ParameterError("sizes must be nondecreasing in n")
    lattice = truth.lattice
    if lattice.dimension != 1:
        raise DimensionError("gamma sweep is implemented for d = 1")
    finite_sobolev_weights(lattice, schedule.r, f"the penalty at [schedule] r = {schedule.r:g}")

    measurement = forward(A, truth, delta, noise)
    m_field = measurement.data
    alpha = schedule.alpha(delta)
    u_cont = solve(A, m_field, alpha, schedule.r)
    continuum_objective = data_shifted_functional(A, m_field, alpha, schedule.r, u_cont)

    rows: list[GammaRow] = []
    summaries: list[GammaSizeSummary] = []
    for n, k in pairs:
        half_n, half_k = (n - 1) // 2, (k - 1) // 2
        if max(half_n, half_k) > lattice.bandlimit:
            raise ParameterError(
                f"size ({n}, {k}) exceeds the reference bandlimit {lattice.bandlimit}"
            )
        data = field_to_coords(truncate(m_field, half_k))
        c_k = float(data @ data)
        observed = truncate(m_field, min(half_n, half_k))
        u_observed = solve(A, observed, alpha, schedule.r)
        value = data_shifted_functional(A, observed, alpha, schedule.r, u_observed)
        rhs = A.symbol_values(observed.lattice).conj() * observed.coefficients
        rhs_norm = sobolev_norm(SpectralField(observed.lattice, rhs), -schedule.r)
        difference = _embed(u_observed, lattice) - u_cont
        gap_value = value - continuum_objective
        ball_radius = 2.0 / alpha * rhs_norm
        summaries.append(
            GammaSizeSummary(
                n=n,
                k=k,
                c_k=c_k,
                functional_value=value,
                functional_gap=gap_value,
                ball_radius=ball_radius,
                minimizer_hr_norm=sobolev_norm(u_observed, schedule.r),
            )
        )
        for label, phi in test_functions:
            rows.append(
                GammaRow(
                    n=n,
                    k=k,
                    alpha=alpha,
                    test_function_id=label,
                    pairing_gap=_l2_pairing(difference, phi),
                    functional_gap=gap_value,
                    c_k=c_k,
                )
            )
    return GammaResult(
        rows=rows,
        summaries=summaries,
        continuum_objective=continuum_objective,
        reference_bandlimit=lattice.bandlimit,
    )
