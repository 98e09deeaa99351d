"""Matrix Tikhonov problems, penalty matrices, and the refinement sweep."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from tikhtorus import (
    DimensionError,
    FrequencyLattice,
    MultiplierOperator,
    NumericalError,
    ParameterError,
    RegularizationSchedule,
    SpectralField,
    assemble,
    coords_to_field,
    deblur_operator,
    field_to_coords,
    forward,
    gamma_sweep,
    hat_coefficients,
    low_frequency_test_functions,
    power_law_operator,
    sample_white_noise,
    sobolev_norm,
    solve,
    solve_discrete,
    sobolev_weights,
    truncate,
    data_shifted_functional,
)
from tikhtorus import spectral
from tikhtorus.discrete import (
    DENSE_SIZE_CAP,
    GammaResult,
    GammaRow,
    GammaSizeSummary,
)

from test_spectral import random_hermitian_field


def smooth_full_spectrum_field(lattice, decay=0.5):
    """Hermitian test function with geometric coefficient decay on every mode;
    used to make the tail-sum pairing oracle non-vacuous."""
    modes = lattice.modes()[:, 0]
    coeffs = (decay ** np.abs(modes)).astype(np.complex128)
    return SpectralField(lattice, coeffs, hermitian=True)


class TestCoordinates:
    def test_round_trip(self):
        lat = FrequencyLattice(1, 9)
        f = random_hermitian_field(lat, 4)
        coords = field_to_coords(f)
        back = coords_to_field(lat, coords)
        np.testing.assert_allclose(back.coefficients, f.coefficients, rtol=0, atol=1e-15)

    def test_isometry(self):
        lat = FrequencyLattice(1, 12)
        f = random_hermitian_field(lat, 5)
        coords = field_to_coords(f)
        assert np.linalg.norm(coords) == pytest.approx(sobolev_norm(f, 0.0), rel=1e-14)

    def test_requires_hermitian(self):
        from tikhtorus import NotRealValuedError, single_mode_field

        with pytest.raises(NotRealValuedError):
            field_to_coords(single_mode_field(FrequencyLattice(1, 2), [1], 1.0))


class TestLowFrequencyTestFunctions:
    def test_count_runs_from_zero_to_the_mode_count(self):
        lattice = FrequencyLattice(1, 8)
        assert low_frequency_test_functions(lattice, 0) == []
        labels = [label for label, _ in low_frequency_test_functions(lattice, 17)]
        assert labels[:3] == ["const", "cos1", "sin1"] and labels[-2:] == ["cos8", "sin8"]

    @pytest.mark.parametrize("count", [2.5, "3", None, -1, 18])
    def test_count_is_an_integer_in_range(self, count):
        # 18 needs frequency 9 on a bandlimit-8 lattice of 17 modes
        with pytest.raises(ParameterError, match=r"count must be an integer in 0\.\.17"):
            low_frequency_test_functions(FrequencyLattice(1, 8), count)


class TestPenalties:
    def test_identity(self):
        L = assemble(deblur_operator(), 5, 5, 1.0, 0.0).L_matrix
        assert np.array_equal(L, np.eye(5))

    def test_spectral_weights(self):
        L = assemble(deblur_operator(), 5, 5, 1.0, 1.0).L_matrix
        modes = np.array([-2, -1, 0, 1, 2], dtype=float)
        np.testing.assert_allclose(np.diag(L) ** 2, (1 + modes**2), rtol=1e-15)

    def test_penalty_validation(self):
        for r in (-1.0, float("nan")):
            with pytest.raises(ParameterError, match="penalty order r"):
                assemble(deblur_operator(), 5, 5, 1.0, r)
        # (1+50^2)^400 overflows: an error, not an inf L and a RuntimeWarning
        with pytest.raises(ParameterError, match="r = 400"):
            assemble(deblur_operator(), 101, 101, 1e-3, 400.0)


class TestAssemble:
    def test_identity_operator_square(self):
        prob = assemble(power_law_operator(0.0), 9, 9, 0.5, 0.0)
        assert np.array_equal(prob.A_matrix, np.eye(9))

    def test_scalar_problem(self):
        # constant mode only: normal matrix is 1 + alpha, so data 2 gives 2/(1+alpha)
        prob = assemble(power_law_operator(0.0), 1, 1, 1.0, 0.0)
        x = solve_discrete(prob, np.array([2.0]))
        assert x[0] == pytest.approx(1.0, rel=1e-14)

    def test_deblur_diagonal_entries(self):
        M = 8
        n = 2 * M + 1
        alpha = 1e-2
        prob = assemble(deblur_operator(), n, n, alpha, 1.0)
        gram = prob.A_matrix.T @ prob.A_matrix + alpha * prob.L_matrix.T @ prob.L_matrix
        modes = np.arange(-M, M + 1, dtype=float)
        expected = (1 + modes**2) ** -2 + alpha * (1 + modes**2)
        np.testing.assert_allclose(np.diag(gram), expected, rtol=1e-14)
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) == 0.0

    def test_rectangular_sections(self):
        prob = assemble(deblur_operator(), 9, 5, 1e-3, 1.0)
        assert prob.A_matrix.shape == (5, 9)
        # unobserved columns (|l| > 2) are zero
        assert np.all(prob.A_matrix[:, :2] == 0)
        assert np.all(prob.A_matrix[:, -2:] == 0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            assemble(deblur_operator(), 8, 9, 1.0, 0.0)  # even n
        with pytest.raises(ParameterError):
            assemble(deblur_operator(), 9, 9, 0.0, 0.0)  # alpha
        with pytest.raises(ParameterError, match="alpha"):
            assemble(deblur_operator(), 9, 9, float("nan"), 0.0)
        with pytest.raises(ParameterError):
            assemble(deblur_operator(), DENSE_SIZE_CAP + 3, 9, 1.0, 0.0)


class TestSolveDiscrete:
    def test_solves_with_the_deferred_scipy_import(self):
        problem = assemble(deblur_operator(), 9, 9, 1e-2, 1.0)
        solution = solve_discrete(problem, np.arange(9.0))
        assert "scipy.linalg" in sys.modules
        assert np.all(np.isfinite(solution))

    def test_zero_data(self):
        prob = assemble(deblur_operator(), 17, 17, 1e-3, 1.0)
        x = solve_discrete(prob, np.zeros(17))
        assert np.all(x == 0)

    def test_matches_spectral_solver(self):
        M = 16
        n = 2 * M + 1
        alpha = 1e-4
        prob = assemble(deblur_operator(), n, n, alpha, 1.0)
        rng = np.random.default_rng(3)
        data = rng.standard_normal(n)
        x = solve_discrete(prob, data)
        lat = FrequencyLattice(1, M)
        reference = field_to_coords(solve(deblur_operator(), coords_to_field(lat, data), alpha, 1.0))
        assert np.max(np.abs(x - reference)) < 1e-10

    def test_normal_equation_residual(self):
        prob = assemble(twisted_deblur_operator(), 33, 33, 1e-5, 1.0)
        rng = np.random.default_rng(8)
        data = rng.standard_normal(33)
        x = solve_discrete(prob, data)
        gram = prob.A_matrix.T @ prob.A_matrix + prob.alpha * prob.L_matrix.T @ prob.L_matrix
        rhs = prob.A_matrix.T @ data
        assert np.linalg.norm(gram @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_minimizes_objective(self):
        prob = assemble(deblur_operator(), 9, 9, 1e-2, 1.0)
        rng = np.random.default_rng(10)
        data = rng.standard_normal(9)
        x = solve_discrete(prob, data)

        def objective(v):
            misfit = prob.A_matrix @ v - data
            pen = prob.L_matrix @ v
            return misfit @ misfit + prob.alpha * (pen @ pen)

        base = objective(x)
        for trial in range(50):
            assert objective(x + 1e-4 * rng.standard_normal(9)) >= base

    def test_spd_floor(self):
        # smallest eigenvalue of the normal matrix is at least alpha * lambda_min(L^T L)
        alpha = 1e-3
        for r in (0.0, 1.0):
            prob = assemble(deblur_operator(), 17, 17, alpha, r)
            gram = prob.A_matrix.T @ prob.A_matrix + alpha * prob.L_matrix.T @ prob.L_matrix
            floor = alpha * np.min(np.linalg.eigvalsh(prob.L_matrix.T @ prob.L_matrix))
            assert floor > 0
            assert np.min(np.linalg.eigvalsh(gram)) >= floor * (1 - 1e-10)

    def test_wrong_data_length(self):
        prob = assemble(deblur_operator(), 9, 9, 1.0, 0.0)
        with pytest.raises(DimensionError):
            solve_discrete(prob, np.zeros(5))

    def test_non_spd_detected(self):
        # a zero operator with a zero penalty makes the normal matrix singular;
        # assemble() never produces this, so build the problem directly
        prob = assemble(deblur_operator(), 5, 5, 1e-3, 0.0)
        degenerate = type(prob)(
            n=2,
            k=2,
            A_matrix=np.zeros((2, 2)),
            L_matrix=np.zeros((2, 2)),
            alpha=1.0,
        )
        with pytest.raises(NumericalError):
            solve_discrete(degenerate, np.ones(2))


SCHEDULE = RegularizationSchedule(alpha0=1.0, kappa=2.5, r=1.0)


def dense_gamma_oracle(operator, truth, noise, delta, sizes, phis):
    """gamma_sweep's outputs computed from the dense matrix problem: the
    coordinates from assemble + solve_discrete, the objective from the
    misfit and L @ coords, the ball radius from A^T data."""
    lattice = truth.lattice
    m_field = forward(operator, truth, delta, noise).data
    alpha, r = SCHEDULE.alpha(delta), SCHEDULE.r
    u_cont = solve(operator, m_field, alpha, r)
    continuum = data_shifted_functional(operator, m_field, alpha, r, u_cont)
    rows, summaries = [], []
    for n, k in sizes:
        half_n, half_k = (n - 1) // 2, (k - 1) // 2
        small = FrequencyLattice(1, half_n)
        data = field_to_coords(truncate(m_field, half_k))
        c_k = float(data @ data)
        problem = assemble(operator, n, k, alpha, r)
        coords = solve_discrete(problem, data)
        misfit = problem.A_matrix @ coords - data
        penalty = problem.L_matrix @ coords
        value = float(misfit @ misfit) + alpha * float(penalty @ penalty) - c_k
        rhs = problem.A_matrix.T @ data
        rhs_norm = float(np.sqrt(np.sum(sobolev_weights(small, -r) * rhs**2)))
        summaries.append(
            GammaSizeSummary(
                n=n,
                k=k,
                c_k=c_k,
                functional_value=value,
                functional_gap=value - continuum,
                ball_radius=2.0 / alpha * rhs_norm,
                minimizer_hr_norm=sobolev_norm(coords_to_field(small, coords), r),
            )
        )
        # zero-extend in coordinates: the basis is ordered like the lattice
        padded = np.zeros(lattice.mode_count)
        padded[lattice.zero_index - half_n : lattice.zero_index + half_n + 1] = coords
        difference = coords_to_field(lattice, padded) - u_cont
        for label, phi in phis:
            pairing = float(np.sum((difference.coefficients * phi.coefficients.conj()).real))
            rows.append(GammaRow(n, k, alpha, label, pairing, value - continuum, c_k))
    return GammaResult(rows, summaries, continuum, lattice.bandlimit)


def twisted_deblur_operator():
    """Deblurring symbol times the phase exp(0.3 i l): Hermitian but complex,
    so its real-basis matrix has off-diagonal (cos, sin) rotation blocks."""

    def symbol(modes):
        l = modes[:, 0].astype(np.float64)
        return np.exp(0.3j * l) / (1.0 + l**2)

    return MultiplierOperator(
        symbol=symbol,
        order=-2.0,
        ellipticity=deblur_operator().ellipticity,
        dimension=1,
        name="twisted_deblur",
    )


class TestGammaSweep:
    def build(self, reference_bandlimit=128, seed=3, delta=1e-3, count=5):
        lattice = FrequencyLattice(1, reference_bandlimit)
        truth = hat_coefficients(lattice)
        noise = sample_white_noise(lattice, seed)
        phis = low_frequency_test_functions(lattice, count)
        return lattice, truth, noise, phis

    def test_full_size_equals_reference(self):
        lattice, truth, noise, phis = self.build()
        full = 2 * lattice.bandlimit + 1
        result = gamma_sweep(
            deblur_operator(), truth, noise, 1e-3, SCHEDULE, [(full, full)], phis
        )
        for row in result.rows:
            assert abs(row.pairing_gap) < 1e-10
        assert abs(result.summaries[0].functional_gap) < 1e-10

    @pytest.mark.parametrize("size", [(5.9, 5.9), ("5", "5"), (4, 4), (5, 4), (17.0, 17)])
    def test_sizes_must_be_odd_integers(self, size):
        # a fractional size is not truncated, and an even one has no dense
        # counterpart: assemble refuses it too
        lattice, truth, noise, phis = self.build()
        with pytest.raises(ParameterError, match="sizes must be odd integers"):
            gamma_sweep(deblur_operator(), truth, noise, 1e-3, SCHEDULE, [(3, 3), size], phis)

    @pytest.mark.parametrize("size", [(999, 999), (-1, -1)])
    def test_sizes_are_checked_before_the_penalty(self, size):
        # r = 400 overflows the penalty's weights on this lattice, but a bad
        # size is reported first
        lattice, truth, noise, phis = self.build(reference_bandlimit=64)
        schedule = RegularizationSchedule(alpha0=1.0, kappa=2.5, r=400.0)
        with pytest.raises(ParameterError, match="exceeds the reference bandlimit|must be positive"):
            gamma_sweep(deblur_operator(), truth, noise, 1e-3, schedule, [size], phis)
        with pytest.raises(ParameterError, match="penalty at .schedule. r = 400 is not finite"):
            gamma_sweep(deblur_operator(), truth, noise, 1e-3, schedule, [(5, 5)], phis)

    @pytest.mark.parametrize("chunk", [10**9, 7])
    @pytest.mark.parametrize(
        "operator", [deblur_operator(), twisted_deblur_operator()], ids=["real", "complex"]
    )
    def test_one_pass_equals_the_whole_tables_ball_sums(self, monkeypatch, operator, chunk):
        # every sum is np.sum of its whole per-mode table over the size's
        # ball, and every gap that pairing minus its whole-lattice np.sum
        lattice, truth, noise, phis = self.build(reference_bandlimit=300)
        phis = phis + [("smooth", smooth_full_spectrum_field(lattice))]
        sizes = [(5, 5), (17, 33), (33, 17), (65, 65), (601, 601)]
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        result = gamma_sweep(operator, truth, noise, 1e-3, SCHEDULE, sizes, phis)

        m_field = forward(operator, truth, 1e-3, noise).data
        alpha, r = SCHEDULE.alpha(1e-3), SCHEDULE.r
        m, symbol = m_field.coefficients, operator.symbol_values(lattice)
        u = solve(operator, m_field, alpha, r).coefficients
        image, adjoint_data = np.multiply(symbol, u), np.multiply(np.conjugate(symbol), m)
        energy = image.real**2 + image.imag**2
        pairing = np.multiply(m, np.conjugate(image)).real
        hr_squares = np.multiply(sobolev_weights(lattice, r), u.real**2 + u.imag**2)
        rhs_squares = np.multiply(
            sobolev_weights(lattice, -r), adjoint_data.real**2 + adjoint_data.imag**2
        )
        probes = [np.multiply(u, np.conjugate(phi.coefficients)).real for _, phi in phis]

        def total(table, radius):
            return float(np.sum(spectral.ball(lattice, table, radius)))

        def value(radius):
            hr = total(hr_squares, radius)
            return total(energy, radius) - 2.0 * total(pairing, radius) + alpha * math.sqrt(hr) ** 2

        assert result.continuum_objective == value(lattice.bandlimit)
        for i, ((n, k), summary) in enumerate(zip(sizes, result.summaries)):
            radius = min(n - 1, k - 1) // 2
            assert summary.functional_value == value(radius)
            assert summary.minimizer_hr_norm == math.sqrt(total(hr_squares, radius))
            assert summary.ball_radius == 2.0 / alpha * math.sqrt(total(rhs_squares, radius))
            gaps = [row.pairing_gap for row in result.rows[i * len(phis) : (i + 1) * len(phis)]]
            assert gaps == [total(probe, radius) - float(np.sum(probe)) for probe in probes]
        assert any(row.pairing_gap != 0.0 for row in result.rows if row.test_function_id == "smooth")

    def test_functional_descent_monotone(self):
        lattice, truth, noise, phis = self.build()
        sizes = [(17, 17), (33, 33), (65, 65), (129, 129)]
        result = gamma_sweep(deblur_operator(), truth, noise, 1e-3, SCHEDULE, sizes, phis)
        gaps = [summary.functional_gap for summary in result.summaries]
        assert all(gap >= -1e-12 for gap in gaps)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_pairing_gap_matches_tail_sum_oracle(self):
        # a full-spectrum smooth test function makes the tail sum nonzero
        lattice, truth, noise, _ = self.build()
        phi = smooth_full_spectrum_field(lattice)
        sizes = [(17, 17), (33, 33), (65, 65)]
        result = gamma_sweep(
            deblur_operator(), truth, noise, 1e-3, SCHEDULE, sizes, [("smooth", phi)]
        )
        meas = forward(deblur_operator(), truth, 1e-3, noise)
        u_cont = solve(deblur_operator(), meas.data, SCHEDULE.alpha(1e-3), SCHEDULE.r)
        shells = lattice.shells()
        for row in result.rows:
            half = (row.n - 1) // 2
            outside = shells > half
            oracle = -float(
                np.sum(
                    (u_cont.coefficients[outside] * phi.coefficients[outside].conj()).real
                )
            )
            assert oracle != 0.0
            assert abs(row.pairing_gap - oracle) < 1e-10

        gaps = [abs(row.pairing_gap) for row in result.rows]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_unobserved_modes_are_zero(self):
        # k < n leaves the extra modes unpenalized by data; the spectral
        # penalty drives them to zero exactly
        lattice, truth, noise, phis = self.build()
        result = gamma_sweep(
            deblur_operator(), truth, noise, 1e-3, SCHEDULE, [(33, 17)], phis
        )
        assert result.summaries[0].n == 33

    def test_minimizer_inside_ball(self):
        lattice, truth, noise, phis = self.build()
        sizes = [(17, 17), (65, 65), (257, 257)]
        result = gamma_sweep(deblur_operator(), truth, noise, 1e-3, SCHEDULE, sizes, phis)
        for summary in result.summaries:
            assert summary.minimizer_hr_norm <= summary.ball_radius

    def test_diagonal_fast_path_matches_spectral(self):
        # sizes beyond the dense cap use the per-mode route
        lattice, truth, noise, phis = self.build(reference_bandlimit=2100)
        full = 2 * lattice.bandlimit + 1
        assert full > DENSE_SIZE_CAP
        result = gamma_sweep(
            deblur_operator(), truth, noise, 1e-3, SCHEDULE, [(full, full)], phis
        )
        for row in result.rows:
            assert abs(row.pairing_gap) < 1e-10
        assert abs(result.summaries[0].functional_gap) < 1e-10

    @pytest.mark.parametrize(
        "operator", [deblur_operator(), twisted_deblur_operator()], ids=["real", "complex"]
    )
    def test_closed_form_route_matches_dense(self, operator):
        # the oracle assembles and factors the dense normal equations per size
        lattice, truth, noise, phis = self.build(reference_bandlimit=64)
        sizes = [(17, 33), (33, 33), (33, 17), (65, 129), (129, 129), (129, 65)]
        dense = dense_gamma_oracle(operator, truth, noise, 1e-3, sizes, phis)
        closed = gamma_sweep(operator, truth, noise, 1e-3, SCHEDULE, sizes, phis)
        for want, got in zip(dense.summaries, closed.summaries):
            for field in dataclasses.fields(want):
                floor = 1e-14 if field.name == "functional_gap" else 0.0
                expected = pytest.approx(getattr(want, field.name), rel=1e-12, abs=floor)
                assert getattr(got, field.name) == expected, field.name
        assert len(closed.rows) == len(dense.rows)
        for want, got in zip(dense.rows, closed.rows):
            assert (got.n, got.k, got.test_function_id) == (want.n, want.k, want.test_function_id)
            assert got.pairing_gap == pytest.approx(want.pairing_gap, rel=0, abs=1e-14)
            assert got.functional_gap == pytest.approx(want.functional_gap, rel=0, abs=1e-14)

    def test_size_monotonicity_enforced(self):
        lattice, truth, noise, phis = self.build()
        with pytest.raises(ParameterError):
            gamma_sweep(
                deblur_operator(), truth, noise, 1e-3, SCHEDULE, [(33, 33), (17, 17)], phis
            )

    def test_functional_value_consistency(self):
        # for k >= n the discrete objective minus c_k equals the shifted
        # continuum objective evaluated at the embedded minimizer
        lattice, truth, noise, phis = self.build()
        meas = forward(deblur_operator(), truth, 1e-3, noise)
        alpha = SCHEDULE.alpha(1e-3)
        result = gamma_sweep(
            deblur_operator(), truth, noise, 1e-3, SCHEDULE, [(33, 33)], phis
        )
        summary = result.summaries[0]
        value = summary.functional_value
        # reconstruct the minimizer through an independent spectral solve on
        # the truncated data and re-evaluate the shifted objective
        small = truncate(meas.data, 16)
        u_small = solve(deblur_operator(), small, alpha, SCHEDULE.r)
        padded = np.zeros(lattice.mode_count, dtype=np.complex128)  # zero-extend
        padded[lattice.zero_index - 16 : lattice.zero_index + 17] = u_small.coefficients
        embedded = SpectralField(lattice, padded)
        oracle = data_shifted_functional(deblur_operator(), meas.data, alpha, SCHEDULE.r, embedded)
        assert value == pytest.approx(oracle, rel=1e-10, abs=1e-12)
