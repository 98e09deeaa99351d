"""Exponent calculators, slope fitting, error sweeps, H^1 divergence."""

import math
import warnings

import numpy as np
import pytest

from tikhtorus import (
    CalibrationError,
    DimensionError,
    DomainError,
    FrequencyLattice,
    MultiplierOperator,
    ParameterError,
    RegularizationSchedule,
    apply_multiplier,
    deblur_operator,
    error_sweep,
    fit_loglog_slope,
    forward,
    gamma_sweep,
    h1_divergence,
    hat_coefficients,
    low_frequency_test_functions,
    quadratic_schedule_exponent,
    power_law_operator,
    predicted_exponent,
    sample_white_noise,
    sobolev_norm,
    solve_split,
    zero_field,
)
from tikhtorus import rates, spectral
from tikhtorus.rates import DivergenceRow, DivergenceTables, SweepTables, calibrate_band

from test_discrete import smooth_full_spectrum_field

DEBLUR = dict(t=2.0, r=1.0, kappa=2.5, s=-0.6)


def operator_of(kind):
    """The deblur operator, or a twisted one with the complex Hermitian
    symbol exp(0.3 i l) / (1 + l^2)."""
    def twisted(modes):
        l = modes[:, 0].astype(np.float64)
        return np.exp(0.3j * l) / (1.0 + l**2)

    A = deblur_operator()
    if kind == "twisted":
        A = MultiplierOperator(symbol=twisted, order=-2.0, ellipticity=A.ellipticity, dimension=1)
    return A


class TestPredictedExponent:
    def test_case_ii_worked_example(self):
        # substitution: zeta = -1.5, bias rate 2.5*2.5/6, noise rate 1 + 2.5*(-1.1)/6
        result = predicted_exponent(**DEBLUR, s1=-1.5)
        assert result.regime == "case_ii"
        assert result.zeta == -1.5
        assert result.predicted_exponent == pytest.approx(0.5416666666666667, abs=1e-12)

    def test_case_i_worked_example(self):
        # s1 = -3 <= s - t = -2.6: zeta = -3, min(2.5*4/6, 1) = 1
        result = predicted_exponent(**DEBLUR, s1=-3.0)
        assert result.regime == "case_i"
        assert result.zeta == -3.0
        assert result.predicted_exponent == pytest.approx(1.0, abs=0)

    def test_algebraic_collapse_for_very_smooth_norms(self):
        # s1 below both -r-2t and s-t: zeta = -r-2t makes the bias rate kappa
        for kappa in (0.5, 1.0, 3.0):
            result = predicted_exponent(t=2.0, r=1.0, kappa=kappa, s=-0.6, s1=-9.0)
            assert result.regime == "case_i"
            assert result.predicted_exponent == pytest.approx(min(kappa, 1.0), abs=1e-15)

    def test_weights_sum_to_half(self):
        for t, r, s in ((2.0, 1.0, -1.0), (0.7, 0.0, -0.5), (3.5, 2.2, -1.0)):
            result = predicted_exponent(t=t, r=r, kappa=1.0, s=s, s1=s - t - 1.0)
            assert result.gamma + result.eta == pytest.approx(0.5, abs=0)

    def test_positive_exponent_in_admissible_regimes(self):
        # positivity needs s1 < r on top of the window (for kappa >= 2 the
        # window itself enforces that, since s - t + 2(t+r)/kappa <= s + r < r)
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(300):
            t = float(rng.uniform(0.5, 4.0))
            r = float(rng.uniform(0.0, 3.0))
            kappa = float(rng.uniform(0.2, 4.0))
            s = float(rng.uniform(-2.0, -0.5))
            if t <= max(0.0, -s - r):
                continue
            ceiling = min(s - t + 2 * (t + r) / kappa, r) - 1e-6
            s1 = float(rng.uniform(-10.0, ceiling))
            result = predicted_exponent(t, r, kappa, s, s1)
            assert result.regime in ("case_i", "case_ii")
            assert result.predicted_exponent > 0
            checked += 1
        assert checked > 100

    def test_boundary_continuity(self):
        # at s1 = s - t the case (ii) noise candidate equals the case (i) cap
        t, r, kappa, s = 2.0, 1.0, 2.5, -0.6
        boundary = s - t
        left = predicted_exponent(t, r, kappa, s, boundary)
        right = predicted_exponent(t, r, kappa, s, boundary + 1e-13)
        assert abs(left.predicted_exponent - right.predicted_exponent) < 1e-12

    def test_out_of_range(self):
        result = predicted_exponent(**DEBLUR, s1=0.0)  # above -0.6-2+2*3/2.5 = -0.2
        assert result.regime == "out_of_range"
        assert math.isnan(result.predicted_exponent)

    @pytest.mark.parametrize("name", ["t", "r", "kappa", "s", "s1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments_are_named(self, name, value):
        arguments = {**DEBLUR, "s1": -1.5, name: value}
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            predicted_exponent(**arguments)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            predicted_exponent(t=0.3, r=0.0, kappa=1.0, s=-1.0, s1=-2.0)  # t <= -s-r
        with pytest.raises(ParameterError):
            predicted_exponent(t=1.0, r=-0.5, kappa=1.0, s=-1.0, s1=-2.0)
        with pytest.raises(ParameterError):
            predicted_exponent(t=1.0, r=1.0, kappa=0.0, s=-1.0, s1=-2.0)


class TestQuadraticScheduleRate:
    def test_worked_example(self):
        result = quadratic_schedule_exponent(t=2.0, r=1.0, beta=0.25)
        assert result.exponent == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert result.bias_exponent == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert result.noise_exponent == pytest.approx(0.5, abs=0)

    def test_limits(self):
        assert quadratic_schedule_exponent(2.0, 1.0, 0.4999999).exponent == pytest.approx(0.0, abs=1e-6)
        assert quadratic_schedule_exponent(2.0, 1e-9, 0.25).exponent == pytest.approx(0.0, abs=1e-9)

    def test_exponent_capped_by_one(self):
        for beta in np.linspace(0.01, 0.49, 25):
            assert quadratic_schedule_exponent(1.5, 2.5, float(beta)).exponent <= 1.0

    def test_smoothness_shift_monotone_in_beta(self):
        shifts = [
            quadratic_schedule_exponent(2.0, 1.0, float(beta)).smoothness_shift
            for beta in np.linspace(0.01, 0.49, 30)
        ]
        assert all(b > a for a, b in zip(shifts, shifts[1:]))

    def test_beta_domain(self):
        for beta in (0.0, 0.5, -0.1, 0.9):
            with pytest.raises(ParameterError):
                quadratic_schedule_exponent(2.0, 1.0, beta)


class TestSlopeFit:
    def test_exact_linear_law(self):
        deltas = [10.0**-k for k in range(5)]
        fit = fit_loglog_slope([(d, d) for d in deltas])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_exact_power_law(self):
        deltas = [10.0**-k for k in range(6)]
        fit = fit_loglog_slope([(d, 3.0 * d**0.54) for d in deltas])
        assert fit.slope == pytest.approx(0.54, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
        assert fit.residual < 1e-10

    def test_validation(self):
        with pytest.raises(ParameterError):
            fit_loglog_slope([(1.0, 1.0), (0.1, 0.1)])
        with pytest.raises(DomainError):
            fit_loglog_slope([(1.0, 1.0), (0.1, -0.1), (0.01, 0.01)])
        with pytest.raises(DomainError):
            fit_loglog_slope([(1.0, 1.0), (0.0, 0.1), (0.01, 0.01)])

    @pytest.mark.parametrize(
        "samples",
        [
            [(1.0, 1.0), (0.1, math.nan), (0.01, 0.01)],
            [(1.0, 1.0), (0.1, math.inf), (0.01, 0.01)],
            [(math.inf, 1.0), (0.1, 0.1), (0.01, 0.01)],
            [(1.0, 1.0), (math.nan, 0.1), (0.01, 0.01)],
        ],
        ids=["nan-error", "inf-error", "inf-delta", "nan-delta"],
    )
    def test_non_finite_samples_are_refused(self, samples):
        with pytest.raises(DomainError, match="finite"):
            fit_loglog_slope(samples)


SCHEDULE = RegularizationSchedule(alpha0=1.0, kappa=2.5, r=1.0)


class TestErrorSweep:
    def test_bias_only_slope_beats_prediction(self):
        # noise-free decay must be at least as fast as the guaranteed rate
        lattice = FrequencyLattice(1, 2048)
        truth = hat_coefficients(lattice)
        result = error_sweep(
            deblur_operator(), truth, SCHEDULE, [-1.5], [1e-1, 1e-2, 1e-3, 1e-4], [None]
        )
        predicted = predicted_exponent(**DEBLUR, s1=-1.5).predicted_exponent
        assert result.slopes[-1.5].slope >= predicted - 0.1

    def test_normalization_starts_at_one(self):
        lattice = FrequencyLattice(1, 512)
        truth = hat_coefficients(lattice)
        result = error_sweep(
            deblur_operator(), truth, SCHEDULE, [-1.5, 1.0], [1e-2, 1e-3, 1e-4], [0, 1, 2]
        )
        for s1 in (-1.5, 1.0):
            first = result.median_errors[s1][0] * result.normalizers[s1]
            assert first == pytest.approx(1.0, rel=1e-12)

    def test_noisy_error_decreases_in_weak_norm(self):
        lattice = FrequencyLattice(1, 2048)
        truth = hat_coefficients(lattice)
        result = error_sweep(
            deblur_operator(), truth, SCHEDULE, [-1.5], [1e-2, 1e-3, 1e-4], list(range(8))
        )
        medians = result.median_errors[-1.5]
        assert all(b < a for a, b in zip(medians, medians[1:]))

    def test_h1_error_does_not_decay(self):
        lattice = FrequencyLattice(1, 2048)
        truth = hat_coefficients(lattice)
        result = error_sweep(
            deblur_operator(), truth, SCHEDULE, [1.0], [1e-2, 1e-3, 1e-4], list(range(8))
        )
        medians = result.median_errors[1.0]
        assert medians[-1] >= 0.5 * medians[0]

    def test_seed_labels(self):
        lattice = FrequencyLattice(1, 64)
        truth = hat_coefficients(lattice)
        result = error_sweep(
            deblur_operator(), truth, SCHEDULE, [-1.5], [1e-2, 1e-3], [None, 4]
        )
        labels = {row.seed for row in result.rows}
        assert labels == {-1, 4}

    @pytest.mark.parametrize(
        "kind, bandlimit",
        [
            ("deblur", 64),
            ("twisted", 64),
            ("deblur", 4096),
            ("twisted", 4096),
            ("deblur", 40000),
            ("twisted", 40000),
        ],
        ids=["deblur", "twisted", "deblur-4096", "twisted-4096", "deblur-chunks", "twisted-chunks"],
    )
    def test_errors_equal_the_public_composition(self, kind, bandlimit):
        # the per-mode sweep must reproduce forward -> solve_split -> subtract
        # -> sobolev_norm bit for bit, also for a complex Hermitian symbol; at
        # 8193 modes np.sum recurses through many 128-element pairwise blocks,
        # and 80,001 modes are three pieces of the chunked kernel
        A = operator_of(kind)
        lattice = FrequencyLattice(1, bandlimit)
        truth = hat_coefficients(lattice)
        seeds, s1_list, deltas = [None, 0, 5], [-1.5, 0.0, 1.0], [1e-2, 1e-3, 1e-4]
        result = error_sweep(A, truth, SCHEDULE, s1_list, deltas, seeds)
        assert len(result.rows) == len(seeds) * len(s1_list) * len(deltas)
        for row in result.rows:
            draw = zero_field(lattice) if row.seed == -1 else sample_white_noise(lattice, row.seed)
            split = solve_split(A, forward(A, truth, row.delta, draw), SCHEDULE)
            expected = sobolev_norm(split.reconstruction - truth, row.s1)
            assert row.raw_error == expected

    def test_grid_must_decrease(self):
        lattice = FrequencyLattice(1, 32)
        truth = hat_coefficients(lattice)
        with pytest.raises(ParameterError):
            error_sweep(deblur_operator(), truth, SCHEDULE, [-1.5], [1e-3, 1e-2], [0])

    def test_kernel_error_precedence(self):
        # weights (1+|l|^2)^400 that overflow on finite data name the s1 key
        lattice = FrequencyLattice(1, 64)
        truth = hat_coefficients(lattice)
        with pytest.raises(ParameterError, match=r"s1 = 400, delta = 0\.01 \(\[grids\] s1_list\)"):
            error_sweep(deblur_operator(), truth, SCHEDULE, [400.0, -1.5], [1e-2, 1e-3], [0])

    def test_kernel_error_precedence_across_pieces(self, monkeypatch):
        # 129 modes in 26 pieces over 8 ranges: the overflowing weights of
        # s1 = 400 warn in no worker
        monkeypatch.setattr(spectral, "_CHUNK", 5)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 8)
        lattice = FrequencyLattice(1, 64)
        truth = hat_coefficients(lattice)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParameterError, match=r"s1 = 400, delta = 0\.01 \(\[grids\] s1_list\)"):
                error_sweep(deblur_operator(), truth, SCHEDULE, [400.0, -1.5], [1e-2, 1e-3], [0])
        assert caught == []

    def test_tables_check_the_operator_dimension(self):
        truth = zero_field(FrequencyLattice(2, 4))
        with pytest.raises(DimensionError, match="fixed to dimension 1"):
            SweepTables(deblur_operator(), truth, SCHEDULE, [-1.5], [1e-2, 1e-3], [0])


DIVERGENCE_SCHEDULE = RegularizationSchedule(alpha0=1.0, kappa=2.0, r=1.0)


def composed_errors(A, truth, seed, s1_list, deltas):
    """errors[k, i] = ||T(m_delta_i) - u||_{H^s1_k} of ``seed`` (None for no
    noise) by forward -> solve_split -> subtract -> sobolev_norm."""
    lattice = truth.lattice
    draw = zero_field(lattice) if seed is None else sample_white_noise(lattice, seed)
    errors = np.empty((len(s1_list), len(deltas)))
    for i, delta in enumerate(deltas):
        deviation = solve_split(A, forward(A, truth, delta, draw), SCHEDULE).reconstruction - truth
        errors[:, i] = [sobolev_norm(deviation, s1) for s1 in s1_list]
    return errors


def composed_rows(A, lattice, seed, deltas):
    """The certificate's rows of ``seed`` from the per-mode formulas:
    h1_norm_sq = sum w1 |a|^2 delta^2 |eps|^2 / z^2 and lower_bound =
    bound_factor * sum_band |eps|^2."""
    c0, c1, bands = calibrate_band(A, lattice, deltas)
    values = A.symbol_values(lattice)
    symbol_sq = values.real**2 + values.imag**2
    w1 = 1.0 + lattice.squared_norms()
    eps = sample_white_noise(lattice, seed).coefficients
    eps_sq = eps.real**2 + eps.imag**2
    alpha0 = DIVERGENCE_SCHEDULE.alpha0
    bound_factor = 1.0 / ((1.0 + alpha0 / c0) * (c1 + alpha0))
    rows = []
    for band in bands:
        delta = band.delta
        z = symbol_sq + DIVERGENCE_SCHEDULE.alpha(delta) * w1
        h1_norm_sq = np.sum(w1 * (symbol_sq * (delta * delta) * eps_sq / (z * z)))
        lower_bound = bound_factor * np.sum(eps_sq[band.member_indices])
        rows.append(DivergenceRow(delta, seed, band.member_indices.size, lower_bound, h1_norm_sq))
    return rows


class TestBandCalibration:
    def test_band_members_satisfy_inequality_and_track_center(self):
        lattice = FrequencyLattice(1, 4096)
        deltas = [1e-2, 1e-3, 1e-4, 1e-5]
        c0, c1, bands = calibrate_band(deblur_operator(), lattice, deltas)
        values = deblur_operator().symbol_values(lattice)
        symbol_sq = np.abs(values) ** 2
        weights = 1.0 + lattice.squared_norms()
        modes = lattice.modes()[:, 0]
        for band in bands:
            assert band.member_indices.size > 0
            scale = band.delta**2 * weights[band.member_indices]
            assert np.all(c0 * scale <= symbol_sq[band.member_indices] * (1 + 1e-12))
            assert np.all(symbol_sq[band.member_indices] <= c1 * scale * (1 + 1e-12))
            # for the deblur symbol the balance point solves (1+n^2)^3 = delta^-2
            center = band.delta ** (-1.0 / 3.0)
            observed = np.abs(modes[band.member_indices]).max()
            assert 0.3 * center <= observed <= 3.0 * center

    def test_calibration_failure_reported(self):
        # a tiny lattice cannot bridge six decades of delta
        lattice = FrequencyLattice(1, 2)
        with pytest.raises(CalibrationError):
            calibrate_band(deblur_operator(), lattice, [1e-2, 1e-12])

    def test_underflowed_ratios_never_center_the_band(self):
        # |a(l)|^2 = (1+l^2)^-80 underflows to 0 beyond l ~ 100; the
        # calibration must ignore those modes instead of taking log(0)
        lattice = FrequencyLattice(1, 256)
        A = power_law_operator(80.0)
        assert np.any(np.abs(A.symbol_values(lattice)) ** 2 == 0.0)
        c0, c1, bands = calibrate_band(A, lattice, [1e-2, 1e-3])
        assert 0.0 < c0 < c1 < np.inf
        assert all(band.member_indices.size > 0 for band in bands)

    def test_all_underflowed_ratios_rejected(self):
        tiny = MultiplierOperator(
            symbol=lambda modes: np.full(len(modes), 1e-170, dtype=np.complex128),
            order=0.0,
            ellipticity=deblur_operator().ellipticity,
            dimension=1,
        )
        with pytest.raises(ParameterError, match=r"\[operator\] exponent"):
            calibrate_band(tiny, FrequencyLattice(1, 8), [1e-2])


class TestH1Divergence:
    @pytest.mark.parametrize(
        "kind, bandlimit",
        [("deblur", 64), ("twisted", 64), ("deblur", 40000), ("twisted", 40000)],
        ids=["deblur", "twisted", "deblur-chunks", "twisted-chunks"],
    )
    def test_rows_equal_the_per_mode_composition(self, kind, bandlimit):
        # every row is the from-scratch per-mode sum, bit for bit:
        # h1_norm_sq = sum w1 |a|^2 delta^2 |eps|^2 / z^2 and
        # lower_bound = bound_factor * sum_band |eps|^2; 80,001 modes are
        # three pieces of the chunked kernel
        A = operator_of(kind)
        lattice = FrequencyLattice(1, bandlimit)
        seeds, deltas = [0, 5], [1e-2, 1e-3, 1e-4]
        report = h1_divergence(A, DIVERGENCE_SCHEDULE, deltas, seeds, lattice)
        assert len(report.rows) == len(seeds) * len(deltas)
        _, _, bands = calibrate_band(A, lattice, deltas)
        values = A.symbol_values(lattice)
        symbol_sq = values.real**2 + values.imag**2
        w1 = 1.0 + lattice.squared_norms()
        alpha0 = DIVERGENCE_SCHEDULE.alpha0
        bound_factor = 1.0 / ((1.0 + alpha0 / report.c0) * (report.c1 + alpha0))
        rows = iter(report.rows)
        for seed in seeds:
            eps = sample_white_noise(lattice, seed).coefficients
            eps_sq = eps.real**2 + eps.imag**2
            for band in bands:
                row = next(rows)
                delta = band.delta
                z = symbol_sq + DIVERGENCE_SCHEDULE.alpha(delta) * w1
                assert (row.seed, row.delta) == (seed, delta)
                assert row.h1_norm_sq == np.sum(w1 * (symbol_sq * (delta * delta) * eps_sq / (z * z)))
                assert row.lower_bound == bound_factor * np.sum(eps_sq[band.member_indices])

    def test_tables_check_the_operator_dimension(self):
        lattice = FrequencyLattice(2, 4)
        with pytest.raises(DimensionError, match="fixed to dimension 1"):
            DivergenceTables(deblur_operator(), DIVERGENCE_SCHEDULE, [1e-2, 1e-3], [0], lattice)

    def test_actual_dominates_lower_bound(self):
        lattice = FrequencyLattice(1, 2048)
        report = h1_divergence(
            deblur_operator(), DIVERGENCE_SCHEDULE, [1e-2, 1e-3, 1e-4], list(range(6)), lattice
        )
        assert len(report.rows) == 18
        for row in report.rows:
            assert row.band_size > 0
            assert row.lower_bound > 0
            assert row.h1_norm_sq >= row.lower_bound

    def test_no_decay_summary(self):
        lattice = FrequencyLattice(1, 2048)
        report = h1_divergence(
            deblur_operator(), DIVERGENCE_SCHEDULE, [1e-2, 1e-3, 1e-4], list(range(10)), lattice
        )
        assert report.median_ratio > 0.1

    def test_schedule_validation(self):
        lattice = FrequencyLattice(1, 64)
        with pytest.raises(ParameterError):
            h1_divergence(
                deblur_operator(),
                RegularizationSchedule(1.0, 2.0, 0.0),
                [1e-2],
                [0],
                lattice,
            )
        with pytest.raises(ParameterError):
            h1_divergence(
                deblur_operator(),
                RegularizationSchedule(1.0, 1.5, 1.0),
                [1e-2],
                [0],
                lattice,
            )
        with pytest.raises(ParameterError):
            h1_divergence(deblur_operator(), DIVERGENCE_SCHEDULE, [2.0, 1e-2], [0], lattice)


class TestChunkedKernels:
    # the sweep and certificate kernels run in pieces of spectral._CHUNK modes
    # across worker threads; their values equal those of one whole-lattice
    # piece at every split

    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize(
        "kind,bandlimit",
        [("deblur", 50), ("twisted", 50), ("deblur", 300), ("twisted", 300)],
        ids=["deblur", "twisted", "deblur-300", "twisted-300"],
    )
    def test_small_chunks_keep_the_values(self, monkeypatch, kind, bandlimit, chunk, cpus):
        # pieces of one mode take numpy's one-element loops, which round an
        # in-place complex product differently; a sum's tree never splits 128
        # modes or fewer, so 101 modes are one leaf and 601 modes are the case
        # that runs several leaves
        A = operator_of(kind)
        lattice = FrequencyLattice(1, bandlimit)
        deltas = [1e-2, 1e-3, 1e-4]
        sweep = SweepTables(A, hat_coefficients(lattice), SCHEDULE, [-1.5, 0.0, 1.0], deltas, [7])
        certificate = DivergenceTables(A, DIVERGENCE_SCHEDULE, deltas, [7], lattice)
        monkeypatch.setattr(spectral, "_CHUNK", 10**9)
        (errors,), rows = rates._sweep_pass(sweep, certificate, [7])
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        (chunked_errors,), chunked_rows = rates._sweep_pass(sweep, certificate, [7])
        assert np.array_equal(chunked_errors, errors)
        assert chunked_rows == rows

    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("kind", ["deblur", "twisted"])
    def test_streamed_pass_equals_the_per_mode_compositions(self, monkeypatch, kind, chunk, cpus):
        # the pass draws each seed's span of each leaf itself, a block of
        # seeds at a time (5 seeds leave a short last block); its errors and
        # rows equal the public composition and the per-mode certificate
        A = operator_of(kind)
        lattice = FrequencyLattice(1, 300)
        truth = hat_coefficients(lattice)
        s1_list, deltas, seeds = [-1.5, 0.0, 1.0], [1e-2, 1e-3, 1e-4], [7, 0, 3, 2**32, 5]
        sweep = SweepTables(A, truth, SCHEDULE, s1_list, deltas, seeds)
        certificate = DivergenceTables(A, DIVERGENCE_SCHEDULE, deltas, seeds, lattice)
        errors = [composed_errors(A, truth, seed, s1_list, deltas) for seed in seeds]
        rows = [composed_rows(A, lattice, seed, deltas) for seed in seeds]
        if chunk is not None:
            monkeypatch.setattr(spectral, "_CHUNK", chunk)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        streamed_errors, streamed_rows = rates._sweep_pass(sweep, certificate, seeds)
        assert all(np.array_equal(a, b) for a, b in zip(streamed_errors, errors, strict=True))
        assert streamed_rows == rows
        alone = rates._sweep_pass(sweep, None, seeds)
        assert all(np.array_equal(a, b) for a, b in zip(alone[0], errors, strict=True))
        assert alone[1] == []

    @pytest.mark.parametrize("chunk, cpus", [(None, None), (7, 8)])
    def test_two_dimensional_sweep_and_certificate_equal_the_compositions(self, monkeypatch, chunk, cpus):
        # in d = 2 no span is drawn on its own: each seed is drawn whole and
        # runs in a pass of its own; the noise-free seed has zero noise
        A = power_law_operator(2.0)
        lattice = FrequencyLattice(2, 20)
        truth = apply_multiplier(A, sample_white_noise(lattice, 99))
        s1_list, deltas = [-1.5, 0.0, 1.0], [1e-2, 1e-3, 1e-4]
        if chunk is not None:
            monkeypatch.setattr(spectral, "_CHUNK", chunk)
            monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        seeds = [None, 0, 5]
        result = error_sweep(A, truth, SCHEDULE, s1_list, deltas, seeds)
        # rows run over (s1, delta, seed)
        expected = np.stack([composed_errors(A, truth, seed, s1_list, deltas) for seed in seeds], axis=-1)
        assert [row.seed for row in result.rows] == [-1, 0, 5] * (len(s1_list) * len(deltas))
        assert [row.raw_error for row in result.rows] == expected.ravel().tolist()
        report = h1_divergence(A, DIVERGENCE_SCHEDULE, deltas, [0, 5], lattice)
        assert report.rows == composed_rows(A, lattice, 0, deltas) + composed_rows(A, lattice, 5, deltas)

    def test_streamed_pass_checks_every_seed_before_any_draw(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("drawn")

        lattice = FrequencyLattice(1, 20)
        sweep = SweepTables(deblur_operator(), hat_coefficients(lattice), SCHEDULE, [0.0], [1e-2], [0])
        monkeypatch.setattr(rates, "_draw_span", forbidden)
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            rates._sweep_pass(sweep, None, [0, -1])

    def test_certificate_refuses_the_noise_free_seed(self):
        lattice = FrequencyLattice(1, 20)
        with pytest.raises(ParameterError, match="seed must be a non-negative integer, got None"):
            h1_divergence(deblur_operator(), DIVERGENCE_SCHEDULE, [1e-2], [None], lattice)

    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("kind", ["deblur", "twisted"])
    def test_small_chunks_keep_the_gamma_sweep_and_sobolev_norms(self, monkeypatch, kind, chunk, cpus):
        # every gamma sum, the pairing gaps' included, and every H^s norm is
        # taken over a table filled in pieces
        A = operator_of(kind)
        lattice = FrequencyLattice(1, 50)
        truth, noise = hat_coefficients(lattice), sample_white_noise(lattice, 3)
        sizes, phis = [(5, 5), (21, 41), (101, 101)], low_frequency_test_functions(lattice, 5)
        phis.append(("smooth", smooth_full_spectrum_field(lattice)))  # nonzero on every piece

        def values():
            result = gamma_sweep(A, truth, noise, 1e-3, SCHEDULE, sizes, phis)
            norms = [sobolev_norm(noise, s) for s in (-1.5, 0.0, 1.0)]
            return result.rows, result.summaries, result.continuum_objective, norms

        monkeypatch.setattr(spectral, "_CHUNK", 10**9)
        whole = values()
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        assert values() == whole
