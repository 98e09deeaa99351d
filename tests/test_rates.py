"""Exponent calculators, slope fitting, error sweeps, H^1 divergence."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from tikhtorus import (
    CalibrationError,
    DimensionError,
    DomainError,
    FrequencyLattice,
    InvalidFieldError,
    MultiplierOperator,
    ParameterError,
    RegularizationSchedule,
    SpectralField,
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
from tikhtorus import noise, rates, spectral
from tikhtorus.rates import DivergenceRow, DivergenceTables, SweepTables, calibrate_band
from tikhtorus.spectral import Ellipticity

from test_discrete import smooth_full_spectrum_field
from test_experiments import run_fresh_process

DEBLUR = dict(t=2.0, r=1.0, kappa=2.5, s=-0.6)


def vanishing_operator():
    """A symbol l / (1 + l^2), which vanishes at l = 0."""
    return MultiplierOperator(
        lambda modes: modes[:, 0] / (1.0 + modes[:, 0] ** 2.0),
        order=-1.0,
        ellipticity=Ellipticity(0.5, 1.0),
        name="vanishing",
    )


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

    def test_a_bad_symbol_is_reported_first(self):
        truth = hat_coefficients(FrequencyLattice(1, 8))
        for seeds in ([0], []):  # [] is refused next
            with pytest.raises(ParameterError, match="'vanishing' vanishes on the lattice"):
                SweepTables(vanishing_operator(), truth, SCHEDULE, [-1.5], [1e-2, 1e-3], seeds)

    def test_tables_build_no_whole_penalty_table(self, monkeypatch):
        # each leaf of the truth's H^r norm builds and checks its own penalty
        # weights: no whole weight table is built
        built = []
        weigh = spectral.sobolev_weights

        def counted(lattice, s):
            built.append((lattice, s))
            return weigh(lattice, s)

        monkeypatch.setattr(spectral, "sobolev_weights", counted)
        lattice = FrequencyLattice(1, 64)
        SweepTables(deblur_operator(), hat_coefficients(lattice), SCHEDULE, [-1.5, 1.0], [1e-2, 1e-3], [0])
        assert built == []

    def test_a_non_finite_truth_is_reported_before_the_penalty(self):
        # r = 400 overflows the penalty's weights on this lattice, but the
        # truth's coefficients are checked first
        lattice = FrequencyLattice(1, 64)
        truth = SpectralField(lattice, np.full(lattice.mode_count, np.nan))
        with pytest.raises(InvalidFieldError, match="non-finite coefficients"):
            SweepTables(deblur_operator(), truth, RegularizationSchedule(1.0, 2.5, 400.0), [-1.5], [1e-2], [0])

    def test_no_table_outlives_the_sweep(self):
        # the symbol, |a|^2 and weight tables are built per call: at 262,145
        # modes they would hold over 10 MiB after the call. A sweep on a small
        # lattice first loads the modules the call imports on first use
        script = (
            "import tracemalloc\n"
            "from tikhtorus import FrequencyLattice, RegularizationSchedule, deblur_operator, error_sweep, hat_coefficients\n"
            "schedule = RegularizationSchedule(1.0, 2.5, 1.0)\n"
            "def sweep(bandlimit):\n"
            "    truth = hat_coefficients(FrequencyLattice(1, bandlimit))\n"
            "    tracemalloc.start()\n"
            "    error_sweep(deblur_operator(), truth, schedule, [-3.0, -1.5, 1.0], [1e-2, 1e-3], [None, 0, 1])\n"
            "    return tracemalloc.get_traced_memory()[0]\n"
            "sweep(8)\n"
            "tracemalloc.stop()\n"
            "print(sweep(131072))\n"
        )
        done = run_fresh_process(script)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.split()[-1]) < 2**20


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
            lattice = FrequencyLattice(1, 8)
            calibrate_band(tiny, lattice, [1e-2])


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

    @pytest.mark.parametrize("delta", [-0.5, -1e308, -math.inf])
    def test_negative_deltas_are_refused_before_they_are_squared(self, delta):
        lattice = FrequencyLattice(1, 64)
        with pytest.raises(ParameterError, match=f"^{re.escape(f'delta must be positive, got {delta}')}$"):
            h1_divergence(deblur_operator(), DIVERGENCE_SCHEDULE, [1e-2, delta], [0], lattice)

    def test_a_bad_symbol_is_reported_first(self):
        lattice = FrequencyLattice(1, 8)
        for schedule in (DIVERGENCE_SCHEDULE, RegularizationSchedule(1.0, 2.0, 0.0)):  # r = 0 is refused next
            for deltas in ([1e-2], [-1e308]):
                with pytest.raises(ParameterError, match="'vanishing' vanishes on the lattice"):
                    DivergenceTables(vanishing_operator(), schedule, deltas, [0], lattice)


class TestLeafTables:
    # the pass builds a, |a|^2 and the weights per piece; they equal the
    # whole tables bit for bit on every piece the pass can hand it

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize(
        "operator,lattice",
        [
            (deblur_operator(), FrequencyLattice(1, 300)),
            (power_law_operator(1.5), FrequencyLattice(1, 300)),
            (power_law_operator(2.0), FrequencyLattice(2, 20)),
            (power_law_operator(0.7), FrequencyLattice(2, 20)),
        ],
        ids=["deblur", "power-law", "power-law-2d", "power-law-2d-rough"],
    )
    def test_pieces_equal_the_whole_tables(self, monkeypatch, operator, lattice, chunk):
        if chunk is not None:
            monkeypatch.setattr(spectral, "_CHUNK", chunk)
        exponents = [-3.0, -1.5, -0.6, -0.5, 1.0, 2.5]
        symbol, symbol_sq = operator.symbol_values(lattice), operator.squared_modulus(lattice)
        weights = {s: spectral.sobolev_weights(lattice, s) for s in exponents}
        leaves = []
        spectral._pairwise_tree(0, lattice.mode_count, leaves)
        assert (len(leaves) == 1) == (chunk is None)
        zero = lattice.zero_index
        assert any(start <= zero < stop - 1 for start, stop in leaves)  # a leaf holds zero and more
        ones = [(p, p + 1) for p in (0, zero - 1, zero, zero + 1, lattice.mode_count - 1)]
        for start, stop in leaves + ones:
            piece = slice(start, stop)
            a, a_sq, w = spectral._leaf_tables(operator, lattice, piece, exponents)
            assert a.tobytes() == symbol[piece].tobytes()
            assert a_sq.tobytes() == symbol_sq[piece].tobytes()
            assert list(w) == exponents
            for s in exponents:
                assert w[s].tobytes() == weights[s][piece].tobytes()


def rough_operator(dimension):
    """(1 + 0.01 l_1) / (1 + |l|^2), real: |a|^2 is not even."""
    def symbol(modes):
        l = modes.astype(np.float64)
        return (1.0 + 0.01 * l[:, 0]) / (1.0 + np.sum(l**2, axis=1))

    return MultiplierOperator(symbol, order=-2.0, ellipticity=Ellipticity(0.4, 1.2), dimension=dimension)


def whole_set_up(A, truth, deltas):
    """The set-up's values from whole lattice tables, spelled independently of
    the streamed code: the ellipticity check's verdict, whether the symbol is
    Hermitian and |a|^2 even, the truth's H^r norm at SCHEDULE.r, and the
    band calibration (c0, c1, members) or the error it raises."""
    lattice = truth.lattice
    values = A.symbol_values(lattice)
    symbol_sq = values.real**2 + values.imag**2
    norms = np.sqrt(lattice.squared_norms())
    outside = norms > A.ellipticity.mode_floor
    envelope = norms[outside] ** A.order
    magnitude = np.abs(values[outside])
    bounded = not (
        np.any(magnitude < A.ellipticity.c_lower * envelope * (1 - 1e-12))
        or np.any(magnitude > A.ellipticity.c_upper * envelope * (1 + 1e-12))
    )
    c = truth.coefficients
    norm = float(np.sqrt(np.sum(spectral.sobolev_weights(lattice, SCHEDULE.r) * (c.real**2 + c.imag**2))))
    weights1 = spectral.sobolev_weights(lattice, 1.0)
    ratio = symbol_sq / (max(deltas) ** 2 * weights1)
    log_ratio = np.log(ratio, out=np.full_like(ratio, np.inf), where=ratio > 0)
    centre = float(ratio[int(np.argmin(np.abs(log_ratio)))])
    c0, c1 = 0.5 * centre, 2.0 * centre
    for _ in range(40):
        members = [
            np.flatnonzero((c0 * (d * d * weights1) <= symbol_sq) & (symbol_sq <= c1 * (d * d * weights1)))
            for d in deltas
        ]
        if all(m.size for m in members):
            band = (c0, c1, [m.tolist() for m in members])
            break
        c0, c1 = 0.5 * c0, 2.0 * c1
    else:
        band = CalibrationError
    hermitian = np.array_equal(values[::-1].conj(), values)
    return bounded, hermitian, np.array_equal(symbol_sq[::-1], symbol_sq), norm, band


class TestStreamedSetUp:
    # the checks ahead of the pass walk the lattice in mirror pieces across
    # the CPUs; every value they give equals that of the whole tables bit for
    # bit, at any piece size and CPU count

    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize(
        "kind, lattice",
        [
            ("deblur", FrequencyLattice(1, 50)),
            ("power-law", FrequencyLattice(1, 50)),
            ("twisted", FrequencyLattice(1, 50)),
            ("skewed", FrequencyLattice(1, 50)),
            ("rough", FrequencyLattice(1, 50)),
            ("power-law", FrequencyLattice(2, 6)),
            ("rough", FrequencyLattice(2, 6)),
        ],
        ids=["deblur", "power-law", "twisted", "skewed", "rough", "power-law-2d", "rough-2d"],
    )
    def test_pieces_keep_the_whole_tables_values(self, monkeypatch, kind, lattice, chunk, cpus):
        A = {
            "deblur": deblur_operator(),
            "power-law": power_law_operator(1.5),
            "twisted": operator_of("twisted"),
            "skewed": skewed_operator(),
            "rough": rough_operator(lattice.dimension),
        }[kind]
        if lattice.dimension == 1:
            truth = hat_coefficients(lattice)
        else:
            truth = apply_multiplier(power_law_operator(2.0), sample_white_noise(lattice, 99))
        deltas = [1e-2, 1e-3]
        bounded, hermitian, even, norm, band = whole_set_up(A, truth, deltas)
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        if lattice.dimension == 1:  # filled a chunk at a time
            assert hat_coefficients(lattice).coefficients.tobytes() == truth.coefficients.tobytes()
        for field in (truth, SpectralField(lattice, truth.coefficients + 1e-3j)):
            assert spectral.is_hermitian(field.coefficients) == (field is truth)
            sweep = SweepTables(A, field, SCHEDULE, [-1.5, 1.0], deltas, [0])
            assert sweep._even == (field is truth and hermitian)
        assert spectral.is_hermitian(A.symbol_values(lattice)) == hermitian
        assert spectral._sobolev_norm(truth, SCHEDULE.r, "the penalty") == norm
        try:
            spectral.check_ellipticity(A, lattice)
        except ParameterError:
            assert not bounded
        else:
            assert bounded
        try:
            c0, c1, bands = calibrate_band(A, lattice, deltas)
        except CalibrationError:
            assert band is CalibrationError
        else:
            assert (c0, c1, [b.member_indices.tolist() for b in bands]) == band
            assert DivergenceTables(A, DIVERGENCE_SCHEDULE, deltas, [0], lattice)._even == even

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_a_symbol_that_is_not_finite_is_reported_before_one_that_vanishes(self, monkeypatch, cpus):
        # l / (1 + l^2) vanishes at l = 0, in the first piece, and is inf
        # beyond |l| = 20, in later pieces: a whole table reports that it is
        # not finite, so every stage must, however the pieces are split
        def symbol(modes):
            l = modes[:, 0].astype(np.float64)
            return np.where(np.abs(l) > 20, np.inf, l / (1.0 + l**2))

        A = MultiplierOperator(symbol, order=-1.0, ellipticity=Ellipticity(0.5, 1.0), name="bad")
        lattice = FrequencyLattice(1, 40)
        monkeypatch.setattr(spectral, "_CHUNK", 3)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        calls = [
            lambda: spectral.check_ellipticity(A, lattice),
            lambda: SweepTables(A, hat_coefficients(lattice), SCHEDULE, [-1.5], [1e-2], [0]),
            lambda: DivergenceTables(A, DIVERGENCE_SCHEDULE, [1e-2], [0], lattice),
            lambda: calibrate_band(A, lattice, [1e-2]),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match="'bad' is not finite on the lattice"):
                call()


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


def skewed_operator():
    """(2 + i) / (1 + l^2), like ``twisted_operator`` of test_spectral: |a|^2
    is even, but a(-l) != conj(a(l))."""
    return MultiplierOperator(
        lambda modes: (2.0 + 1j) / (1.0 + modes[:, 0].astype(np.float64) ** 2),
        order=-2.0,
        ellipticity=deblur_operator().ellipticity,
        dimension=1,
    )


class TestMirrorPairedPass:
    # in d = 1 the pass runs on mirror groups of leaves: a Hermitian problem
    # forms every per-mode value once per +-l pair, on the group's canonical
    # modes, and any other forms them per leaf from the group's one draw;
    # either way each leaf sums its own modes in its own order, so the errors
    # and rows equal the public composition bit for bit

    @pytest.mark.parametrize("bandlimit", [0, 1, 2, 296, 300, 301])
    @pytest.mark.parametrize("kind", ["deblur", "twisted", "skewed-symbol", "skewed-truth"])
    def test_pass_equals_the_public_composition(self, monkeypatch, kind, bandlimit):
        # 296 modes split the tree at the zero mode; 300 and 301 (M % 8 != 0)
        # leave a leaf that holds the zero mode and modes on both sides of it
        A = skewed_operator() if kind == "skewed-symbol" else operator_of(kind.split("-")[0])
        lattice = FrequencyLattice(1, bandlimit)
        truth = hat_coefficients(lattice)
        if kind == "skewed-truth":
            truth = SpectralField(lattice, truth.coefficients + 1e-3j)
        assert truth.hermitian == (kind != "skewed-truth")
        s1_list, deltas, seeds = [-1.5, 0.0, 1.0], [1e-2, 1e-3, 1e-4], [7, 0, 5]
        sweep = SweepTables(A, truth, SCHEDULE, s1_list, deltas, seeds)
        certificate = DivergenceTables(A, DIVERGENCE_SCHEDULE, deltas, seeds, lattice)
        errors = [composed_errors(A, truth, seed, s1_list, deltas) for seed in seeds]
        rows = [composed_rows(A, lattice, seed, deltas) for seed in seeds]
        tables, parts = rates._leaf_tables, []

        def recorded(A, lattice, part, exponents):
            parts.append((part.start, part.stop))
            return tables(A, lattice, part, exponents)

        monkeypatch.setattr(rates, "_leaf_tables", recorded)
        zero, count = lattice.zero_index, lattice.mode_count
        for chunk, cpus in [(None, 2), (1, 1), (1, 8), (3, 1), (3, 8), (7, 1), (7, 8)]:
            if chunk is not None:
                monkeypatch.setattr(spectral, "_CHUNK", chunk)
            monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
            leaves = []
            spectral._pairwise_tree(0, count, leaves)
            for stages, paired in [((sweep, certificate), kind in ("deblur", "twisted")), ((None, certificate), True)]:
                parts.clear()
                streamed_errors, streamed_rows = rates._sweep_pass(*stages, seeds)
                if stages[0] is not None:
                    assert all(np.array_equal(a, b) for a, b in zip(streamed_errors, errors, strict=True))
                assert streamed_rows == rows
                if paired:  # tables on the canonical modes of each group, from the zero mode up
                    assert all(zero <= start < stop <= count for start, stop in parts)
                    covered = np.zeros(count, dtype=int)
                    for start, stop in parts:
                        covered[start:stop] += 1
                    assert covered[zero:].all() and not covered[:zero].any()
                else:  # tables on each leaf's own modes
                    assert sorted(parts) == leaves

    @pytest.mark.parametrize("bandlimit, chunk", [(300, 7), (40000, None)])
    def test_an_unpaired_pass_draws_each_canonical_mode_once_per_seed(self, monkeypatch, bandlimit, chunk):
        # a symbol that is not Hermitian runs the sweep's kernel per leaf, but
        # each seed's span of each mirror group is still drawn once, and the
        # leaves below the zero mode read it mirrored and conjugated
        if chunk is not None:
            monkeypatch.setattr(spectral, "_CHUNK", chunk)
        lattice = FrequencyLattice(1, bandlimit)
        deblur = deblur_operator()
        skewed = dataclasses.replace(deblur, symbol=lambda modes: deblur.symbol(modes) * (1 + 0.5j))
        seeds = [7, 0, 5]
        pair_values, counts = noise._pair_values, {}

        def counted(index, start, stop, out=None):
            drawn[index] = drawn.get(index, 0) + stop - start
            return pair_values(index, start, stop, out)

        monkeypatch.setattr(noise, "_pair_values", counted)
        for A in (deblur, skewed):
            drawn = {}
            sweep = SweepTables(A, hat_coefficients(lattice), SCHEDULE, [0.0], [1e-2], seeds)
            assert sweep._even == (A is deblur)
            rates._sweep_pass(sweep, None, seeds)
            counts[A is deblur] = drawn
        leaves = []
        spectral._pairwise_tree(0, lattice.mode_count, leaves)
        groups = spectral._mirror_groups(lattice.mode_count, leaves)
        assert len(groups) < len(leaves)
        # the zero mode's group draws the modes of its span but the zero mode
        canonical = sum(span.stop - span.start for span, _ in groups) - 1
        assert counts[False] == counts[True] == dict.fromkeys(seeds, canonical)
        assert bandlimit <= canonical < 1.5 * bandlimit  # a draw per leaf would take about twice M

    def test_each_group_draws_its_canonical_modes_once_per_seed(self, monkeypatch):
        # the leaves below the zero mode read the draw of their group's span
        lattice = FrequencyLattice(1, 300)
        monkeypatch.setattr(spectral, "_CHUNK", 7)
        seeds, deltas = [7, 0, 5], [1e-2, 1e-3]
        sweep = SweepTables(deblur_operator(), hat_coefficients(lattice), SCHEDULE, [0.0], deltas, seeds)
        drawn = []
        draw_span = rates._draw_span

        def counted(lattice, seed, start, stop):
            drawn.append((seed, start, stop))
            return draw_span(lattice, seed, start, stop)

        monkeypatch.setattr(rates, "_draw_span", counted)
        rates._sweep_pass(sweep, None, seeds)
        leaves = []
        spectral._pairwise_tree(0, lattice.mode_count, leaves)
        groups = spectral._mirror_groups(lattice.mode_count, leaves)
        assert len(groups) < len(leaves)
        spans = sorted((span.start, span.stop) for span, _ in groups)
        assert sorted(drawn) == sorted((seed, *span) for seed in seeds for span in spans)
        assert all(start >= lattice.zero_index for _, start, _ in drawn)
