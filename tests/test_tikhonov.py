"""Measurement model, closed-form solver, bias/noise split, bias bound."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tikhtorus import (
    DimensionError,
    FrequencyLattice,
    InvalidFieldError,
    Measurement,
    ParameterError,
    RegularizationSchedule,
    SpectralField,
    bias_bound_check,
    data_shifted_functional,
    deblur_operator,
    evaluate_on_grid,
    expected_sobolev_energy,
    field_from_grid,
    forward,
    functional,
    hat_coefficients,
    power_law_operator,
    regularity_probe,
    sample_white_noise,
    single_mode_field,
    sobolev_norm,
    sobolev_weights,
    solve,
    solve_split,
    stationarity_defect,
    zero_field,
)
from tikhtorus.discrete import coords_to_field
from tikhtorus.spectral import Ellipticity, MultiplierOperator, apply_multiplier, check_ellipticity

from test_rates import operator_of
from test_spectral import random_hermitian_field

DEBLUR_SCHEDULE = RegularizationSchedule(alpha0=1.0, kappa=2.5, r=1.0)

# regression fixture: deblurred hat + seeded noise at delta = 3.5e-5, M = 64.
# Produced by this implementation and cross-checked below by scalar
# recomputation of the per-mode formula.
GOLDEN_SEED = 2024
GOLDEN_DELTA = 3.5e-5
GOLDEN_MODES = [
    (0, 0.3000116780257255, 0.0),
    (1, -0.1266152612737635, 6.513283216102391e-06),
    (2, 0.028299854749334965, 5.13036199633515e-05),
    (5, 0.001579237284198202, -2.449867401618588e-05),
    (17, 4.751885359186773e-05, -4.2531327338557705e-05),
    (64, 3.0479386414767047e-05, -2.0169390284120132e-05),
    (-3, -0.0027506606126240923, -4.220294509988626e-06),
    (-29, 9.695272409627461e-06, 1.6613823623568545e-05),
]
GOLDEN_L2 = 0.351711431074022


def scalar_hat_coefficient(ell: int) -> complex:
    """Independent scalar recomputation of the plateau-signal coefficient."""
    if ell == 0:
        return 0.3 + 0.0j
    jump = 0.0 + 0.0j
    for point, sign in ((0.3, 1), (0.4, -1), (0.6, -1), (0.7, 1)):
        jump += sign * cmath.exp(-2j * cmath.pi * ell * point)
    # integrate by parts once: c(l) = (1/(2 pi i l)) * integral of u' e_l*,
    # and the ramp derivative contributes 10 * jump / (2 pi i l)
    return 10.0 * jump / (2j * cmath.pi * ell) ** 2


class TestSchedule:
    def test_alpha(self):
        schedule = RegularizationSchedule(2.0, 2.5, 1.0)
        assert schedule.alpha(0.1) == pytest.approx(2.0 * 0.1**2.5, rel=1e-15)

    @pytest.mark.parametrize(
        "alpha0,kappa,r",
        [
            (-1, 2, 1),
            (0, 2, 1),
            (1, 0, 1),
            (1, 2, -0.5),
            (math.nan, 2, 1),
            (1, math.nan, 1),
            (1, 2, math.nan),
        ],
    )
    def test_validation(self, alpha0, kappa, r):
        with pytest.raises(ParameterError):
            RegularizationSchedule(alpha0, kappa, r)

    def test_delta_must_be_positive(self):
        for delta in (0.0, math.nan):
            with pytest.raises(ParameterError, match="delta"):
                RegularizationSchedule(1, 2, 1).alpha(delta)


class TestForward:
    def test_noise_free_measurement(self):
        lat = FrequencyLattice(1, 32)
        truth = hat_coefficients(lat)
        m = forward(deblur_operator(), truth, 1e-3, zero_field(lat))
        weights = 1.0 + lat.squared_norms()
        np.testing.assert_array_equal(m.data.coefficients, truth.coefficients / weights)

    def test_pure_noise_measurement(self):
        lat = FrequencyLattice(1, 16)
        noise = sample_white_noise(lat, 5)
        m = forward(power_law_operator(0.0), zero_field(lat), 0.25, noise)
        np.testing.assert_array_equal(m.data.coefficients, 0.25 * noise.coefficients)

    def test_lattice_mismatch(self):
        truth = zero_field(FrequencyLattice(1, 8))
        noise = zero_field(FrequencyLattice(1, 16))
        with pytest.raises(DimensionError):
            forward(deblur_operator(), truth, 1e-2, noise)

    def test_measurement_validation(self):
        zero = zero_field(FrequencyLattice(1, 4))
        for delta in (0.0, math.nan):
            with pytest.raises(ParameterError, match="delta"):
                Measurement(data=zero, delta=delta, noise=zero, truth=zero)
            with pytest.raises(ParameterError, match="delta"):
                forward(deblur_operator(), zero, delta, zero)

    def test_measurement_identity_is_bitwise(self):
        # data = a * truth + delta * eps holds exactly, per mode
        lat = FrequencyLattice(1, 48)
        truth = hat_coefficients(lat)
        noise = sample_white_noise(lat, 9)
        delta = 1e-3
        A = deblur_operator()
        meas = forward(A, truth, delta, noise)
        expected = A.symbol_values(lat) * truth.coefficients + delta * noise.coefficients
        assert np.array_equal(meas.data.coefficients, expected)
        assert meas.truth is truth and meas.noise is noise

    def test_golden_measurement_fixture(self):
        lat = FrequencyLattice(1, 64)
        truth = hat_coefficients(lat)
        noise = sample_white_noise(lat, GOLDEN_SEED)
        m = forward(deblur_operator(), truth, GOLDEN_DELTA, noise)
        coeffs = m.data.coefficients
        assert float(np.sqrt(np.sum(np.abs(coeffs) ** 2))) == pytest.approx(GOLDEN_L2, rel=1e-14)
        for mode, re, im in GOLDEN_MODES:
            value = coeffs[lat.index_of([mode])]
            assert value.real == pytest.approx(re, rel=1e-14, abs=1e-300)
            assert value.imag == pytest.approx(im, rel=1e-14, abs=1e-300)
            # independent scalar recomputation of a(l) u(l) + delta eps(l)
            eps = complex(noise.coefficients[lat.index_of([mode])])
            expected = scalar_hat_coefficient(mode) / (1 + mode * mode) + GOLDEN_DELTA * eps
            assert cmath.isclose(complex(value), expected, rel_tol=1e-12)


class TestSolve:
    def test_scalar_identity_case(self):
        lat = FrequencyLattice(1, 2)
        m = single_mode_field(lat, [0], 2.0)
        u = solve(power_law_operator(0.0), m, alpha=1.0, r=0.0)
        assert u.coefficients[lat.zero_index] == pytest.approx(1.0, abs=0)

    def test_noise_free_limit_recovers_truth(self):
        lat = FrequencyLattice(1, 64)
        truth = hat_coefficients(lat)
        A = deblur_operator()
        m = forward(A, truth, 1e-6, zero_field(lat)).data
        previous = np.inf
        for alpha in (1e-2, 1e-4, 1e-6, 1e-8, 1e-12, 1e-16):
            err = sobolev_norm(solve(A, m, alpha, 1.0) - truth, 0.0)
            assert err < previous or err == 0.0
            previous = err
        assert previous < 1e-7

    def test_single_mode_schedule_value(self):
        lat = FrequencyLattice(1, 1)
        delta = 0.3
        m = single_mode_field(lat, [0], 1.7)
        u = solve(power_law_operator(0.0), m, alpha=delta**2.5, r=1.0)
        assert u.coefficients[lat.zero_index] == pytest.approx(
            1.7 / (1.0 + delta**2.5), rel=1e-15
        )

    def test_alpha_validation(self):
        m = zero_field(FrequencyLattice(1, 4))
        for alpha, r, name in [
            (0.0, 1.0, "alpha"),
            (math.nan, 1.0, "alpha"),
            (1e-2, -0.5, "penalty order r"),
            (1e-2, math.nan, "penalty order r"),
        ]:
            with pytest.raises(ParameterError, match=name):
                solve(deblur_operator(), m, alpha=alpha, r=r)

    def test_filter_factor_bounded_by_one(self):
        lat = FrequencyLattice(1, 256)
        values = deblur_operator().symbol_values(lat)
        for alpha in (1e-8, 1e-3, 1.0):
            z = np.abs(values) ** 2 + alpha * (1.0 + lat.squared_norms())
            factors = np.abs(values) ** 2 / z
            assert np.all(factors > 0)
            assert np.all(factors <= 1.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_linearity_in_data(self, seed):
        lat = FrequencyLattice(1, 16)
        m1 = random_hermitian_field(lat, seed)
        m2 = random_hermitian_field(lat, seed + 1)
        A = deblur_operator()
        lhs = solve(A, m1 + m2, 1e-3, 1.0).coefficients
        rhs = solve(A, m1, 1e-3, 1.0).coefficients + solve(A, m2, 1e-3, 1.0).coefficients
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-16)

    def test_monotone_damping(self):
        lat = FrequencyLattice(1, 32)
        m = random_hermitian_field(lat, 77)
        A = deblur_operator()
        norms = [sobolev_norm(solve(A, m, alpha, 1.0), 1.0) for alpha in (1e-6, 1e-4, 1e-2, 1.0)]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_variational_optimality_random_problems(self):
        # the closed form is stationary for the penalized functional
        rng = np.random.default_rng(0)
        for trial in range(100):
            M = int(rng.integers(2, 14))
            lat = FrequencyLattice(1, M)
            m = random_hermitian_field(lat, 1000 + trial)
            t = float(rng.uniform(0.5, 3.0))
            alpha = float(10.0 ** rng.uniform(-6, 0))
            r = float(rng.uniform(0.0, 2.0))
            A = power_law_operator(t)
            u = solve(A, m, alpha, r)
            assert stationarity_defect(A, m, alpha, r, u, step=1e-6) <= 1e-8

    def test_perturbation_raises_functional(self):
        lat = FrequencyLattice(1, 8)
        m = random_hermitian_field(lat, 3)
        A = deblur_operator()
        u = solve(A, m, 1e-2, 1.0)
        base = functional(A, m, 1e-2, 1.0, u)
        bumped = SpectralField(lat, u.coefficients + 1e-3 * np.ones(lat.mode_count))
        assert functional(A, m, 1e-2, 1.0, bumped) > base


class TestSplit:
    def test_zero_noise_split(self):
        lat = FrequencyLattice(1, 32)
        truth = hat_coefficients(lat)
        meas = forward(deblur_operator(), truth, 1e-4, zero_field(lat))
        split = solve_split(deblur_operator(), meas, DEBLUR_SCHEDULE)
        assert np.all(split.noise_part.coefficients == 0)
        assert np.array_equal(
            split.reconstruction.coefficients, split.bias_part.coefficients
        )

    def test_zero_truth_split(self):
        lat = FrequencyLattice(1, 32)
        noise = sample_white_noise(lat, 11)
        meas = forward(deblur_operator(), zero_field(lat), 1e-2, noise)
        split = solve_split(deblur_operator(), meas, DEBLUR_SCHEDULE)
        assert np.all(split.bias_part.coefficients == 0)

    def test_recombination_matches_direct_solve(self):
        lat = FrequencyLattice(1, 128)
        truth = hat_coefficients(lat)
        noise = sample_white_noise(lat, 21)
        delta = 1e-3
        meas = forward(deblur_operator(), truth, delta, noise)
        split = solve_split(deblur_operator(), meas, DEBLUR_SCHEDULE)
        direct = solve(
            deblur_operator(), meas.data, DEBLUR_SCHEDULE.alpha(delta), DEBLUR_SCHEDULE.r
        )
        recombined = split.bias_part.coefficients + split.noise_part.coefficients
        assert np.max(np.abs(recombined - direct.coefficients)) < 1e-12
        assert np.array_equal(recombined, split.reconstruction.coefficients)

    @pytest.mark.parametrize("bandlimit", [64, 40000])
    @pytest.mark.parametrize("kind", ["deblur", "twisted"])
    def test_parts_equal_an_independent_spelling(self, kind, bandlimit):
        # solve_split and the sweep kernel share one routine, so the parts are
        # spelled again here, one explicit ufunc per operation in the order of
        # (|a|^2/z) u and (conj(a)/z)(delta eps); 80,001 modes put every
        # temporary above numpy's 256 KiB elision threshold
        A = operator_of(kind)
        lat = FrequencyLattice(1, bandlimit)
        truth, noise, delta = hat_coefficients(lat), sample_white_noise(lat, 7), 1e-3
        split = solve_split(A, forward(A, truth, delta, noise), DEBLUR_SCHEDULE)
        a, a_sq = A.symbol_values(lat), A.squared_modulus(lat)
        weights = sobolev_weights(lat, DEBLUR_SCHEDULE.r)
        z = np.add(a_sq, np.multiply(DEBLUR_SCHEDULE.alpha(delta), weights))
        bias = np.multiply(np.divide(a_sq, z), truth.coefficients)
        filtered = np.multiply(
            np.divide(np.conjugate(a), z), np.multiply(delta, noise.coefficients)
        )
        assert np.array_equal(split.bias_part.coefficients, bias)
        assert np.array_equal(split.noise_part.coefficients, filtered)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("route", ["solve", "solve_split"])
def test_each_solve_evaluates_the_symbol_once(route, dimension):
    # a, |a|^2 and the weights come from one table build over the lattice
    A = power_law_operator(2.0)
    calls = []

    def symbol(modes):
        calls.append(len(modes))
        return A.symbol(modes)

    counted = dataclasses.replace(A, symbol=symbol)
    lat = FrequencyLattice(dimension, 12)
    truth = hat_coefficients(lat) if dimension == 1 else zero_field(lat)
    meas = forward(A, truth, 1e-2, sample_white_noise(lat, 5))
    if route == "solve":
        result = solve(counted, meas.data, 1e-3, 1.5).coefficients
        expected = solve(A, meas.data, 1e-3, 1.5).coefficients
    else:
        result = solve_split(counted, meas, DEBLUR_SCHEDULE).reconstruction.coefficients
        expected = solve_split(A, meas, DEBLUR_SCHEDULE).reconstruction.coefficients
    assert calls == [lat.mode_count]
    assert np.array_equal(result, expected)


class TestTwoDimensions:
    def test_full_pipeline_on_t2(self):
        # the solver stack is dimension-agnostic; exercise it on the 2-torus
        lat = FrequencyLattice(2, 8)
        rng_field = random_hermitian_field(lat, 31)
        truth = 0.1 * rng_field
        noise = sample_white_noise(lat, 32)
        A = power_law_operator(2.0)
        meas = forward(A, truth, 1e-3, noise)
        split = solve_split(A, meas, DEBLUR_SCHEDULE)
        direct = solve(A, meas.data, DEBLUR_SCHEDULE.alpha(1e-3), 1.0)
        np.testing.assert_allclose(
            split.reconstruction.coefficients, direct.coefficients, atol=1e-12
        )
        assert split.reconstruction.hermitian
        # weak-norm error stays below the trivial zero-estimate error
        assert sobolev_norm(direct - truth, -2.0) < sobolev_norm(truth, -2.0)

    def test_bias_bound_on_t2(self):
        lat = FrequencyLattice(2, 16)
        truth = 0.05 * random_hermitian_field(lat, 33)
        A = power_law_operator(2.0)
        for delta in (1e-2, 1e-3, 1e-4):
            result = bias_bound_check(A, truth, DEBLUR_SCHEDULE, delta, zeta=-1.5)
            assert result.observed <= result.bound * (1 + 1e-12)


class TestBiasBound:
    def test_zero_truth(self):
        lat = FrequencyLattice(1, 64)
        result = bias_bound_check(
            deblur_operator(), zero_field(lat), DEBLUR_SCHEDULE, delta=1e-3, zeta=-1.5
        )
        assert result.observed == 0.0
        assert result.bound >= 0.0

    def test_exponent_value(self):
        # kappa (r - zeta) / (2 (t + r)) = 2.5 * 2.5 / 6 for the deblur setup
        t, r, kappa, zeta = 2.0, 1.0, 2.5, -1.5
        assert kappa * (r - zeta) / (2 * (t + r)) == pytest.approx(1.0416666666666667, abs=1e-12)
        lat = FrequencyLattice(1, 4096)
        truth = hat_coefficients(lat)
        first = bias_bound_check(deblur_operator(), truth, DEBLUR_SCHEDULE, 1e-2, zeta)
        second = bias_bound_check(deblur_operator(), truth, DEBLUR_SCHEDULE, 1e-3, zeta)
        assert second.bound / first.bound == pytest.approx(10.0**-1.0416666666666667, rel=1e-10)

    def test_observed_below_bound_across_sweep(self):
        lat = FrequencyLattice(1, 8192)
        truth = hat_coefficients(lat)
        for zeta in (-1.5, -3.0, -5.0):
            for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
                result = bias_bound_check(deblur_operator(), truth, DEBLUR_SCHEDULE, delta, zeta)
                assert result.observed <= result.bound * (1 + 1e-12)

    def test_zeta_range_validated(self):
        lat = FrequencyLattice(1, 16)
        truth = hat_coefficients(lat)
        with pytest.raises(ParameterError):
            bias_bound_check(deblur_operator(), truth, DEBLUR_SCHEDULE, 1e-2, zeta=-6.0)
        with pytest.raises(ParameterError):
            bias_bound_check(deblur_operator(), truth, DEBLUR_SCHEDULE, 1e-2, zeta=1.5)

    def test_requires_smoothing_operator(self):
        lat = FrequencyLattice(1, 16)
        truth = hat_coefficients(lat)
        roughening = power_law_operator(-1.0)
        with pytest.raises(ParameterError):
            bias_bound_check(roughening, truth, DEBLUR_SCHEDULE, 1e-2, zeta=-1.0)


def _problem():
    """Data and minimizer of a small deblur problem, as the functionals take
    them."""
    lattice = FrequencyLattice(1, 8)
    A, alpha = deblur_operator(), DEBLUR_SCHEDULE.alpha(1e-2)
    m = forward(A, hat_coefficients(lattice), 1e-2, sample_white_noise(lattice, 1)).data
    return lattice, A, m, alpha, solve(A, m, alpha, 1.0)


def _defect(alpha=None, r=1.0, step=1e-6):
    lattice, A, m, fitted, u = _problem()
    return stationarity_defect(A, m, fitted if alpha is None else alpha, r, u, step)


def _functional(kind):
    lattice, A, m, alpha, u = _problem()
    return kind(A, m, alpha, 1e308, u)


def _exact_fit(kind):
    # data m = A u: the fit term is 0 and only ||u||_{H^r}^2 overflows
    u = SpectralField(FrequencyLattice(1, 8), np.full(17, 1e200), hermitian=True)
    return kind(deblur_operator(), apply_multiplier(deblur_operator(), u), 1.0, 1.0, u)


def _huge_field(value):
    return SpectralField(FrequencyLattice(1, 8), np.full(17, value), hermitian=True)


def _huge_data(kind):
    # the minimizer of a small problem against data of 1e200 per mode: the
    # residual's squares overflow
    lattice, A, m, alpha, u = _problem()
    return kind(A, _huge_field(1e200), alpha, 1.0, u)


def _huge_alpha(kind):
    # data m = A u of a field of 10s: ||u||_{H^r}^2 is about 1e5
    u = _huge_field(10.0)
    return kind(deblur_operator(), apply_multiplier(deblur_operator(), u), 1e308, 1.0, u)


def _bias_bound(r):
    truth = hat_coefficients(FrequencyLattice(1, 8))
    return bias_bound_check(deblur_operator(), truth, RegularizationSchedule(1.0, 2.5, r), 1e-2, 0.0)


def _ellipticity(order=-2.0, c_lower=0.5, c_upper=1.0, mode_floor=0.0):
    A = MultiplierOperator(deblur_operator().symbol, order, Ellipticity(c_lower, c_upper, mode_floor))
    return check_ellipticity(A, FrequencyLattice(1, 8))


# (call, error, message): bad numbers that warned from numpy and gave inf or
# nan, or went on with them
BAD_NUMBERS = {
    "defect-huge-alpha": (lambda: _defect(alpha=1e308), ParameterError, r"alpha = 1e\+308"),
    "defect-huge-r": (lambda: _defect(r=1e308), ParameterError, r"penalty at r = 1e\+308"),
    "defect-inf-step": (lambda: _defect(step=math.inf), ParameterError, "step must be finite"),
    "defect-minus-inf-step": (lambda: _defect(step=-math.inf), ParameterError, "step must be finite"),
    "grid-inf": (
        lambda: field_from_grid(FrequencyLattice(1, 8), np.where(np.arange(17) == 3, np.inf, 0.5)),
        InvalidFieldError,
        "grid samples must be finite",
    ),
    "grid-huge": (
        lambda: field_from_grid(FrequencyLattice(1, 8), np.full(17, 1e308)),
        InvalidFieldError,
        "small enough",
    ),
    "sobolev-norm-huge-s": (
        lambda: sobolev_norm(hat_coefficients(FrequencyLattice(1, 8)), 1e308),
        ParameterError,
        r"H\^s norm at s = 1e\+308 is not finite",
    ),
    "expected-energy-huge-s": (
        lambda: expected_sobolev_energy(FrequencyLattice(1, 8), 1e308),
        ParameterError,
        r"energy at s = 1e\+308 is not finite",
    ),
    "functional-huge-r": (lambda: _functional(functional), ParameterError, r"penalty at r = 1e\+308"),
    "shifted-functional-huge-r": (
        lambda: _functional(data_shifted_functional),
        ParameterError,
        r"penalty at r = 1e\+308",
    ),
    # finite steps whose squares overflow
    "defect-step-1e160": (lambda: _defect(step=1e160), ParameterError, r"step = 1e\+160"),
    "defect-step-1e200": (lambda: _defect(step=1e200), ParameterError, r"step = 1e\+200"),
    "synthesis-huge": (
        lambda: evaluate_on_grid(SpectralField(FrequencyLattice(1, 8), np.full(17, 1e308), hermitian=True), 17),
        InvalidFieldError,
        "grid values are finite",
    ),
    "sobolev-norm-huge-field": (
        lambda: sobolev_norm(SpectralField(FrequencyLattice(1, 8), np.full(17, 1e200), hermitian=True), 0.0),
        ParameterError,
        r"H\^s norm at s = 0 is not finite",
    ),
    "functional-huge-field": (lambda: _exact_fit(functional), ParameterError, r"penalty at r = 1 is not finite"),
    "bias-bound-r-400": (lambda: _bias_bound(r=400.0), ParameterError, r"\^r is not finite at r = 400"),
    "bias-bound-huge-r": (lambda: _bias_bound(r=1e308), ParameterError, r"\^r is not finite at r = 1e\+308"),
    # finite coefficients whose squares overflow in the fit term or the bias deviation
    "functional-huge-data": (lambda: _huge_data(functional), ParameterError, r"fit term \|\|A u - m\|\|\^2"),
    "shifted-functional-huge-field": (
        lambda: _exact_fit(data_shifted_functional),
        ParameterError,
        r"fit term \|\|A u\|\|\^2 - 2 <m, A u> is not finite",
    ),
    # a finite alpha whose penalty term overflows: inf, with no warning
    "functional-huge-alpha": (lambda: _huge_alpha(functional), ParameterError, r"not finite at alpha = 1e\+308"),
    "shifted-functional-huge-alpha": (
        lambda: _huge_alpha(data_shifted_functional),
        ParameterError,
        r"not finite at alpha = 1e\+308",
    ),
    "bias-bound-huge-truth": (
        lambda: bias_bound_check(deblur_operator(), _huge_field(1e200), DEBLUR_SCHEDULE, 1e-2, 0.0),
        ParameterError,
        "weighted squares of truth overflow",
    ),
    "bias-bound-huge-alpha": (
        lambda: bias_bound_check(
            deblur_operator(), hat_coefficients(FrequencyLattice(1, 8)), RegularizationSchedule(1e300, 2.5, 5.0), 1.0, 0.0
        ),
        ParameterError,
        r"alpha \(1\+\|l\|\^2\)\^r is not finite at alpha = 1e\+300",
    ),
    # a roughening symbol on large finite coefficients: the product overflows
    "apply-multiplier-overflow": (
        lambda: apply_multiplier(power_law_operator(-300.0), _huge_field(1e100)),
        ParameterError,
        r"product of 'power_law\(t=-300\)' and the field is not finite",
    ),
    # a NaN order or ellipticity constant compared False and passed the scan
    "ellipticity-nan-order": (lambda: _ellipticity(order=math.nan), ParameterError, "^order of 'multiplier' is NaN"),
    "ellipticity-nan-c-lower": (lambda: _ellipticity(c_lower=math.nan), ParameterError, "^c_lower of 'mul"),
    "ellipticity-nan-c-upper": (lambda: _ellipticity(c_upper=math.nan), ParameterError, "^c_upper of 'mul"),
    "ellipticity-nan-floor": (lambda: _ellipticity(mode_floor=math.nan), ParameterError, "^mode_floor of 'mul"),
    # an envelope |l|^order that overflows, or divides by zero at l = 0
    "ellipticity-huge-order": (lambda: _ellipticity(order=1e308), ParameterError, "do not bound"),
    "ellipticity-negative-floor": (lambda: _ellipticity(mode_floor=-1.0), ParameterError, "do not bound"),
    "coords-inf": (
        lambda: coords_to_field(FrequencyLattice(1, 8), np.full(17, np.inf)),
        InvalidFieldError,
        "coordinates must be finite",
    ),
    "bias-bound-truth-1e160": (
        lambda: bias_bound_check(deblur_operator(), _huge_field(1e160), DEBLUR_SCHEDULE, 1e-2, -1.0),
        ParameterError,
        "weighted squares of truth overflow",
    ),
    # a threshold that is not finite labelled every row alike: NaN "divergent", inf "convergent"
    "probe-nan-threshold": (
        lambda: regularity_probe([-1.0], [4, 8], [0], growth_threshold=math.nan),
        ParameterError,
        "^growth_threshold must be finite, got nan",
    ),
    "probe-inf-threshold": (
        lambda: regularity_probe([-1.0], [4, 8], [0], growth_threshold=math.inf),
        ParameterError,
        "^growth_threshold must be finite, got inf",
    ),
}


@pytest.mark.parametrize("case", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_bad_numbers_are_refused_without_a_warning(case):
    call, error, message = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()
