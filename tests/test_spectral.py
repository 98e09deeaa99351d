"""Lattices, fields, Sobolev norms, multipliers, grid synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tikhtorus import (
    DimensionError,
    FrequencyLattice,
    InvalidFieldError,
    NotRealValuedError,
    ParameterError,
    SpectralField,
    TruncationRangeError,
    apply_multiplier,
    check_ellipticity,
    deblur_operator,
    evaluate_on_grid,
    field_from_grid,
    power_law_operator,
    single_mode_field,
    sobolev_norm,
    sobolev_weights,
    truncate,
    zero_field,
)
from tikhtorus.spectral import Ellipticity, MultiplierOperator


def random_hermitian_field(lattice, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(lattice.mode_count) + 1j * rng.standard_normal(
        lattice.mode_count
    )
    coeffs = 0.5 * (coeffs + coeffs[::-1].conj())
    coeffs[lattice.zero_index] = coeffs[lattice.zero_index].real
    return SpectralField(lattice, coeffs, hermitian=True)


class TestLattice:
    def test_mode_count(self):
        assert FrequencyLattice(1, 8).mode_count == 17
        assert FrequencyLattice(2, 3).mode_count == 49
        assert FrequencyLattice(1, 0).mode_count == 1

    def test_enumeration_deterministic_and_lexicographic(self):
        lat = FrequencyLattice(2, 2)
        modes = lat.modes()
        assert modes.shape == (25, 2)
        assert modes[0].tolist() == [-2, -2]
        assert modes[1].tolist() == [-2, -1]
        assert modes[-1].tolist() == [2, 2]
        again = FrequencyLattice(2, 2).modes()
        assert np.array_equal(modes, again)

    def test_negation_is_reversal(self):
        for lat in (FrequencyLattice(1, 5), FrequencyLattice(2, 3)):
            modes = lat.modes()
            assert np.array_equal(modes[::-1], -modes)
            assert np.all(modes[lat.zero_index] == 0)

    def test_index_of(self):
        lat = FrequencyLattice(2, 3)
        for i, mode in enumerate(lat.modes()):
            assert lat.index_of(mode) == i
        with pytest.raises(ParameterError):
            lat.index_of([4, 0])

    def test_invalid_dimension(self):
        with pytest.raises(DimensionError):
            FrequencyLattice(3, 4)
        with pytest.raises(ParameterError):
            FrequencyLattice(1, -1)


class TestField:
    def test_hermitian_flag_checked(self):
        lat = FrequencyLattice(1, 2)
        bad = np.array([1j, 0, 0, 0, 0], dtype=complex)
        with pytest.raises(InvalidFieldError):
            SpectralField(lat, bad, hermitian=True)

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan)])
    def test_hermitian_check_names_non_finite_coefficients(self, bad):
        lat = FrequencyLattice(1, 2)
        coeffs = np.array([0, 0, bad, 0, 0], dtype=complex)
        with pytest.raises(InvalidFieldError, match="non-finite"):
            SpectralField(lat, coeffs, hermitian=True)

    def test_arithmetic_preserves_flags(self):
        lat = FrequencyLattice(1, 4)
        f = random_hermitian_field(lat, 1)
        g = random_hermitian_field(lat, 2)
        assert (f + g).hermitian
        assert (2.5 * f).hermitian
        assert not (1j * f).hermitian

    def test_coefficients_read_only(self):
        f = zero_field(FrequencyLattice(1, 3))
        with pytest.raises(ValueError):
            f.coefficients[0] = 1.0

    def test_owned_path_keeps_its_checks(self):
        # library-built arrays skip the copy, not the validation
        lat = FrequencyLattice(1, 2)
        with pytest.raises(InvalidFieldError):
            SpectralField._owned(lat, np.array([1j, 0, 0, 0, 0], dtype=complex), hermitian=True)
        with pytest.raises(DimensionError):
            SpectralField._owned(lat, np.zeros(4, dtype=complex))
        coeffs = np.array([1j, 0, 2, 0, -1j], dtype=complex)
        f = SpectralField._owned(lat, coeffs, hermitian=True)
        assert f.coefficients is coeffs
        with pytest.raises(ValueError):
            coeffs[0] = 1.0


class TestSobolevNorm:
    def test_zero_field(self):
        lat = FrequencyLattice(1, 16)
        for s in (-2.0, 0.0, 1.0, 3.5):
            assert sobolev_norm(zero_field(lat), s) == 0.0

    def test_single_zero_mode(self):
        lat = FrequencyLattice(2, 4)
        f = single_mode_field(lat, [0, 0], 1.0)
        for s in (-3.0, 0.0, 2.0):
            assert sobolev_norm(f, s) == pytest.approx(1.0, abs=0)

    def test_hat_l2_norm_matches_quadrature_oracle(self):
        # oracle: dense trapezoid quadrature of the squared piecewise formula
        from tikhtorus import hat_coefficients, hat_values

        x = np.linspace(0.0, 1.0, 2_000_001)
        oracle_sq = np.trapezoid(hat_values(x) ** 2, x)
        assert oracle_sq == pytest.approx(4.0 / 15.0, abs=1e-9)
        hat = hat_coefficients(FrequencyLattice(1, 512))
        assert sobolev_norm(hat, 0.0) == pytest.approx(np.sqrt(oracle_sq), abs=1e-6)

    def test_nonfinite_rejected(self):
        lat = FrequencyLattice(1, 1)
        f = SpectralField(lat, np.array([0, np.inf, 0], dtype=complex))
        with pytest.raises(InvalidFieldError):
            sobolev_norm(f, 0.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), s=st.floats(-3, 3), shift=st.floats(0.1, 2))
    def test_monotone_in_s(self, seed, s, shift):
        # (1+|l|^2) >= 1 so the weight grows with s
        f = random_hermitian_field(FrequencyLattice(1, 12), seed)
        assert sobolev_norm(f, s) <= sobolev_norm(f, s + shift) * (1 + 1e-12)

    def test_parseval_against_grid_quadrature(self):
        lat = FrequencyLattice(1, 24)
        f = random_hermitian_field(lat, 9)
        points = 64  # >= 2M+1, so quadrature of the square is exact
        values = evaluate_on_grid(f, points)
        quad = np.sum(values**2) / points
        assert quad == pytest.approx(sobolev_norm(f, 0.0) ** 2, rel=1e-10)

    def test_norm_via_derivative_multiplier(self):
        # H^r norm equals the L^2 norm after applying (1+|l|^2)^(r/2)
        lat = FrequencyLattice(2, 6)
        f = random_hermitian_field(lat, 11)
        for r in (0.5, 1.0, 2.0):
            lifted = apply_multiplier(power_law_operator(-r), f)
            assert sobolev_norm(lifted, 0.0) == pytest.approx(
                sobolev_norm(f, r), abs=1e-12 * max(1.0, sobolev_norm(f, r))
            )


class TestSobolevWeights:
    @pytest.mark.parametrize("dimension,bandlimit", [(1, 64), (2, 6)])
    @pytest.mark.parametrize("s", [-3.0, -0.6, 0.0, 1.0, 2.5, np.float64(1.0)])
    def test_shared_weights_are_exact_and_read_only(self, dimension, bandlimit, s):
        lat = FrequencyLattice(dimension, bandlimit)
        weights = sobolev_weights(lat, s)
        assert np.array_equal(weights, (1 + lat.squared_norms()) ** s)
        assert sobolev_weights(FrequencyLattice(dimension, bandlimit), float(s)) is weights
        with pytest.raises(ValueError):
            weights[0] = 0.0


class TestMultiplier:
    def test_identity_symbol(self):
        lat = FrequencyLattice(1, 8)
        f = random_hermitian_field(lat, 3)
        identity = power_law_operator(0.0)
        out = apply_multiplier(identity, f)
        assert np.array_equal(out.coefficients, f.coefficients)

    def test_deblur_single_mode(self):
        lat = FrequencyLattice(1, 4)
        f = single_mode_field(lat, [2], 1.0)
        out = apply_multiplier(deblur_operator(), f)
        assert out.coefficients[lat.index_of([2])] == pytest.approx(1.0 / 5.0, abs=0)

    def test_symbol_composition(self):
        lat = FrequencyLattice(1, 16)
        f = random_hermitian_field(lat, 4)
        once = apply_multiplier(power_law_operator(4.0), f)
        twice = apply_multiplier(power_law_operator(2.0), apply_multiplier(power_law_operator(2.0), f))
        np.testing.assert_allclose(twice.coefficients, once.coefficients, rtol=1e-14, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        lat = FrequencyLattice(1, 10)
        f = random_hermitian_field(lat, seed)
        g = random_hermitian_field(lat, seed + 77)
        op = deblur_operator()
        lhs = apply_multiplier(op, a * f + b * g).coefficients
        rhs = a * apply_multiplier(op, f).coefficients + b * apply_multiplier(op, g).coefficients
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-15)

    def test_hermitian_preserved_for_symmetric_symbol(self):
        lat = FrequencyLattice(1, 6)
        f = random_hermitian_field(lat, 5)
        assert apply_multiplier(deblur_operator(), f).hermitian

        def odd_symbol(modes):
            return (1.0 + 1j * modes[:, 0]).astype(complex)

        op = MultiplierOperator(odd_symbol, order=0.0, ellipticity=Ellipticity(0.5, 10.0))
        lifted = apply_multiplier(op, f)
        assert lifted.hermitian  # 1 + i l is Hermitian-symmetric

    def test_dimension_pinned(self):
        lat2 = FrequencyLattice(2, 3)
        with pytest.raises(DimensionError):
            apply_multiplier(deblur_operator(), zero_field(lat2))

    def test_vanishing_symbol_rejected(self):
        def symbol(modes):
            return modes[:, 0].astype(complex)  # zero at l = 0

        op = MultiplierOperator(symbol, order=1.0, ellipticity=Ellipticity(1, 1))
        with pytest.raises(ParameterError):
            apply_multiplier(op, zero_field(FrequencyLattice(1, 2)))

    def test_ellipticity_scan(self):
        check_ellipticity(deblur_operator(), FrequencyLattice(1, 1024))
        bad = MultiplierOperator(
            deblur_operator().symbol,
            order=-2.0,
            ellipticity=Ellipticity(c_lower=0.99, c_upper=1.0),  # lower bound too tight
        )
        with pytest.raises(ParameterError):
            check_ellipticity(bad, FrequencyLattice(1, 64))


class TestTruncate:
    def test_identity_at_same_bandlimit(self):
        f = random_hermitian_field(FrequencyLattice(1, 7), 6)
        out = truncate(f, 7)
        assert np.array_equal(out.coefficients, f.coefficients)

    def test_drops_outer_mode(self):
        lat = FrequencyLattice(1, 5)
        f = single_mode_field(lat, [3], 1.0)
        out = truncate(f, 2)
        assert np.all(out.coefficients == 0)

    def test_range_error(self):
        f = zero_field(FrequencyLattice(1, 4))
        with pytest.raises(TruncationRangeError):
            truncate(f, 5)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), s=st.floats(-2, 2))
    def test_contraction_in_every_norm(self, seed, s):
        f = random_hermitian_field(FrequencyLattice(1, 12), seed)
        small = truncate(f, 5)
        assert sobolev_norm(small, s) <= sobolev_norm(f, s) * (1 + 1e-12)

    def test_2d_kept_coefficients_identical(self):
        lat = FrequencyLattice(2, 4)
        f = random_hermitian_field(lat, 8)
        small = truncate(f, 2)
        small_lat = FrequencyLattice(2, 2)
        for i, mode in enumerate(small_lat.modes()):
            assert small.coefficients[i] == f.coefficients[lat.index_of(mode)]


class TestGridSynthesis:
    def test_zero_field(self):
        values = evaluate_on_grid(zero_field(FrequencyLattice(1, 4)), 16)
        assert np.all(values == 0)

    def test_constant_mode(self):
        lat = FrequencyLattice(2, 2)
        f = single_mode_field(lat, [0, 0], 3.25)
        values = evaluate_on_grid(f, 8)
        np.testing.assert_allclose(values, 3.25, rtol=0, atol=1e-14)

    def test_round_trip_against_direct_dft(self):
        lat = FrequencyLattice(1, 8)
        f = random_hermitian_field(lat, 12)
        points = 32
        values = evaluate_on_grid(f, points)

        # oracle: direct DFT summation, no FFT
        x = np.arange(points) / points
        direct = np.zeros(points, dtype=complex)
        for mode, coeff in zip(lat.modes()[:, 0], f.coefficients):
            direct += coeff * np.exp(2j * np.pi * mode * x)
        np.testing.assert_allclose(values, direct.real, atol=1e-12)

        back = field_from_grid(lat, values)
        np.testing.assert_allclose(back.coefficients, f.coefficients, atol=1e-12)

    def test_round_trip_2d(self):
        lat = FrequencyLattice(2, 3)
        f = random_hermitian_field(lat, 13)
        values = evaluate_on_grid(f, 9)
        back = field_from_grid(lat, values)
        np.testing.assert_allclose(back.coefficients, f.coefficients, atol=1e-12)

    def test_requires_hermitian(self):
        lat = FrequencyLattice(1, 2)
        f = single_mode_field(lat, [1], 1.0)
        with pytest.raises(NotRealValuedError):
            evaluate_on_grid(f, 8)

    def test_too_few_points(self):
        f = zero_field(FrequencyLattice(1, 8))
        with pytest.raises(ParameterError):
            evaluate_on_grid(f, 16)
