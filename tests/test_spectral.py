"""Lattices, fields, Sobolev norms, multipliers, grid synthesis."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tikhtorus import (
    DimensionError,
    FrequencyLattice,
    InvalidFieldError,
    NotRealValuedError,
    ParameterError,
    RegularizationSchedule,
    SpectralField,
    TruncationRangeError,
    apply_multiplier,
    check_ellipticity,
    coords_to_field,
    deblur_operator,
    evaluate_on_grid,
    field_from_grid,
    field_to_coords,
    forward,
    power_law_operator,
    regularity_probe,
    sample_white_noise,
    single_mode_field,
    sobolev_norm,
    sobolev_weights,
    solve,
    solve_split,
    truncate,
    zero_field,
)
from tikhtorus import spectral
from tikhtorus.spectral import Ellipticity, MultiplierOperator, finite_sobolev_weights


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

    def test_index_of_rejects_fractional_modes(self):
        # a fractional mode is refused, not truncated toward zero
        lat = FrequencyLattice(2, 3)
        with pytest.raises(ParameterError, match="integer"):
            lat.index_of([0.5, -0.5])
        with pytest.raises(ParameterError, match="integer"):
            single_mode_field(FrequencyLattice(1, 3), 1.5, 1.0)
        assert lat.index_of(np.array([1, -2], dtype=np.int32)) == lat.index_of([1, -2])

    def test_sizes_must_be_integers(self):
        # a float size is refused with a library error, not a numpy TypeError
        # later on; numpy integers are accepted
        with pytest.raises(DimensionError):
            FrequencyLattice(1.0, 2)
        with pytest.raises(ParameterError):
            zero_field(FrequencyLattice(1, 2.0))
        with pytest.raises(ParameterError):
            truncate(zero_field(FrequencyLattice(1, 4)), 2.0)
        for bandlimits in ([2.0, 4.0], [2.0, 4]):
            with pytest.raises(ParameterError):
                regularity_probe([-2.0], bandlimits, [0])
        assert FrequencyLattice(np.int64(1), np.int64(2)).mode_count == 5

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

    def test_constructor_checks_then_copies(self):
        # every field, the noise draw and forward's data included, is built by
        # the constructor: a checked, frozen copy of the caller's array
        lat = FrequencyLattice(1, 2)
        with pytest.raises(DimensionError):
            SpectralField(lat, np.zeros(4, dtype=complex))
        with pytest.raises(InvalidFieldError):
            SpectralField(lat, np.array([1j, 0, 0, 0, 0], dtype=complex), hermitian=True)
        coeffs = np.array([1j, 0, 2, 0, -1j], dtype=complex)
        f = SpectralField(lat, coeffs, hermitian=True)
        assert not np.shares_memory(f.coefficients, coeffs)
        coeffs[0] = 1.0  # the caller's array stays writeable
        assert f.coefficients[0] == 1j
        draw = sample_white_noise(lat, 0)
        data = forward(deblur_operator(), zero_field(lat), 1e-2, draw).data
        for field in (draw, data):
            with pytest.raises(ValueError):
                field.coefficients[0] = 0.0


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


def assert_flag_is_the_symmetry(field):
    c = field.coefficients
    assert field.hermitian == np.array_equal(c[::-1].conj(), c)
    return field.hermitian


def twisted_operator():
    # (2 + i) (1+|l|^2)^-1: a(-l) != conj(a(l)), so real fields map to complex ones
    return MultiplierOperator(
        lambda modes: (2.0 + 1j) / (1.0 + modes[:, 0].astype(float) ** 2),
        order=-2.0,
        ellipticity=Ellipticity(1.0, 5.0),
    )


class TestComputedHermitianFlag:
    """``hermitian`` is the exact symmetry of the coefficients, whatever
    built the field; no caller passes it along."""

    def test_constructor_without_an_assertion(self):
        lat = FrequencyLattice(1, 4)
        symmetric = random_hermitian_field(lat, 1).coefficients
        assert assert_flag_is_the_symmetry(SpectralField(lat, symmetric))
        assert not assert_flag_is_the_symmetry(SpectralField(lat, symmetric + 1j))
        assert not assert_flag_is_the_symmetry(SpectralField(lat, np.full(lat.mode_count, np.nan)))

    def test_arithmetic(self):
        lat = FrequencyLattice(2, 3)
        f, g = random_hermitian_field(lat, 2), random_hermitian_field(lat, 3)
        assert assert_flag_is_the_symmetry(f + g)
        assert assert_flag_is_the_symmetry(f - g)
        assert assert_flag_is_the_symmetry(2.5 * f)
        assert assert_flag_is_the_symmetry((2 + 0j) * f)
        assert not assert_flag_is_the_symmetry(1j * f)
        assert not assert_flag_is_the_symmetry((1j * f) + f)

    def test_truncate(self):
        lat = FrequencyLattice(1, 6)
        assert assert_flag_is_the_symmetry(truncate(random_hermitian_field(lat, 4), 3))
        odd = SpectralField(lat, lat.modes()[:, 0].astype(complex))  # c(l) = l
        assert not assert_flag_is_the_symmetry(truncate(odd, 3))
        assert assert_flag_is_the_symmetry(truncate(odd, 0))  # only c(0) = 0 is kept

    @pytest.mark.parametrize(
        "operator, symmetric", [(deblur_operator(), True), (twisted_operator(), False)]
    )
    def test_operators_and_solves(self, operator, symmetric):
        lat = FrequencyLattice(1, 8)
        truth, noise = random_hermitian_field(lat, 5), sample_white_noise(lat, 6)
        meas = forward(operator, truth, 0.1, noise)
        split = solve_split(operator, meas, RegularizationSchedule(1.0, 1.0, 1.0))
        for field in (
            apply_multiplier(operator, truth),
            meas.data,
            solve(operator, meas.data, 0.1, 1.0),
            split.reconstruction,
            split.noise_part,
        ):
            assert assert_flag_is_the_symmetry(field) == symmetric
        assert assert_flag_is_the_symmetry(split.bias_part)  # |a|^2 u / z, symmetric either way

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_single_mode_field(self, dimension):
        lat = FrequencyLattice(dimension, 2)
        zero, other = [0] * dimension, [1] * dimension
        assert assert_flag_is_the_symmetry(single_mode_field(lat, zero, 1.5))
        assert not assert_flag_is_the_symmetry(single_mode_field(lat, zero, 1.5j))
        assert not assert_flag_is_the_symmetry(single_mode_field(lat, other, 1.5))
        assert assert_flag_is_the_symmetry(single_mode_field(lat, other, 0.0))

    def test_asserted_constructions(self):
        lat = FrequencyLattice(1, 5)
        assert assert_flag_is_the_symmetry(coords_to_field(lat, np.arange(11.0)))
        assert assert_flag_is_the_symmetry(sample_white_noise(lat, 7))

    def test_real_valued_consumers_accept_an_unasserted_symmetric_field(self):
        lat = FrequencyLattice(1, 5)
        asserted = random_hermitian_field(lat, 8)
        plain = SpectralField(lat, asserted.coefficients)
        assert np.array_equal(evaluate_on_grid(plain, 16), evaluate_on_grid(asserted, 16))
        assert np.array_equal(field_to_coords(plain), field_to_coords(asserted))


class TestSobolevWeights:
    # the last lattice takes more than two chunks, so worker threads fill it
    @pytest.mark.parametrize("dimension,bandlimit", [(1, 64), (2, 6), (1, spectral._CHUNK + 1)])
    @pytest.mark.parametrize("s", [-3.0, -2.0, -0.6, 0.0, 0.5, 1.0, 2.0, 2.5, np.float64(1.0)])
    def test_weights_are_exact(self, dimension, bandlimit, s):
        lat = FrequencyLattice(dimension, bandlimit)
        weights = sobolev_weights(lat, s)
        assert np.array_equal(weights, (1 + lat.squared_norms()) ** s)

    # the table is filled in _CHUNK pieces across worker threads; its bytes
    # equal those of one whole-array power at every split
    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("dimension,bandlimit", [(1, 50), (2, 6)])
    def test_small_chunks_equal_the_whole_array_power(
        self, monkeypatch, dimension, bandlimit, chunk, cpus
    ):
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        lat = FrequencyLattice(dimension, bandlimit)
        for s in [-2.0, -0.6, 0.0, 0.5, 1.0, 2.0]:
            assert np.array_equal(sobolev_weights(lat, s), (1 + lat.squared_norms()) ** s)

    # the probe's half tables: the shared table from the zero mode on, bit
    # for bit, through the same chunked fill
    @pytest.mark.parametrize("chunk", [None, 3])
    @pytest.mark.parametrize(
        "dimension,bandlimit", [(1, 0), (1, 50), (2, 0), (2, 6), (1, 2 * spectral._CHUNK + 5)]
    )
    def test_half_tables_equal_the_shared_table_from_the_zero_mode(
        self, monkeypatch, dimension, bandlimit, chunk
    ):
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 8)
        if chunk is not None:
            monkeypatch.setattr(spectral, "_CHUNK", chunk)
        lat = FrequencyLattice(dimension, bandlimit)
        for s in [-2.0, -0.6, 0.0, 0.5, 1.0, 2.0]:
            half = spectral._half_sobolev_weights(lat, s)
            assert np.array_equal(half, (1 + lat.squared_norms()[lat.zero_index :]) ** s)
            assert half.flags.writeable  # a fresh table

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_overflow_warns_on_the_caller_and_not_when_checked(self, monkeypatch, chunk):
        # filterwarnings = error turns the overflow into an exception, also
        # when a worker thread raises it
        if chunk is not None:
            monkeypatch.setattr(spectral, "_CHUNK", chunk)
            monkeypatch.setattr(spectral, "_cpu_count", lambda: 8)
        lat = FrequencyLattice(1, 64)
        with pytest.raises(RuntimeWarning, match="overflow"):
            sobolev_weights(lat, 400)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParameterError, match=r"\(1\+\|l\|\^2\)\^400 overflows on bandlimit 64"):
                finite_sobolev_weights(lat, 400, "the test weight")
        assert caught == []

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_overflowed_table_warns_on_every_call(self, monkeypatch, chunk):
        # a checked call first: every unchecked call after it builds the
        # table under its own errstate, as a first call would
        if chunk is not None:
            monkeypatch.setattr(spectral, "_CHUNK", chunk)
            monkeypatch.setattr(spectral, "_cpu_count", lambda: 8)
        lat = FrequencyLattice(1, 64)
        with pytest.raises(ParameterError, match="overflows"):
            finite_sobolev_weights(lat, 400, "the test weight")
        for _ in range(2):
            with pytest.raises(RuntimeWarning, match="overflow"):
                sobolev_weights(lat, 400)
            with pytest.raises(ParameterError, match="H.s norm at s = 400 is not finite"):
                sobolev_norm(zero_field(lat), 400)  # the checked form
            with np.errstate(over="ignore"):
                weights = sobolev_weights(lat, 400)
                assert np.array_equal(weights, (1 + lat.squared_norms()) ** 400)
            assert np.isinf(weights).sum() == 124


def spread_values(count, seed):
    """Normal values scaled over +-20 decades, so that any summation order
    other than numpy's own shows in the sum's bits."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(count) * 10.0 ** rng.uniform(-20.0, 20.0, count)


def ball_sums(lat, table, balls):
    """``np.sum`` of a lattice-ordered table over the ball of each bandlimit,
    in the ball's own enumeration order, as floats: the oracle of every sum
    ``_kernel_sums`` takes."""
    # reshape(-1), not ravel(): a 1-d ball of a strided table stays a view
    return [float(np.sum(spectral.ball(lat, table, m).reshape(-1))) for m in balls]


class TestPairwiseTree:
    # np.sum of each leaf of numpy's pairwise tree, added up that tree, is
    # np.sum of the whole array bit for bit; the sums of _kernel_sums rest on it

    def test_leaf_sums_added_up_the_tree_equal_np_sum(self):
        values = spread_values(3_000_000, 22)
        boundaries = [1, 7, 8, 127, 128, 129, 2 * spectral._CHUNK - 1, 2 * spectral._CHUNK + 1]
        boundaries += [8 * 2**k + d for k in range(19) for d in (-1, 1)]
        drawn = np.random.default_rng(23).integers(1, values.size + 1, 40).tolist()
        for count in boundaries + drawn:
            leaves = []
            root = spectral._pairwise_tree(0, count, leaves)
            total = spectral._add_up(root, [np.sum(values[start:stop]) for start, stop in leaves])
            assert np.array_equal(total, np.sum(values[:count])), count

    @pytest.mark.parametrize(
        "dimension,bandlimit,balls",
        [(1, 100_000, [0, 1, 4096, 16384, 50_000, 100_000]), (2, 300, [0, 5, 64, 128, 200, 300])],
    )
    def test_ball_sums_equal_np_sum_over_each_ball(self, dimension, bandlimit, balls):
        lat = FrequencyLattice(dimension, bandlimit)
        table = spread_values(lat.mode_count, 24)
        sums = spectral._kernel_sums(lat, lambda span, pieces: [np.sum(table[piece]) for piece in pieces], balls)
        assert np.array_equal(sums, ball_sums(lat, table, balls))


class TestKernelSums:
    # a kernel runs on the leaves of each ball's pairwise-summation tree
    # across worker threads: its ball sums equal those of the whole table
    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize(
        "dimension,bandlimit,balls", [(1, 300, [0, 7, 150, 300]), (2, 12, [0, 3, 12])]
    )
    def test_pieces_sum_like_the_whole_table(
        self, monkeypatch, dimension, bandlimit, balls, chunk, cpus
    ):
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        lat = FrequencyLattice(dimension, bandlimit)
        table = np.random.default_rng(5).standard_normal(lat.mode_count) * 1e3
        positions = np.arange(lat.mode_count)
        pieces = []

        def kernel(span, group):
            pieces.extend(tuple(positions[piece]) for piece in group)
            return [np.sum(table[piece]) for piece in group]

        sums = spectral._kernel_sums(lat, kernel, balls)
        assert np.array_equal(sums, ball_sums(lat, table, balls))
        assert all(type(total) is float for total in sums)
        # the pieces are the tree's leaves and cover each ball once
        expected = []
        for m in balls:
            members = spectral.ball(lat, positions, m).reshape(-1)
            leaves = []
            spectral._pairwise_tree(0, members.size, leaves)
            assert [a for a, _ in leaves] == [0] + [b for _, b in leaves[:-1]]
            assert leaves[-1][1] == members.size
            assert all(b - a <= 128 for a, b in leaves)
            expected += [tuple(members[a:b]) for a, b in leaves]
        assert sorted(pieces) == sorted(expected)
        whole = spectral._kernel_sums(lat, kernel)
        assert type(whole) is float and whole == np.sum(table)

    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("chunk", [None, 1, 3, 7])
    @pytest.mark.parametrize(
        "dimension,bandlimit,m",
        [(1, 0, None), (1, 1, None), (1, 2, None), (1, 296, None), (1, 300, None), (1, 301, None),
         (1, 40_000, None), (2, 12, None), (1, 40_000, 20_001), (2, 12, 7)],
    )
    def test_mirror_groups_sum_each_leaf_like_the_whole_table(
        self, monkeypatch, dimension, bandlimit, m, chunk, cpus
    ):
        # the kernel gets each leaf of the ball's tree once (the whole lattice
        # for m = None), in a group whose span holds the leaf's modes or their
        # mirrors; an even table built on a slice span reads, through
        # _mirrored, as the whole table's entries of each leaf, in its order
        if chunk is not None:
            monkeypatch.setattr(spectral, "_CHUNK", chunk)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        lat = FrequencyLattice(dimension, bandlimit)
        count, zero = lat.mode_count, lat.zero_index
        rng = np.random.default_rng(6)
        table = rng.standard_normal(count) * 1e3
        even = rng.standard_normal(zero + 1)[np.abs(np.arange(count) - zero)]
        positions = np.arange(count)
        groups = []

        def kernel(span, pieces):
            groups.append((span, pieces))
            if isinstance(span, slice):  # a 2-d ball's span is an index array
                for piece in pieces:
                    read = spectral._mirrored(even[span], piece, zero, span.start - zero)
                    assert read.tobytes() == even[piece].tobytes()
            return [np.sum(table[piece]) for piece in pieces]

        if m is None:
            total = spectral._kernel_sums(lat, kernel)
            assert type(total) is float and total == np.sum(table)
            m = bandlimit
        else:
            assert spectral._kernel_sums(lat, kernel, [m]) == ball_sums(lat, table, [m])
        members = spectral.ball(lat, positions, m).reshape(-1)
        local = np.full(count, -1)
        local[members] = np.arange(members.size)
        leaves = []
        spectral._pairwise_tree(0, members.size, leaves)
        pieces = sorted(tuple(positions[piece]) for _, group in groups for piece in group)
        assert pieces == sorted(tuple(members[a:b]) for a, b in leaves)
        # each span is a run of the ball's own positions, from its zero mode up
        spans = sorted(local[positions[span]].tolist() for span, _ in groups)
        assert all(run == list(range(run[0], run[-1] + 1)) for run in spans)
        assert spans[0][0] == (members.size - 1) // 2 and spans[-1][-1] == members.size - 1
        assert 2 * len(groups) <= len(leaves) + 1  # a leaf and its mirror share a group
        if chunk is None:  # neighbouring spans share at most a few dozen modes
            assert all(0 <= b[-1] + 1 - a[0] <= 64 for b, a in zip(spans, spans[1:]))

    @pytest.mark.parametrize(
        "m,error", [(-1, TruncationRangeError), (41, TruncationRangeError), (1.5, ParameterError)]
    )
    def test_a_ball_outside_the_lattice_is_refused(self, m, error):
        def kernel(span, pieces):
            raise AssertionError("summed")

        with pytest.raises(error):
            spectral._kernel_sums(FrequencyLattice(1, 40), kernel, [3, m])

    @pytest.mark.parametrize("dimension,bandlimit", [(1, 40), (2, 5)])
    def test_sobolev_norm_of_a_truncation_sums_its_ball(self, dimension, bandlimit):
        field = random_hermitian_field(FrequencyLattice(dimension, bandlimit), 2)
        coeffs = field.coefficients
        balls = list(range(bandlimit + 1))
        squares = sobolev_weights(field.lattice, -1.5) * (coeffs.real**2 + coeffs.imag**2)
        expected = ball_sums(field.lattice, squares, balls)
        for m in balls:
            assert sobolev_norm(truncate(field, m), -1.5) == math.sqrt(expected[m])


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

    @pytest.mark.parametrize("t", [-1e308, -2048.0])
    def test_power_law_bounds_that_overflow_name_t(self, t):
        # 2^(-t/2) leaves the double range below t = -2046
        with pytest.raises(ParameterError, match=r"^t = -\S+ is too negative: the bound 2\^\(-t/2\) overflows"):
            power_law_operator(t)
        assert power_law_operator(-2046.0).ellipticity.c_upper == 2.0**1023

    def test_ellipticity_scan(self):
        check_ellipticity(deblur_operator(), FrequencyLattice(1, 1024))
        bad = MultiplierOperator(
            deblur_operator().symbol,
            order=-2.0,
            ellipticity=Ellipticity(c_lower=0.99, c_upper=1.0),  # lower bound too tight
        )
        with pytest.raises(ParameterError):
            check_ellipticity(bad, FrequencyLattice(1, 64))

    @pytest.mark.parametrize("order,floor", [(1e308, 0.0), (-2.0, -1.0)])
    def test_a_zero_lower_bound_on_an_inf_envelope_passes_without_a_warning(self, order, floor):
        # |l|^order is inf at some mode, and the lower bound there 0 * inf:
        # no bound, so the verdict rests on the upper one
        op = MultiplierOperator(deblur_operator().symbol, order, Ellipticity(0.0, 1.0, floor))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_ellipticity(op, FrequencyLattice(1, 8)) is None


class TestSymbolTables:
    def test_tables_are_exact(self):
        op = deblur_operator()
        values = op.symbol_values(FrequencyLattice(1, 16))
        squared = op.squared_modulus(FrequencyLattice(1, 16))
        assert np.array_equal(values, op.symbol(FrequencyLattice(1, 16).modes()))
        assert np.array_equal(squared, values.real**2 + values.imag**2)

    def test_symbol_runs_on_every_call(self):
        lattices = []

        def symbol(modes):
            lattices.append(len(modes))
            return np.ones(len(modes), dtype=np.complex128)

        op = MultiplierOperator(symbol, order=0.0, ellipticity=Ellipticity(1, 1))
        for lat in (FrequencyLattice(1, 3), FrequencyLattice(2, 3)) * 2:
            op.symbol_values(lat)
            op.squared_modulus(lat)
        assert lattices == [7, 7, 49, 49] * 2

    @pytest.mark.parametrize(
        "values",
        [lambda modes: np.ones(len(modes) - 1), lambda modes: np.ones((len(modes), 1)), lambda modes: 1.0],
        ids=["short", "column", "scalar"],
    )
    def test_a_value_per_row_is_required(self, values):
        op = MultiplierOperator(values, order=0.0, ellipticity=Ellipticity(1, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for call in (check_ellipticity, MultiplierOperator.symbol_values, MultiplierOperator.squared_modulus):
                with pytest.raises(DimensionError, match="symbol must return one value per lattice mode"):
                    call(op, FrequencyLattice(2, 3))
        assert caught == []

    def test_callable_keeps_its_array_writable(self):
        kept = np.ones(5, dtype=np.complex128)
        op = MultiplierOperator(lambda modes: kept, order=0.0, ellipticity=Ellipticity(1, 1))
        values = op.symbol_values(FrequencyLattice(1, 2))
        assert kept.flags.writeable
        kept[0] = 2.0
        assert values[0] == 1.0  # the table is a copy

    def test_errors_are_not_cached(self):
        calls = []

        def symbol(modes):
            calls.append(len(modes))
            return modes[:, 0].astype(complex)  # zero at l = 0

        op = MultiplierOperator(symbol, order=1.0, ellipticity=Ellipticity(1, 1))
        lat = FrequencyLattice(1, 2)
        for _ in range(2):
            with pytest.raises(ParameterError, match="vanishes"):
                op.symbol_values(lat)
            with pytest.raises(ParameterError, match="vanishes"):
                op.squared_modulus(lat)
        assert calls == [5] * 4

    @pytest.mark.parametrize(
        "values",
        [lambda modes: np.full(len(modes), np.nan), power_law_operator(-400.0).symbol],
        ids=["nan", "overflow"],
    )
    @pytest.mark.parametrize("over", ["warn", "ignore"])
    def test_non_finite_symbols_are_rejected(self, values, over):
        # (1+|l|^2)^200 overflows on bandlimit 10; under a caller's
        # errstate(over="ignore") the inf table must not be served either
        calls = []

        def symbol(modes):
            calls.append(len(modes))
            return values(modes)

        op = MultiplierOperator(symbol, order=0.0, ellipticity=Ellipticity(1, 1))
        lat = FrequencyLattice(1, 10)
        with warnings.catch_warnings(record=True) as caught, np.errstate(over=over):
            warnings.simplefilter("always")
            for call in (check_ellipticity, MultiplierOperator.symbol_values):
                with pytest.raises(ParameterError, match="'multiplier' is not finite on the lattice"):
                    call(op, lat)
        assert caught == []
        assert calls == [21, 21]

    @pytest.mark.parametrize("lat", [FrequencyLattice(1, 40000), FrequencyLattice(2, 150)], ids=str)
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
    def test_power_law_symbol_is_the_weight_table(self, lat, t):
        # the solvers' bytes rest on a(l) = (1+|l|^2)^(-t/2) exactly, read as
        # complex with a zero imaginary part
        values = power_law_operator(t).symbol_values(lat)
        assert np.array_equal(values.imag, np.zeros(lat.mode_count))
        assert np.array_equal(values.real, sobolev_weights(lat, -t / 2))


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

    @pytest.mark.parametrize("points", [40.0, "40", None])
    def test_points_must_be_an_integer(self, points):
        f = zero_field(FrequencyLattice(1, 8))
        with pytest.raises(ParameterError, match="points per axis must be an integer"):
            evaluate_on_grid(f, points)
