"""White-noise sampler: reproducibility, moments, nesting, energy sums."""

import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tikhtorus import (
    ConfigError,
    FrequencyLattice,
    ParameterError,
    expected_sobolev_energy,
    regularity_probe,
    sample_white_noise,
    sobolev_norm,
    truncate,
)
from tikhtorus import noise, spectral


def direct_energy_sum(M, s):
    """Independent oracle for the expected H^s energy in d = 1."""
    l = np.arange(-M, M + 1, dtype=np.float64)
    return float(np.sum((1.0 + l * l) ** s))


class TestSampler:
    def test_bit_identical_for_same_seed(self):
        lat = FrequencyLattice(1, 64)
        a = sample_white_noise(lat, 12345)
        b = sample_white_noise(lat, 12345)
        assert np.array_equal(a.coefficients, b.coefficients)
        c = sample_white_noise(lat, 12346)
        assert not np.array_equal(a.coefficients, c.coefficients)

    def test_real_valued(self):
        for lat in (FrequencyLattice(1, 32), FrequencyLattice(2, 8)):
            w = sample_white_noise(lat, 7)
            assert w.hermitian
            center = lat.zero_index
            assert w.coefficients[center].imag == 0.0

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            sample_white_noise(FrequencyLattice(1, 8), seed)
        with pytest.raises(ParameterError, match="seed"):
            regularity_probe([-1.0], [4, 8], [0, seed])

    def test_field_is_read_only(self):
        w = sample_white_noise(FrequencyLattice(1, 16), 3)
        with pytest.raises(ValueError):
            w.coefficients[0] = 1.0

    @pytest.mark.parametrize("dimension,big,small", [(1, 64, 17), (2, 12, 5)])
    def test_bandlimit_nesting(self, dimension, big, small):
        # refining the bandlimit must extend a realization, not resample it
        seed = 99
        big_sample = sample_white_noise(FrequencyLattice(dimension, big), seed)
        small_sample = sample_white_noise(FrequencyLattice(dimension, small), seed)
        restricted = truncate(big_sample, small)
        assert np.array_equal(restricted.coefficients, small_sample.coefficients)

    @pytest.mark.parametrize(
        "dimension,bandlimit",
        [(1, 0), (1, 1), (1, 17), (1, 500), (2, 0), (2, 1), (2, 5), (2, 12), (2, 40)],
    )
    def test_draw_follows_the_documented_contract(self, dimension, bandlimit):
        # oracle built from the module docstring alone: PCG64 uniforms, the
        # Box-Muller pairs, and canonical modes (first nonzero component
        # positive) ordered by (shell, enumeration index) in plain Python
        seed = 2024
        modes = list(itertools.product(range(-bandlimit, bandlimit + 1), repeat=dimension))
        position = {mode: i for i, mode in enumerate(modes)}
        canonical = sorted(
            (max(map(abs, mode)), i)
            for i, mode in enumerate(modes)
            if next((c for c in mode if c != 0), 0) > 0
        )
        pairs = len(canonical) + 1
        u = np.random.Generator(np.random.PCG64(seed)).random(2 * pairs)
        radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        angle = 2.0 * np.pi * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        values = (z[1:-1:2] + 1j * z[2::2]) / np.sqrt(2.0)
        expected = np.zeros(len(modes), dtype=np.complex128)
        expected[position[(0,) * dimension]] = z[0]
        for (_, i), value in zip(canonical, values):
            expected[i] = value
            expected[position[tuple(-c for c in modes[i])]] = np.conj(value)
        drawn = sample_white_noise(FrequencyLattice(dimension, bandlimit), seed)
        assert np.array_equal(drawn.coefficients, expected)

    def test_mean_mode_energy(self):
        # E |<W, e_l>|^2 = 1 per mode, so the L^2 energy per mode averages to 1
        M = 1000
        lat = FrequencyLattice(1, M)
        ratios = [
            sobolev_norm(sample_white_noise(lat, seed), 0.0) ** 2 / (2 * M + 1)
            for seed in range(200)
        ]
        assert 0.98 <= np.mean(ratios) <= 1.02

    def test_component_variance_and_independence(self):
        # Re c(l), Im c(l) are independent N(0, 1/2) at any fixed nonzero mode
        lat = FrequencyLattice(1, 2)
        index = lat.index_of([1])
        values = np.array(
            [sample_white_noise(lat, seed).coefficients[index] for seed in range(10_000)]
        )
        assert np.var(values.real) == pytest.approx(0.5, abs=0.03)
        assert np.var(values.imag) == pytest.approx(0.5, abs=0.03)
        # covariance of independent halves: SE ~ 0.5/sqrt(N)
        assert abs(np.mean(values.real * values.imag)) < 4 * 0.5 / np.sqrt(values.size)

    def test_spot_checked_moments(self):
        # mean within 4 standard errors of 0, |c|^2 within 4 SEs of 1
        lat = FrequencyLattice(1, 3)
        count = 10_000
        stack = np.array(
            [sample_white_noise(lat, seed).coefficients for seed in range(count)]
        )
        for mode in ([0], [1], [2], [-1], [3]):
            column = stack[:, lat.index_of(mode)]
            mean_se = np.sqrt(1.0 / count)
            assert abs(np.mean(column.real)) < 4 * mean_se
            power = np.abs(column) ** 2
            power_se = np.std(power) / np.sqrt(count)
            assert abs(np.mean(power) - 1.0) < 4 * power_se


def single_shot_draw(lattice, seed):
    """The coefficients and |c|^2 of one draw from one whole-stream call:
    ``random(2 * (n + 1))``, the Box-Muller pairs, and the documented scatter."""
    first = lattice.zero_index + 1
    canonical = first + np.argsort(lattice.shells()[first:], kind="stable")
    conjugate = lattice.mode_count - 1 - canonical
    n = canonical.size
    uniforms = np.random.Generator(np.random.PCG64(seed)).random(2 * (n + 1))
    cos_half, sin_half = noise._box_muller(uniforms)
    values = (sin_half[:n] + 1j * cos_half[1 : n + 1]) / np.sqrt(2.0)
    coeffs = np.zeros(lattice.mode_count, dtype=np.complex128)
    coeffs[lattice.zero_index] = cos_half[0]
    coeffs[canonical] = values
    coeffs[conjugate] = values.conj()
    power = np.empty(lattice.mode_count)
    power[lattice.zero_index] = cos_half[0] * cos_half[0]
    power[canonical] = power[conjugate] = np.abs(values) ** 2
    return coeffs, power


def assert_draws_match_single_shot(lattice, seed):
    coeffs, power = single_shot_draw(lattice, seed)
    assert np.array_equal(sample_white_noise(lattice, seed).coefficients, coeffs)
    # the half |c|^2 table, read through the mirror at every canonical and
    # every conjugate position, as a slice and as an index array
    half = noise._half_power(lattice, seed)
    assert half.shape == (lattice.zero_index + 1,)
    for every in (slice(0, lattice.mode_count), np.arange(lattice.mode_count)):
        assert np.array_equal(spectral._mirrored(half, every, lattice.zero_index), power)


@pytest.fixture
def many_cpus(monkeypatch):
    # more workers than cores, so the range splits run under preemption
    monkeypatch.setattr(spectral, "_cpu_count", lambda: 8)


class TestChunkedDraw:
    # a draw is made in chunks of canonical pairs across worker threads; its
    # bytes equal those of one whole-stream call at every split

    @pytest.mark.parametrize(
        "dimension,bandlimit",
        [
            (1, 2**20),
            (1, spectral._CHUNK - 1),
            (1, spectral._CHUNK),
            (1, spectral._CHUNK + 1),
            (1, 3 * spectral._CHUNK + 5),
            (2, 300),
        ],
    )
    def test_equals_the_single_shot_draw(self, dimension, bandlimit):
        assert_draws_match_single_shot(FrequencyLattice(dimension, bandlimit), 2024)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize(
        "dimension,bandlimit", [(1, 0), (1, 1), (1, 2), (1, 6), (1, 50), (2, 1), (2, 4), (2, 9)]
    )
    def test_equals_the_single_shot_draw_across_small_chunks(
        self, monkeypatch, many_cpus, chunk, dimension, bandlimit
    ):
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers interleave between every few bytecodes
        try:
            assert_draws_match_single_shot(FrequencyLattice(dimension, bandlimit), 99)
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_callers_get_the_single_thread_bytes(self, many_cpus):
        lattice = FrequencyLattice(1, 3 * spectral._CHUNK + 5)
        seeds = [3, 4]
        expected = [single_shot_draw(lattice, seed)[0] for seed in seeds]
        start = threading.Barrier(len(seeds))
        drawn = [None] * len(seeds)

        def call(i):
            start.wait()
            drawn[i] = sample_white_noise(lattice, seeds[i]).coefficients

        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(seeds))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
        assert not any(caller.is_alive() for caller in callers)
        assert all(np.array_equal(a, b) for a, b in zip(drawn, expected))

    def test_a_draw_inside_a_worker_keeps_its_bytes(self, monkeypatch, many_cpus):
        # each piece of an outer map draws a lattice of several chunks, which
        # starts workers of its own from inside a worker
        monkeypatch.setattr(spectral, "_CHUNK", 1000)
        lattice = FrequencyLattice(1, 4500)
        expected = single_shot_draw(lattice, 11)[0]
        drawn = {}

        def kernel(start, stop):
            drawn[start] = (threading.current_thread(), sample_white_noise(lattice, 11))

        outer = threading.Thread(target=spectral._map_chunks, args=(kernel, 3000))
        outer.start()
        outer.join(timeout=120)
        assert not outer.is_alive()
        assert sorted(drawn) == [0, 1000, 2000]
        assert len({thread for thread, _ in drawn.values()}) == 3
        assert all(np.array_equal(field.coefficients, expected) for _, field in drawn.values())

    def test_worker_errstate_and_exceptions_reach_the_caller(self, many_cpus):
        # (1+|l|^2)^400 overflows inside the workers' weight tables: the
        # probe's over="ignore" holds there too, and the overflow surfaces as
        # the caller's ParameterError
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParameterError, match="s = 400, bandlimit = 20000"):
                regularity_probe([-2.0, 400.0], [20000, 40000], [0])
        assert caught == []

    def test_a_worker_exception_reraises_after_every_range(self, monkeypatch):
        # three ranges of pieces 0-2, 3-5 and 6-8: a range stops at its first
        # exception, the others run to their end, and the earliest range's
        # exception reaches the caller
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 3)
        finished = []

        def kernel(start, stop):
            piece = start // spectral._CHUNK
            if piece in (1, 4):
                raise MemoryError(f"piece {piece}")
            finished.append(piece)

        with pytest.raises(MemoryError, match="piece 1"):
            spectral._map_chunks(kernel, 9 * spectral._CHUNK)
        assert sorted(finished) == [0, 3, 6, 7, 8]

    def test_a_worker_takes_over_the_back_half_of_a_slow_range(self, monkeypatch):
        # ranges of pieces 0-4 and 5-9: piece 0 waits until the second worker
        # has walked its range and taken over pieces 3 and 4, the back half
        # of the pieces 1-4 left; the first worker then walks 1 and 2
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        threads, taken = {}, threading.Event()

        def kernel(start, stop):
            piece = start // spectral._CHUNK
            threads[piece] = threading.get_ident()
            if piece == 4:
                taken.set()
            if piece == 0:
                assert taken.wait(timeout=10)

        spectral._map_chunks(kernel, 10 * spectral._CHUNK)
        caller = threading.get_ident()
        assert [threads[piece] == caller for piece in range(10)] == [True] * 3 + [False] * 7

    def test_every_piece_runs_once_under_preemption(self, monkeypatch, many_cpus):
        # uneven pieces over more workers than cores, with a thread switch
        # every microsecond: the workers that take over back halves of
        # ranges still run each piece exactly once
        monkeypatch.setattr(spectral, "_CHUNK", 1)
        ran = []

        def kernel(start, stop):
            if start % 5 == 0:
                np.sum(np.arange(2000.0))
            ran.append(start)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            spectral._map_chunks(kernel, 3000)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(3000))


class TestSpanDraw:
    # in d = 1 a span of lattice positions is drawn straight from the stream,
    # with the bytes of the field draw on that span

    @pytest.mark.parametrize("seed", [0, 2**32])
    @pytest.mark.parametrize(
        "bandlimit,spans",
        [
            (0, [(0, 1)]),
            (1, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]),
            # below, across and above the zero mode (50), and one-mode spans
            (50, [(0, 50), (7, 31), (49, 50), (0, 1), (3, 51), (50, 51), (49, 52),
                  (10, 90), (0, 101), (51, 101), (60, 83), (100, 101), (51, 52)]),
            (3 * spectral._CHUNK + 5, [(0, 32768), (40000, 98304), (98299, 98320), (98309, 196619)]),
        ],
    )
    def test_span_equals_the_field_draw(self, bandlimit, spans, seed):
        lattice = FrequencyLattice(1, bandlimit)
        coefficients = sample_white_noise(lattice, seed).coefficients
        for start, stop in spans:
            span = noise._draw_span(lattice, seed, start, stop)
            assert span.dtype == np.complex128 and span.tobytes() == coefficients[start:stop].tobytes()

    def test_numpy_integer_bounds_draw_the_same_bytes(self):
        # PCG64.advance refuses numpy integers, which bounds drawn with a
        # numpy Generator are
        lattice = FrequencyLattice(1, 50)
        for start, stop in [(0, 50), (3, 51), (49, 52), (60, 83), (0, 101)]:
            drawn = noise._draw_span(lattice, 5, np.int64(start), np.int64(stop))
            assert drawn.tobytes() == noise._draw_span(lattice, 5, start, stop).tobytes()

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_a_bad_seed_raises_before_any_draw(self, monkeypatch, seed):
        def forbidden(*args):
            raise AssertionError("drawn")

        monkeypatch.setattr(noise, "_pair_values", forbidden)
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            noise._draw_span(FrequencyLattice(1, 4), seed, 0, 9)
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            sample_white_noise(FrequencyLattice(1, 4), seed)


def whole_array_pair_values(seed, start, stop):
    """The values of the canonical modes [start, stop) and z[2 start], spelled
    on whole arrays from the stream's first double: Box-Muller out of place,
    then ``(sin + 1j*cos) / sqrt(2)``."""
    uniforms = np.random.Generator(np.random.PCG64(seed)).random(2 * (stop + 1))[2 * start :]
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[0::2]))
    angle = 2.0 * np.pi * uniforms[1::2]
    cos_half, sin_half = radius * np.cos(angle), radius * np.sin(angle)
    return (sin_half[:-1] + 1j * cos_half[1:]) / np.sqrt(2.0), cos_half[0]


class TestInPlaceDraw:
    # a draw writes its normals over its uniforms, in a caller's buffer when
    # given, and scales the values' parts by 1/sqrt(2) in place

    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
    def test_pair_values_equal_the_whole_array_spelling(self, seed):
        # bit for bit, signed zeros included: long, short and long spans
        # drawn into one reused buffer, whose stale doubles must not leak
        spans = [(0, 32768), (0, 0), (0, 1), (1000, 33000), (5, 6), (123457, 123460), (0, 32768)]
        buffer = np.full(2 * 32769, np.nan)
        for start, stop in spans:
            expected, expected_z0 = whole_array_pair_values(seed, start, stop)
            for out in (None, buffer):
                values, z0 = noise._pair_values(seed, start, stop, out)
                assert values.dtype == np.complex128 and values.shape == (stop - start,)
                assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
                assert np.float64(z0).view(np.uint64) == np.float64(expected_z0).view(np.uint64)
            assert stop == start or np.shares_memory(values, buffer)

    def test_a_window_fill_allocates_no_table(self, monkeypatch):
        # once a worker has filled its first window, a fill draws and forms
        # its weights in the window's own buffers: each allocates less than
        # 64 KiB (whole-array draws allocated about 3 MiB per 32,768 modes)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 1)
        offset_tables, grown = noise._offset_tables, []

        def measured(window, *args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tables = offset_tables(window, *args)
            grown.append(tracemalloc.get_traced_memory()[1] - before)
            return tables

        monkeypatch.setattr(noise, "_offset_tables", measured)
        tracemalloc.start()
        try:
            regularity_probe([-2.0, -0.6, -0.4, 0.0], [32768, 65536, 131072], range(6))
        finally:
            tracemalloc.stop()
        assert len(grown) > 2 and max(grown[1:]) < 64 * 1024, grown


class TestExpectedEnergy:
    def test_s_zero_counts_modes(self):
        for M in (0, 10, 100):
            lat = FrequencyLattice(1, M)
            assert expected_sobolev_energy(lat, 0.0) == 2 * M + 1

    def test_single_mode_lattice(self):
        lat = FrequencyLattice(1, 0)
        for s in (-5.0, 0.0, 3.0):
            assert expected_sobolev_energy(lat, s) == 1.0

    def test_strictly_increasing_in_bandlimit(self):
        values = [expected_sobolev_energy(FrequencyLattice(1, M), -2.0) for M in (4, 8, 16, 32)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_growth_ratio_separates_regularity(self):
        # direct-summation oracle values, frozen:
        #   s = -0.6: (E(16384) - E(8192)) / E(8192) = 0.022059...
        #   s = -0.4: same ratio = 0.173057...
        # (so the 2% cut for s = -0.6 is reached one doubling later, at
        # 2^14 -> 2^15 = 0.018789...; the acceptance suite pins that step)
        for s, frozen in ((-0.6, 0.022059), (-0.4, 0.173057)):
            e1 = expected_sobolev_energy(FrequencyLattice(1, 8192), s)
            e2 = expected_sobolev_energy(FrequencyLattice(1, 16384), s)
            ratio = (e2 - e1) / e1
            assert ratio == pytest.approx(frozen, abs=1e-5)
            assert ratio == pytest.approx(
                (direct_energy_sum(16384, s) - direct_energy_sum(8192, s))
                / direct_energy_sum(8192, s),
                rel=1e-12,
            )

    def test_matches_direct_sum_2d(self):
        lat = FrequencyLattice(2, 20)
        modes = lat.modes().astype(np.float64)
        oracle = float(np.sum((1.0 + np.sum(modes**2, axis=1)) ** -1.3))
        assert expected_sobolev_energy(lat, -1.3) == pytest.approx(oracle, rel=1e-14)


class TestRegularityProbe:
    def test_clear_classifications(self):
        rows = regularity_probe(
            [-2.0, 0.0], bandlimits=[256, 512, 1024, 2048], seeds=[0, 1]
        )
        verdicts = {(row.s, row.trajectory): row.classification for row in rows}
        assert verdicts[(-2.0, "expected")] == "convergent"
        assert verdicts[(0.0, "expected")] == "divergent"
        # sampled trajectories agree at these well-separated exponents
        assert verdicts[(-2.0, "0")] == "convergent"
        assert verdicts[(0.0, "0")] == "divergent"

    def test_near_critical_pair_with_documented_threshold(self):
        # Near s = -1/2 the finite-bandlimit growth ratios of the convergent
        # and divergent sums almost coincide (the s = -0.51 series converges
        # extremely slowly). Frozen oracle ratios at the 8192 -> 16384 step:
        #   s = -0.51: 0.064317...   s = -0.49: 0.079052...
        # so the documented classification threshold 0.072 separates them.
        bandlimits = [2048, 4096, 8192, 16384]
        threshold = 0.072
        rows = regularity_probe(
            [-0.51, -0.49], bandlimits=bandlimits, seeds=[0], growth_threshold=threshold
        )
        expected_rows = {
            (row.s, row.bandlimit): row
            for row in rows
            if row.trajectory == "expected"
        }
        assert expected_rows[(-0.51, 16384)].growth_ratio == pytest.approx(0.064317, abs=1e-5)
        assert expected_rows[(-0.49, 16384)].growth_ratio == pytest.approx(0.079052, abs=1e-5)
        assert expected_rows[(-0.51, 16384)].classification == "convergent"
        assert expected_rows[(-0.49, 16384)].classification == "divergent"

    def test_rows_are_complete(self):
        rows = regularity_probe([-1.0], bandlimits=[8, 16], seeds=[5, 6])
        # one expected + two seed trajectories, two bandlimits each
        assert len(rows) == 6
        first = [row for row in rows if row.bandlimit == 8]
        assert all(row.growth_ratio is None for row in first)

    @pytest.mark.parametrize(
        "dimension,s_values,bandlimits",
        [
            pytest.param(1, [-2.0, -0.6, 0.3], [3, 6, 12, 20], id="1"),
            pytest.param(2, [-2.0, -0.6, 0.3], [3, 6, 12, 20], id="2"),
            # numpy's ** fast paths (reciprocal, ones, sqrt, square) on tables
            # and draws that span several chunks
            pytest.param(1, [-1.0, 0.0, 0.5, 1.0, 2.0], [9000, 50000, 100000], id="1-chunks"),
            pytest.param(2, [-1.0, 0.0, 0.5, 1.0, 2.0], [40, 150, 300], id="2-chunks"),
        ],
    )
    def test_rows_equal_the_masked_sum_composition(self, dimension, s_values, bandlimits):
        # oracle: every (s, trajectory) energy formed from scratch, in row order
        seeds = [0, 7, 2]
        top = FrequencyLattice(dimension, max(bandlimits))
        sq, shells = top.squared_norms(), top.shells()
        oracle = []
        for s in s_values:
            trajectories = [("expected", (1 + sq) ** s)]
            for seed in seeds:
                eps = sample_white_noise(top, seed).coefficients
                trajectories.append((str(seed), (1 + sq) ** s * np.abs(eps) ** 2))
            for label, power in trajectories:
                energies = [float(np.sum(power[shells <= m])) for m in bandlimits]
                ratios = [None] + [(b - a) / a for a, b in zip(energies, energies[1:])]
                oracle += [
                    (s, m, label, energy, ratio)
                    for m, energy, ratio in zip(bandlimits, energies, ratios)
                ]
        rows = regularity_probe(s_values, bandlimits, seeds, dimension=dimension)
        assert [
            (row.s, row.bandlimit, row.trajectory, row.partial_energy, row.growth_ratio)
            for row in rows
        ] == oracle

    # leaves of 128 items: the 1-d balls of 141 and 601 modes and the 2-d
    # lattice of 841 have leaves wholly below the zero mode, one that holds
    # it and leaves above it; a 2-d ball smaller than the lattice is read
    # through index arrays; ball 0 is the zero mode alone
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("dimension,bandlimits", [(1, [0, 1, 70, 300]), (2, [0, 1, 6, 14])])
    def test_mirrored_leaves_sum_like_the_masked_oracle(
        self, monkeypatch, many_cpus, dimension, bandlimits, chunk
    ):
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        kinds = set()
        mirrored = spectral._mirrored

        def recording(half, piece, zero, *args):
            if not isinstance(piece, slice):
                kinds.add("index array")
            else:
                kinds.add("above" if piece.start >= zero else "below" if piece.stop <= zero + 1 else "holds zero")
            return mirrored(half, piece, zero, *args)

        monkeypatch.setattr(noise, "_mirrored", recording)
        self.test_rows_equal_the_masked_sum_composition(dimension, [-2.0, -0.6, 0.3], bandlimits)
        assert kinds == {"above", "below", "holds zero"} | ({"index array"} if dimension == 2 else set())

    @settings(max_examples=25, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        bandlimits=st.lists(st.integers(1, 10), min_size=1, max_size=4, unique=True).map(sorted),
        extra=st.integers(1, 6),
        s_values=st.lists(st.floats(-3, 1), min_size=1, max_size=3, unique=True),
        seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=3, unique=True),
    )
    def test_rows_nest_under_a_larger_bandlimit(
        self, dimension, bandlimits, extra, s_values, seeds
    ):
        # noise draws are nested, so adding a bandlimit leaves the earlier
        # energies and growth ratios bit for bit (the verdicts may change)
        def values(bandlimit_list):
            rows = regularity_probe(s_values, bandlimit_list, seeds, dimension=dimension)
            return {
                (row.s, row.trajectory, row.bandlimit): (row.partial_energy, row.growth_ratio)
                for row in rows
            }

        small = values(bandlimits)
        large = values(bandlimits + [bandlimits[-1] + extra])
        assert small == {key: large[key] for key in small}

    def test_validation(self):
        with pytest.raises(ConfigError):
            regularity_probe([], [8, 16], [0])
        with pytest.raises(ConfigError):
            regularity_probe([-1.0], [], [0])
        with pytest.raises(ConfigError):
            regularity_probe([-1.0], [16, 8], [0])
        with pytest.raises(ConfigError):
            regularity_probe([-1.0], [8, 16], [])


class TestStreamedProbe:
    # in d = 1 the probe forms its weights and each seed's |c|^2 in a window
    # of offsets per worker, over every ball's mirror groups in offset order

    # leaves of 128 items: balls 0, 1 and 60 (121 modes) are one leaf each,
    # ball 70 (141 modes) splits at 64 and 300 (601) and 301 (603) split
    # where 70 does not; in d = 2 ball 5 (121 modes) is one leaf and 6 (169)
    # two, and 14 and 15 split further
    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize(
        "dimension,bandlimits", [(1, [0, 1, 60, 70, 300, 301]), (2, [0, 1, 5, 6, 14, 15])]
    )
    def test_rows_do_not_depend_on_the_split(self, monkeypatch, dimension, bandlimits, chunk, cpus):
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        TestRegularityProbe().test_rows_equal_the_masked_sum_composition(dimension, [-2.0, -0.6, 0.3], bandlimits)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_each_worker_draws_each_canonical_mode_once(self, monkeypatch, cpus):
        # the perfbench probe's balls and leaves at 1/256 of their sizes:
        # drawing each ball on its own would draw (1 + 2 + 4 + 8 + 16) / 16
        # = 1.94 times the top lattice's canonical modes. A worker draws each
        # once; a range it starts, its own or one it takes over, may draw
        # the modes of one group again
        monkeypatch.setattr(spectral, "_CHUNK", 128)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        bandlimits, seeds = [256, 512, 1024, 2048, 4096], [0, 7, 2]
        canonical = FrequencyLattice(1, bandlimits[-1]).zero_index
        drawn, starts = [], []
        pair_values, dispatch = noise._pair_values, spectral._dispatch

        def recording_draw(index, start, stop, *args):
            drawn.append((index, start, stop))
            return pair_values(index, start, stop, *args)

        def recording_dispatch(task, count, size):
            last = {}  # thread -> its last piece: a piece that does not follow it starts a range

            def recorded(i):
                thread = threading.get_ident()
                if last.get(thread) != i - 1:
                    starts.append(i)
                last[thread] = i
                task(i)

            dispatch(recorded, count, size)

        monkeypatch.setattr(noise, "_pair_values", recording_draw)
        monkeypatch.setattr(spectral, "_dispatch", recording_dispatch)
        regularity_probe([-2.0, 0.0], bandlimits, seeds)
        widest = 129  # every group's span: its leaves' 128 offsets and a neighbour's
        for seed in seeds:
            counts = np.zeros(canonical, dtype=int)
            for _, start, stop in filter(lambda draw: draw[0] == seed, drawn):
                counts[start:stop] += 1
            assert counts.min() == 1
            assert counts.sum() <= canonical + (len(starts) - 1) * widest
        if cpus == 1:  # one range: every canonical mode exactly once per seed
            assert len(starts) == 1
