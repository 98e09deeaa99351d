"""Plateau signal: closed-form coefficients against quadrature oracles."""

import numpy as np
import pytest

from tikhtorus import signals, spectral
from tikhtorus import (
    ConfigError,
    DimensionError,
    FrequencyLattice,
    evaluate_on_grid,
    hat_coefficients,
    hat_values,
    load_coefficient_file,
    sobolev_norm,
    truncate,
)


def test_mean_value_is_exact():
    # oracle: exact piecewise integration, plateau 0.2 plus two ramps of 0.05
    lattice = FrequencyLattice(1, 16)
    field = hat_coefficients(lattice)
    assert field.coefficients[lattice.zero_index] == pytest.approx(0.3, abs=1e-15)


def test_hermitian_symmetry():
    field = hat_coefficients(FrequencyLattice(1, 64))
    assert field.hermitian  # verified exactly at construction


def test_pointwise_values_away_from_kinks():
    M = 512
    points = 2048
    field = hat_coefficients(FrequencyLattice(1, M))
    synthesized = evaluate_on_grid(field, points)
    x = np.arange(points) / points
    exact = hat_values(x)
    kinks = np.array([0.3, 0.4, 0.6, 0.7])
    away = np.min(np.abs(x[:, None] - kinks[None, :]), axis=1) > 0.02
    # partial sums of an H^1 function converge like 1/M away from kinks
    assert np.max(np.abs(synthesized - exact)[away]) < 10.0 / M


def test_l2_energy_approaches_quadrature_oracle():
    x = np.linspace(0.0, 1.0, 1_000_001)
    oracle = np.trapezoid(hat_values(x) ** 2, x)  # = 4/15
    assert oracle == pytest.approx(4.0 / 15.0, abs=1e-9)
    deficits = []
    for M in (64, 256, 1024):
        norm_sq = sobolev_norm(hat_coefficients(FrequencyLattice(1, M)), 0.0) ** 2
        assert norm_sq < oracle  # truncation only removes energy
        deficits.append(oracle - norm_sq)
    assert deficits[2] < deficits[1] < deficits[0]
    assert deficits[2] < 1e-8


def test_h1_norm_finite_and_stable():
    norms = [
        sobolev_norm(hat_coefficients(FrequencyLattice(1, M)), 1.0) for M in (256, 512, 1024)
    ]
    assert norms[2] == pytest.approx(norms[1], rel=1e-3)
    assert norms[1] == pytest.approx(norms[0], rel=2e-3)


def test_dimension_error():
    with pytest.raises(DimensionError):
        hat_coefficients(FrequencyLattice(2, 8))


class TestCoefficientFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("# mode, re, im\n0,1.5,0\n2,0.25,-0.5\n")
        lattice = FrequencyLattice(1, 4)
        field = load_coefficient_file(path, lattice)
        assert field.hermitian
        assert field.coefficients[lattice.index_of([0])] == 1.5
        assert field.coefficients[lattice.index_of([2])] == 0.25 - 0.5j
        assert field.coefficients[lattice.index_of([-2])] == 0.25 + 0.5j
        assert field.coefficients[lattice.index_of([1])] == 0

    @pytest.mark.parametrize(
        "content",
        [
            "0,1.0\n",          # wrong arity
            "0,abc,0\n",        # not a number
            "-1,1.0,0\n",       # negative mode listed
            "9,1.0,0\n",        # outside bandlimit
            "0,1.0,0.5\n",      # complex mean
            "1,nan,0\n",        # non-finite real part
            "1,0,inf\n",        # non-finite imaginary part
        ],
    )
    def test_rejects_malformed(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ConfigError):
            load_coefficient_file(path, FrequencyLattice(1, 4))


def hat_parts(lattice):
    """Parts of the lattice positions: one mode long (at both ends and
    around the zero mode), below the zero mode, above it, straddling it, and
    the whole lattice."""
    zero, count = lattice.zero_index, lattice.mode_count
    ones = [(p, p + 1) for p in (0, zero - 1, zero, zero + 1, count - 1)]
    below = [(0, zero), (zero // 3, zero)]
    above = [(zero + 1, count), (zero + 1, count - zero // 3)]
    straddling = [(zero // 2, count - zero // 3), (0, count)]
    return sorted({(start, stop) for start, stop in ones + below + above + straddling if 0 <= start < stop <= count})


@pytest.mark.parametrize("bandlimit", [1, 2, 5, 300, 40000, 262144])
def test_spans_equal_the_whole_table(bandlimit):
    # a deblur run reads its hat truth a span at a time, with no table; each
    # span, and the snapshot's hat on its plot band, has the table's bits
    lattice = FrequencyLattice(1, bandlimit)
    whole = hat_coefficients(lattice).coefficients
    for start, stop in hat_parts(lattice):
        assert signals._Hat(lattice).span(start, stop).tobytes() == whole[start:stop].tobytes(), (start, stop)
    band = bandlimit // 3
    assert hat_coefficients(FrequencyLattice(1, band)).coefficients.tobytes() == truncate(
        hat_coefficients(lattice), band
    ).coefficients.tobytes()


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("bandlimit", [5, 300])
def test_small_chunks_and_blocks_keep_the_bits(monkeypatch, bandlimit, chunk):
    # the table is filled a chunk at a time and each span a block at a time:
    # neither split moves a bit
    lattice = FrequencyLattice(1, bandlimit)
    whole = hat_coefficients(lattice).coefficients
    monkeypatch.setattr(spectral, "_CHUNK", chunk)
    monkeypatch.setattr(signals, "_HAT_BLOCK", chunk)
    assert hat_coefficients(lattice).coefficients.tobytes() == whole.tobytes()
    for start, stop in hat_parts(lattice):
        assert signals._Hat(lattice).span(start, stop).tobytes() == whole[start:stop].tobytes(), (start, stop)
