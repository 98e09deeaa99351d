"""Test signals for the 1-d experiments: the piecewise-linear plateau ("hat")
target and loading of user-supplied coefficient files.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError
from .spectral import FrequencyLattice, SpectralField, _conjugated

__all__ = ["hat_values", "hat_coefficients", "load_coefficient_file"]

# breakpoints of the plateau signal: zero outside (0.3, 0.7), ramps up on
# (0.3, 0.4), flat 1 on [0.4, 0.6], ramps down on (0.6, 0.7)
_RAMP_UP = (0.3, 0.4)
_RAMP_DOWN = (0.6, 0.7)


def hat_values(x: np.ndarray) -> np.ndarray:
    """Pointwise values of the plateau signal on [0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    up = (x > _RAMP_UP[0]) & (x < _RAMP_UP[1])
    flat = (x >= _RAMP_UP[1]) & (x <= _RAMP_DOWN[0])
    down = (x > _RAMP_DOWN[0]) & (x < _RAMP_DOWN[1])
    out = np.zeros_like(x)
    out[up] = 10.0 * x[up] - 3.0
    out[flat] = 1.0
    out[down] = -10.0 * x[down] + 7.0
    return out


# offsets per block of _hat_offsets: 64 KiB of complex temporaries, which
# malloc serves from its heap, where a table-sized one is mapped afresh
_HAT_BLOCK = 4096


def _hat_offsets(first: int, end: int, out: np.ndarray) -> np.ndarray:
    """The plateau signal's coefficients c(l) at l = first .. end - 1, first
    >= 0, written into ``out`` ``_HAT_BLOCK`` offsets at a time and
    returned: the one spelling of the closed form of
    :func:`hat_coefficients`. It is elementwise, so any run of offsets gets
    the bits of the whole table there."""
    if first == 0:
        out[0] = 0.3
    for start in range(max(first, 1), end, _HAT_BLOCK):
        l = np.arange(start, min(end, start + _HAT_BLOCK), dtype=np.float64)
        e = [np.exp(-2j * np.pi * l * a) for a in (0.3, 0.4, 0.6, 0.7)]  # E(a) at the four breakpoints
        np.divide(-10.0 * (e[0] - e[1] - e[2] + e[3]), 4.0 * np.pi**2 * l**2, out=out[start - first :][: l.size])
    return out


def hat_coefficients(lattice: FrequencyLattice) -> SpectralField:
    """Closed-form Fourier coefficients of the plateau signal.

    The signal is continuous and piecewise linear with derivative +-10 on the
    ramps, so integrating by parts once gives, for l != 0,

        c(l) = -10 (E(0.3) - E(0.4) - E(0.6) + E(0.7)) / (2 pi l)^2,
        E(a) = exp(-2 pi i l a),

    and c(0) = 0.3 (plateau 0.2 plus two ramp areas of 0.05). Computing the
    coefficients in closed form instead of sampling avoids aliasing from the
    kinks; negative modes are mirrored explicitly so Hermitian symmetry is
    exact. The table is the span of :class:`_Hat` over the whole lattice:
    each l >= 0 is formed once (:func:`_hat_offsets`), and its mirror is its
    conjugate.
    """
    if lattice.dimension != 1:
        raise DimensionError("the plateau signal is one-dimensional")
    return SpectralField(lattice, _Hat(lattice).span(0, lattice.mode_count), hermitian=True)


class _Hat(NamedTuple):
    """The plateau signal on a 1-d ``lattice`` as a source of its
    coefficients, with no table: :meth:`span` forms them on a run of
    positions with the bits of :func:`hat_coefficients` there. It stands for
    that field where a reader takes a span at a time: a deblur run's truth
    (``rates.SweepTables``, ``spectral._sobolev_norm``)."""

    lattice: FrequencyLattice
    hermitian: bool = True

    def span(self, start: int, stop: int) -> np.ndarray:
        """The coefficients at the positions [start, stop), as a fresh array:
        the offsets from the zero mode they cover, mirrored and conjugated
        below it (``spectral._conjugated``)."""
        zero = self.lattice.zero_index
        first, end = max(start - zero, zero + 1 - stop, 0), max(stop - zero, zero + 1 - start)
        half = _hat_offsets(first, end, np.empty(end - first, dtype=np.complex128))
        return _conjugated(half, slice(start, stop), zero, first)


def load_coefficient_file(path: str | Path, lattice: FrequencyLattice) -> SpectralField:
    """Read a custom real signal from a CSV of rows ``ell,re,im``.

    Only modes ell >= 0 may appear; negative modes are filled by conjugation.
    Unlisted modes are zero. The imaginary part at ell = 0 must be zero, and
    every value must be finite. The file must be UTF-8 text.
    """
    if lattice.dimension != 1:
        raise DimensionError("coefficient files are one-dimensional")
    coeffs = np.zeros(lattice.mode_count, dtype=np.complex128)
    center = lattice.zero_index
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file ({exc})") from exc
    for line_number, row in enumerate(rows, start=1):
        if not row or row[0].lstrip().startswith("#"):
            continue
        if len(row) != 3:
            raise ConfigError(f"{path}:{line_number}: expected 'ell,re,im', got {row!r}")
        try:
            ell = int(row[0])
            value = complex(float(row[1]), float(row[2]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_number}: {exc}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"{path}:{line_number}: re and im must be finite, got {row!r}")
        if ell < 0:
            raise ConfigError(
                f"{path}:{line_number}: list modes ell >= 0 only; "
                "negative modes are filled by conjugation"
            )
        if ell > lattice.bandlimit:
            raise ConfigError(
                f"{path}:{line_number}: mode {ell} exceeds bandlimit {lattice.bandlimit}"
            )
        if ell == 0:
            if value.imag != 0.0:
                raise ConfigError(f"{path}:{line_number}: mode 0 must be real")
            coeffs[center] = value.real
        else:
            coeffs[center + ell] = value
            coeffs[center - ell] = value.conjugate()
    return SpectralField(lattice, coeffs, hermitian=True)
