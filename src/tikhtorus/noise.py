"""Seeded frequency-space sampling of Gaussian white noise, plus the
deterministic energy sums used to probe its Sobolev regularity.

A draw is a plain read-only Hermitian ``SpectralField`` of Fourier coefficients,
in H^s only for s < -d/2; noise-free pipelines pass ``zero_field`` instead.

Reproducibility contract
------------------------
Streams come from ``numpy.random.PCG64(seed)``; the only consumption is
``Generator.random()`` (uniform doubles), which numpy keeps stable across
platforms and releases. Normal variates use the classic Box-Muller
transform on consecutive uniform pairs::

    z[2j]   = sqrt(-2 log(1 - u[2j])) * cos(2 pi u[2j+1])
    z[2j+1] = sqrt(-2 log(1 - u[2j])) * sin(2 pi u[2j+1])

(``1 - u`` keeps the logarithm finite since ``random()`` can return 0; it is
evaluated as ``log1p(-u[2j])``).
Bit-identical output for a given (seed, lattice) is part of the public
contract and is pinned by tests.

Draw order and nesting
----------------------
Coefficients are assigned in shells of increasing max-norm; within a shell,
lattice enumeration order. The zero mode consumes one variate (real,
variance 1); every other conjugate pair is represented by its canonical
member (first nonzero component positive) and consumes two variates::

    c(l) = (z_a + i z_b) / sqrt(2),     c(-l) = conj(c(l))

so Re/Im are independent N(0, 1/2) and E|c(l)|^2 = 1 for every mode. Since
a lattice with a smaller bandlimit is exactly the first shells of a larger
one, refining the bandlimit extends a realization instead of resampling it:
``truncate(sample(M_big), M_small)`` equals ``sample(M_small)`` bit for bit.

The regularity probe reads the same draw without building a field: it only
needs |c(l)|^2, which is one value per conjugate pair, and it sums each
truncation as a slice of the lattice (:func:`spectral.ball`), not a mask.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ParameterError
from .spectral import FrequencyLattice, SpectralField, ball, sobolev_weights

__all__ = [
    "sample_white_noise",
    "expected_sobolev_energy",
    "regularity_probe",
    "ProbeRow",
]


@lru_cache(maxsize=64)
def _draw_layout(dimension: int, bandlimit: int) -> tuple:
    """Canonical-mode positions sorted by (shell, enumeration index), plus
    their conjugate positions. Cached per lattice signature."""
    lattice = FrequencyLattice(dimension, bandlimit)
    modes = lattice.modes()
    shells = lattice.shells()
    first_nonzero = np.zeros(lattice.mode_count, dtype=np.int64)
    seen = np.zeros(lattice.mode_count, dtype=bool)
    for axis in range(dimension):
        component = modes[:, axis]
        fresh = (~seen) & (component != 0)
        first_nonzero[fresh] = component[fresh]
        seen |= fresh
    canonical = first_nonzero > 0
    order = np.argsort(shells, kind="stable")
    canonical_sorted = order[canonical[order]]
    conjugate_sorted = lattice.mode_count - 1 - canonical_sorted
    canonical_sorted.setflags(write=False)
    conjugate_sorted.setflags(write=False)
    return canonical_sorted, conjugate_sorted


def _box_muller(uniforms: np.ndarray) -> tuple:
    """The cos and sin halves of the Box-Muller normals: z[2j] and z[2j+1]."""
    u1 = uniforms[0::2]
    u2 = uniforms[1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def _canonical_draw(lattice: FrequencyLattice, seed: int) -> tuple:
    """The draw of one realization before it becomes a field: the zero-mode
    variate, the values at the canonical modes in draw order, and the layout
    ``(canonical, conjugate)`` of their lattice positions."""
    try:
        index = operator.index(seed)
    except TypeError:  # a float, a string, None
        index = -1
    if index < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    layout = _draw_layout(lattice.dimension, lattice.bandlimit)
    n = layout[0].size
    # 1 + 2n variates in n + 1 Box-Muller pairs: z[0] is the zero mode, then
    # (z[2k+1], z[2k+2]) = (sin half k, cos half k+1) for canonical mode k
    rng = np.random.Generator(np.random.PCG64(index))
    cos_half, sin_half = _box_muller(rng.random(2 * (n + 1)))
    values = (sin_half[:n] + 1j * cos_half[1 : n + 1]) / np.sqrt(2.0)
    return cos_half[0], values, layout


def sample_white_noise(lattice: FrequencyLattice, seed: int) -> SpectralField:
    """Draw one realization of normalized white noise on the lattice, as a
    read-only field.

    Every basis pairing <W, e_l> has mean 0 and E|<W, e_l>|^2 = 1; the field
    is real-valued (Hermitian flag set). Deterministic given (seed, lattice);
    a seed that is not a non-negative integer raises ParameterError.
    """
    # allocated before the draw's temporaries: in the other order the glibc
    # heap layout gives a configs/deblur.ini run about three times the minor
    # page faults (26.5k against 8.3k), for 1 MiB less peak RSS
    coeffs = np.zeros(lattice.mode_count, dtype=np.complex128)
    z0, values, (canonical, conjugate) = _canonical_draw(lattice, seed)
    coeffs[lattice.zero_index] = z0
    coeffs[canonical] = values
    coeffs[conjugate] = values.conj()
    return SpectralField._owned(lattice, coeffs, hermitian=True)


def _draw_power(lattice: FrequencyLattice, seed: int) -> np.ndarray:
    """|c(l)|^2 of ``sample_white_noise(lattice, seed)`` per mode, without the
    field: |c| is computed once per conjugate pair (hypot ignores the sign of
    the imaginary part), and the zero mode's |z0|^2 is z0 * z0."""
    z0, values, (canonical, conjugate) = _canonical_draw(lattice, seed)
    power = np.empty(lattice.mode_count)
    power[lattice.zero_index] = z0 * z0
    pair_power = np.abs(values) ** 2
    power[canonical] = pair_power
    power[conjugate] = pair_power
    return power


def expected_sobolev_energy(lattice: FrequencyLattice, s: float) -> float:
    """E ||W||_{H^s}^2 truncated to the lattice: sum_l (1+|l|^2)^s.

    Strictly increasing in the bandlimit; the limit M -> infinity is finite
    exactly when s < -d/2, which is what the regularity probe exploits.
    """
    return float(np.sum(sobolev_weights(lattice, s)))


class ProbeRow(NamedTuple):
    s: float
    bandlimit: int
    trajectory: str  # "expected" or the seed as text
    partial_energy: float
    growth_ratio: float | None
    classification: str


def _classify(energies: Sequence[float], threshold: float) -> tuple:
    ratios: list[float | None] = [None]
    for previous, current in zip(energies, energies[1:]):
        ratios.append((current - previous) / previous)
    final = ratios[-1] if len(energies) > 1 else None
    label = "convergent" if (final is not None and final < threshold) else "divergent"
    return ratios, label


def regularity_probe(
    s_values: Sequence[float],
    bandlimits: Sequence[int],
    seeds: Sequence[int],
    dimension: int = 1,
    growth_threshold: float = 0.02,
) -> list[ProbeRow]:
    """Monte-Carlo regularity scan: partial H^s energies of sampled noise at
    increasing truncations, next to the deterministic expectation.

    A trajectory is classified convergent when its final growth ratio
    (relative increase over the last bandlimit step) falls below
    ``growth_threshold``; with doubling bandlimits the default 0.02 means
    "under 2% per doubling". The thresholded verdict is a finite-sample
    proxy, so the rows keep the raw ratios for inspection. A partial energy
    that overflows raises ParameterError naming s and the bandlimit.

    Each seed's |c(l)|^2 comes from the canonical draw of the top lattice,
    with no field built; the energies equal those of
    ``sample_white_noise(top, seed)`` summed over ``shells <= m`` bit for bit.
    """
    if len(s_values) == 0 or len(bandlimits) == 0 or len(seeds) == 0:
        raise ConfigError("regularity_probe needs nonempty s_values, bandlimits, seeds")
    if any(b2 <= b1 for b1, b2 in zip(bandlimits, bandlimits[1:])):
        raise ConfigError("bandlimits must be strictly increasing")

    top = FrequencyLattice(dimension, max(bandlimits))
    weights_sq = 1.0 + top.squared_norms()

    def partial_sums(table: np.ndarray) -> list:
        return [np.sum(ball(top, table, m).ravel()) for m in bandlimits]

    # (s, trajectory, bandlimit); one draw's power table is alive at a time
    energies = np.empty((len(s_values), 1 + len(seeds), len(bandlimits)))
    with np.errstate(over="ignore"):
        weights = [weights_sq**s for s in s_values]
        energies[:, 0] = [partial_sums(w) for w in weights]
        for j, seed in enumerate(seeds, start=1):
            power = _draw_power(top, seed)
            for i, w in enumerate(weights):
                energies[i, j] = partial_sums(w * power)
            del power
    if not np.isfinite(energies).all():
        i, _, k = np.argwhere(~np.isfinite(energies))[0]
        raise ParameterError(
            f"partial H^s energy is not finite at s = {s_values[i]:g}, "
            f"bandlimit = {bandlimits[k]} ([noise_probe] s_values)"
        )

    rows: list[ProbeRow] = []
    for s, table in zip(s_values, energies.tolist()):
        for label, trajectory in zip(["expected", *map(str, seeds)], table):
            ratios, verdict = _classify(trajectory, growth_threshold)
            rows.extend(
                ProbeRow(float(s), int(bandlimit), label, energy, ratio, verdict)
                for bandlimit, energy, ratio in zip(bandlimits, trajectory, ratios)
            )
    return rows
