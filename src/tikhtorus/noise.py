"""Seeded frequency-space sampling of Gaussian white noise, plus the
deterministic energy sums used to probe its Sobolev regularity.

Reproducibility contract
------------------------
Streams come from ``numpy.random.PCG64(seed)``; the only consumption is
``Generator.random()`` (uniform doubles), which numpy keeps stable across
platforms and releases. Normal variates use the classic Box-Muller
transform on consecutive uniform pairs::

    z[2j]   = sqrt(-2 log(1 - u[2j])) * cos(2 pi u[2j+1])
    z[2j+1] = sqrt(-2 log(1 - u[2j])) * sin(2 pi u[2j+1])

(``1 - u`` keeps the logarithm finite since ``random()`` can return 0).
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
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, ParameterError
from .spectral import FrequencyLattice, SpectralField, sobolev_weights, truncate

__all__ = [
    "NoiseRealization",
    "sample_white_noise",
    "zero_noise",
    "expected_sobolev_energy",
    "regularity_probe",
    "ProbeRow",
]


@dataclasses.dataclass(frozen=True, eq=False)
class NoiseRealization:
    """A sampled white-noise field together with its provenance.

    ``seed is None`` marks synthetic realizations (e.g. the zero field used
    for noise-free pipelines) that did not come from the sampler.
    """

    seed: int | None
    field: SpectralField

    @property
    def lattice(self) -> FrequencyLattice:
        return self.field.lattice


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
    order = np.lexsort((np.arange(lattice.mode_count), shells))
    canonical_sorted = order[canonical[order]]
    conjugate_sorted = lattice.mode_count - 1 - canonical_sorted
    canonical_sorted.setflags(write=False)
    conjugate_sorted.setflags(write=False)
    return canonical_sorted, conjugate_sorted


def _box_muller(uniforms: np.ndarray) -> np.ndarray:
    u1 = uniforms[0::2]
    u2 = uniforms[1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(uniforms.size, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out


def sample_white_noise(lattice: FrequencyLattice, seed: int) -> NoiseRealization:
    """Draw one realization of normalized white noise on the lattice.

    Every basis pairing <W, e_l> has mean 0 and E|<W, e_l>|^2 = 1; the field
    is real-valued (Hermitian flag set). Deterministic given (seed, lattice).
    """
    canonical, conjugate = _draw_layout(lattice.dimension, lattice.bandlimit)
    total = 1 + 2 * canonical.size
    pairs = (total + 1) // 2
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    normals = _box_muller(rng.random(2 * pairs))
    coeffs = np.zeros(lattice.mode_count, dtype=np.complex128)
    coeffs[lattice.zero_index] = normals[0]
    if canonical.size:
        re = normals[1 : total : 2]
        im = normals[2 : total + 1 : 2]
        values = (re + 1j * im) / np.sqrt(2.0)
        coeffs[canonical] = values
        coeffs[conjugate] = values.conj()
    field = SpectralField._owned(lattice, coeffs, hermitian=True)
    return NoiseRealization(seed=int(seed), field=field)


def zero_noise(lattice: FrequencyLattice) -> NoiseRealization:
    """The zero realization, for noise-free pipelines."""
    coeffs = np.zeros(lattice.mode_count, dtype=np.complex128)
    return NoiseRealization(seed=None, field=SpectralField(lattice, coeffs, hermitian=True))


def expected_sobolev_energy(lattice: FrequencyLattice, s: float) -> float:
    """E ||W||_{H^s}^2 truncated to the lattice: sum_l (1+|l|^2)^s.

    Strictly increasing in the bandlimit; the limit M -> infinity is finite
    exactly when s < -d/2, which is what the regularity probe exploits.
    """
    return float(np.sum(sobolev_weights(lattice, s)))


@dataclasses.dataclass(frozen=True)
class ProbeRow:
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
    """
    if len(s_values) == 0 or len(bandlimits) == 0 or len(seeds) == 0:
        raise ConfigError("regularity_probe needs nonempty s_values, bandlimits, seeds")
    if any(b2 <= b1 for b1, b2 in zip(bandlimits, bandlimits[1:])):
        raise ConfigError("bandlimits must be strictly increasing")

    top = FrequencyLattice(dimension, max(bandlimits))
    shells = top.shells()
    inside = [shells <= m for m in bandlimits]
    weights_sq = 1.0 + top.squared_norms()
    # (s, trajectory, bandlimit); one noise realization is alive at a time
    energies = np.empty((len(s_values), 1 + len(seeds), len(bandlimits)))
    with np.errstate(over="ignore"):
        weights = [weights_sq**s for s in s_values]
        energies[:, 0] = [[np.sum(w[mask]) for mask in inside] for w in weights]
        for j, seed in enumerate(seeds, start=1):
            power = np.abs(sample_white_noise(top, seed).field.coefficients) ** 2
            for i, w in enumerate(weights):
                weighted = w * power
                energies[i, j] = [np.sum(weighted[mask]) for mask in inside]
            del power, weighted
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
