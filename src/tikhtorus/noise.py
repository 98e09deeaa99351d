"""Seeded frequency-space sampling of Gaussian white noise, plus the
deterministic energy sums used to probe its Sobolev regularity.

A draw is a read-only Hermitian ``SpectralField`` of Fourier coefficients, in
H^s only for s < -d/2; noise-free pipelines pass ``zero_field`` instead. The
draw is filled in a scratch array and built by the field constructor like
any other field: the symmetry is checked on the scratch array, which is then
copied and frozen.

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

A draw is computed in chunks of canonical modes, spread over one thread per
CPU of the process's affinity by ``spectral._map_chunks``. Each chunk builds
its own ``PCG64(seed)`` and moves it to its first uniform with
``PCG64.advance``; ``random()`` takes exactly one 64-bit output per double,
so a chunk reads the same uniforms as one whole-stream call would, and the
bytes depend neither on the CPU count nor on the chunk size.

Draw order and nesting
----------------------
Coefficients are assigned in shells of increasing max-norm; within a shell,
lattice enumeration order. The zero mode consumes one variate (real,
variance 1); every other conjugate pair is represented by its canonical
member (first nonzero component positive) and consumes two variates. In the
lexicographic enumeration the canonical modes are exactly the positions after
the zero mode's, and their conjugates the positions before it, mirrored (the
conjugate of position p is ``mode_count - 1 - p``)::

    c(l) = (z_a + i z_b) / sqrt(2),     c(-l) = conj(c(l))

so Re/Im are independent N(0, 1/2) and E|c(l)|^2 = 1 for every mode. Since
a lattice with a smaller bandlimit is exactly the first shells of a larger
one, refining the bandlimit extends a realization instead of resampling it:
``truncate(sample(M_big), M_small)`` equals ``sample(M_small)`` bit for bit.

The regularity probe reads the same draw without building a field: it only
needs |c(l)|^2, which is one value per conjugate pair, and it sums each
truncation as a slice of the lattice (:func:`spectral.ball`), not a mask. Its
weights are the shared :func:`spectral.sobolev_weights` tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ParameterError
from .spectral import FrequencyLattice, SpectralField, _as_index, _map_chunks, ball, sobolev_weights

__all__ = [
    "sample_white_noise",
    "expected_sobolev_energy",
    "regularity_probe",
    "ProbeRow",
]


@lru_cache(maxsize=64)
def _draw_layout(dimension: int, bandlimit: int) -> np.ndarray:
    """Canonical-mode positions sorted by (shell, enumeration index), cached
    per lattice signature. The conjugate of position p is mode_count - 1 - p."""
    lattice = FrequencyLattice(dimension, bandlimit)
    first = lattice.zero_index + 1  # canonical modes sit after the zero mode
    canonical_sorted = first + np.argsort(lattice.shells()[first:], kind="stable")
    canonical_sorted.setflags(write=False)
    return canonical_sorted


def _box_muller(uniforms: np.ndarray) -> tuple:
    """The cos and sin halves of the Box-Muller normals: z[2j] and z[2j+1]."""
    u1 = uniforms[0::2]
    u2 = uniforms[1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def _draw_chunks(lattice: FrequencyLattice, seed: int, store: Callable) -> float:
    """Draw one realization chunk by chunk: ``store(canonical, conjugate,
    values)`` receives the values at a run of canonical modes in draw order
    and their lattice positions; the zero-mode variate is returned.

    1 + 2n variates in n + 1 Box-Muller pairs: z[0] is the zero mode, then
    (z[2k+1], z[2k+2]) = (sin half k, cos half k+1) for canonical mode k. The
    chunk of modes [a, b) reads pairs a..b, the uniforms [2a, 2b+2) of the
    stream, which its own PCG64 reaches with ``advance(2a)``: ``random()``
    takes one 64-bit output per double."""
    index = _as_index(seed)
    if index is None or index < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    canonical = _draw_layout(lattice.dimension, lattice.bandlimit)
    last = lattice.mode_count - 1

    def uniforms(start: int, count: int) -> np.ndarray:
        bit_generator = np.random.PCG64(index)
        bit_generator.advance(2 * start)
        return np.random.Generator(bit_generator).random(count)

    def draw(start: int, stop: int) -> None:
        cos_half, sin_half = _box_muller(uniforms(start, 2 * (stop - start + 1)))
        values = (sin_half[:-1] + 1j * cos_half[1:]) / np.sqrt(2.0)
        positions = canonical[start:stop]
        store(positions, last - positions, values)

    _map_chunks(draw, canonical.size)
    return _box_muller(uniforms(0, 2))[0][0]


def sample_white_noise(lattice: FrequencyLattice, seed: int) -> SpectralField:
    """Draw one realization of normalized white noise on the lattice, as a
    read-only field.

    Every basis pairing <W, e_l> has mean 0 and E|<W, e_l>|^2 = 1; the field
    is real-valued (Hermitian flag set). Deterministic given (seed, lattice);
    a seed that is not a non-negative integer raises ParameterError.
    """
    coeffs = np.zeros(lattice.mode_count, dtype=np.complex128)

    def store(canonical: np.ndarray, conjugate: np.ndarray, values: np.ndarray) -> None:
        coeffs[canonical] = values
        coeffs[conjugate] = values.conj()

    coeffs[lattice.zero_index] = _draw_chunks(lattice, seed, store)
    return SpectralField(lattice, coeffs, hermitian=True)


def _draw_power(lattice: FrequencyLattice, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """|c(l)|^2 of ``sample_white_noise(lattice, seed)`` per mode, without the
    field, written to ``out`` when given: |c| is computed once per conjugate
    pair (hypot ignores the sign of the imaginary part), and the zero mode's
    |z0|^2 is z0 * z0."""
    power = np.empty(lattice.mode_count) if out is None else out

    def store(canonical: np.ndarray, conjugate: np.ndarray, values: np.ndarray) -> None:
        pair_power = np.abs(values) ** 2
        power[canonical] = pair_power
        power[conjugate] = pair_power

    z0 = _draw_chunks(lattice, seed, store)
    power[lattice.zero_index] = z0 * z0
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
    The weights are the shared ``sobolev_weights(top, s)`` tables. The |c|^2
    table, reused across the seeds, and the ``w * |c|^2`` product, reused
    across the seeds and s, are allocated once and filled chunk by chunk
    across the CPUs. The partial sums stay whole-array sums on the calling
    thread.
    """
    if len(s_values) == 0 or len(bandlimits) == 0 or len(seeds) == 0:
        raise ConfigError("regularity_probe needs nonempty s_values, bandlimits, seeds")
    if any(b2 <= b1 for b1, b2 in zip(bandlimits, bandlimits[1:])):
        raise ConfigError("bandlimits must be strictly increasing")

    top = FrequencyLattice(dimension, max(bandlimits))
    # the layout's temporaries come and go before the tables exist
    _draw_layout(dimension, top.bandlimit)
    size = top.mode_count

    def partial_sums(table: np.ndarray) -> list:
        return [np.sum(ball(top, table, m).ravel()) for m in bandlimits]

    def multiply(w: np.ndarray, power: np.ndarray, out: np.ndarray) -> np.ndarray:
        def kernel(start: int, stop: int) -> None:
            np.multiply(w[start:stop], power[start:stop], out=out[start:stop])

        _map_chunks(kernel, size)
        return out

    # (s, trajectory, bandlimit)
    energies = np.empty((len(s_values), 1 + len(seeds), len(bandlimits)))
    with np.errstate(over="ignore"):
        weights = [sobolev_weights(top, s) for s in s_values]
        energies[:, 0] = [partial_sums(w) for w in weights]
        power, product = np.empty(size), np.empty(size)
        for j, seed in enumerate(seeds, start=1):
            _draw_power(top, seed, out=power)
            for i, w in enumerate(weights):
                energies[i, j] = partial_sums(multiply(w, power, product))
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
