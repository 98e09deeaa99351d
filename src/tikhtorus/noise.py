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
bytes depend neither on the CPU count nor on the chunk size. In d = 1 any
span of lattice positions can be drawn the same way, on its own, with the
bytes of the whole draw (``_draw_span``); a deblur run streams its draws so.

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
needs |c(l)|^2, which is even in l, as are its weights (1+|l|^2)^s. So it
keeps each table on half the lattice, at the offsets k = p - zero from the
zero mode up; a draw writes |c|^2 once per conjugate pair, at offset k + 1
for canonical mode k in d = 1 and through the layout in d = 2. Each
truncation is summed as a slice of the lattice (``spectral._kernel_sums``,
which the gamma sweep uses too), not a mask. Its leaves come in mirror
groups, and the probe sums each leaf of a group on its own, reading the
half tables at the leaf's positions, in its order (``spectral._mirrored``),
so the sums are those of the whole tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ParameterError
from .spectral import (
    FrequencyLattice, SpectralField, _as_index, _half_sobolev_weights, _kernel_sums, _map_chunks, _mirrored,
    finite_sobolev_weights,
)

__all__ = [
    "sample_white_noise",
    "expected_sobolev_energy",
    "regularity_probe",
    "ProbeRow",
]


@lru_cache(maxsize=64)
def _draw_layout(bandlimit: int) -> np.ndarray:
    """The offsets p - zero_index of the canonical positions p of a 2-d
    lattice in draw order, (shell, enumeration index), cached per bandlimit.
    In d = 1 canonical mode k sits at offset k + 1, and no layout is built."""
    lattice = FrequencyLattice(2, bandlimit)
    first = lattice.zero_index + 1  # canonical modes sit after the zero mode
    offsets = 1 + np.argsort(lattice.shells()[first:], kind="stable")
    offsets.setflags(write=False)
    return offsets


def _box_muller(uniforms: np.ndarray) -> tuple:
    """The cos and sin halves of the Box-Muller normals: z[2j] and z[2j+1]."""
    u1 = uniforms[0::2]
    u2 = uniforms[1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def _seed_index(seed) -> int:
    """``seed`` as an int, or a ParameterError unless it is a non-negative
    integer."""
    index = _as_index(seed)
    if index is None or index < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return index


def _pair_values(index: int, start: int, stop: int) -> tuple:
    """The values of the canonical modes [start, stop) in draw order, and
    z[2 start]: 1 + 2n variates in n + 1 Box-Muller pairs, z[0] the zero mode,
    then (z[2k+1], z[2k+2]) = (sin half k, cos half k+1) for canonical mode
    k. The modes [start, stop) read pairs start..stop, the uniforms
    [2 start, 2 stop + 2) of the stream, which their own PCG64 reaches with
    ``advance(2 start)``: ``random()`` takes one 64-bit output per double."""
    bit_generator = np.random.PCG64(index)
    bit_generator.advance(2 * int(start))  # PCG64.advance refuses numpy integers
    uniforms = np.random.Generator(bit_generator).random(2 * (stop - start + 1))
    cos_half, sin_half = _box_muller(uniforms)
    return (sin_half[:-1] + 1j * cos_half[1:]) / np.sqrt(2.0), cos_half[0]


def _draw_chunks(lattice: FrequencyLattice, seed: int, store: Callable) -> float:
    """Draw one realization chunk by chunk: ``store(offsets, values)``
    receives the values at a run of canonical modes in draw order
    (:func:`_pair_values`) and their offsets p - zero_index from the zero
    mode, a slice in d = 1 and a slice of :func:`_draw_layout` in d = 2; the
    zero-mode variate is returned. The conjugate of the mode at offset k
    sits at offset -k."""
    index = _seed_index(seed)
    layout = _draw_layout(lattice.bandlimit) if lattice.dimension == 2 else None

    def draw(start: int, stop: int) -> None:
        offsets = slice(start + 1, stop + 1) if layout is None else layout[start:stop]
        store(offsets, _pair_values(index, start, stop)[0])

    _map_chunks(draw, lattice.zero_index)  # one canonical mode per conjugate pair
    return _pair_values(index, 0, 0)[1]


def _draw_span(lattice: FrequencyLattice, seed: int, start: int, stop: int) -> np.ndarray:
    """``sample_white_noise(lattice, seed).coefficients[start:stop]`` of a
    d = 1 lattice, drawn directly, with no layout and no field: above the
    zero mode, position p holds canonical mode p - zero - 1; below it, the
    canonical modes are mirrored and conjugated. One run of canonical modes
    covers both sides."""
    index = _seed_index(seed)
    zero = lattice.zero_index
    if stop <= zero:  # the canonical modes the span reads
        first, end = zero - stop, zero - start
    elif start > zero:
        first, end = start - zero - 1, stop - zero - 1
    else:
        first, end = 0, max(zero - start, stop - zero - 1)
    values, z0 = _pair_values(index, first, end)
    span = np.empty(stop - start, dtype=np.complex128)
    below = max(0, min(stop, zero) - start)  # positions start .. start + below - 1
    if below:
        span[:below] = values[zero - start - below - first : zero - start - first][::-1].conj()
    above = max(0, stop - max(start, zero + 1))  # positions stop - above .. stop - 1
    if above:
        span[stop - start - above :] = values[stop - zero - 1 - above - first : stop - zero - 1 - first]
    if start <= zero < stop:
        span[zero - start] = z0
    return span


def sample_white_noise(lattice: FrequencyLattice, seed: int) -> SpectralField:
    """Draw one realization of normalized white noise on the lattice, as a
    read-only field.

    Every basis pairing <W, e_l> has mean 0 and E|<W, e_l>|^2 = 1; the field
    is real-valued (Hermitian flag set). Deterministic given (seed, lattice);
    a seed that is not a non-negative integer raises ParameterError.
    """
    coeffs = np.zeros(lattice.mode_count, dtype=np.complex128)
    zero = lattice.zero_index
    canonical, conjugate = coeffs[zero:], coeffs[zero::-1]  # offset k at zero + k and zero - k

    def store(offsets, values: np.ndarray) -> None:
        canonical[offsets] = values
        conjugate[offsets] = values.conj()

    coeffs[zero] = _draw_chunks(lattice, seed, store)
    return SpectralField(lattice, coeffs, hermitian=True)


def _half_power(lattice: FrequencyLattice, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """|c(l)|^2 of ``sample_white_noise(lattice, seed)`` at the positions
    zero_index, zero_index + 1, ... (offset k at index k), the half table of
    an even quantity that ``spectral._mirrored`` reads, without the field and
    written to ``out`` when given: |c| once per conjugate pair, and the zero
    mode's |z0|^2 as z0 * z0."""
    power = np.empty(lattice.zero_index + 1) if out is None else out

    def store(offsets, values: np.ndarray) -> None:
        power[offsets] = np.abs(values) ** 2

    z0 = _draw_chunks(lattice, seed, store)
    power[0] = z0 * z0
    return power


def expected_sobolev_energy(lattice: FrequencyLattice, s: float) -> float:
    """E ||W||_{H^s}^2 truncated to the lattice: sum_l (1+|l|^2)^s.

    Strictly increasing in the bandlimit; the limit M -> infinity is finite
    exactly when s < -d/2, which is what the regularity probe exploits.
    Weights that overflow raise a ParameterError naming s.
    """
    return float(np.sum(finite_sobolev_weights(lattice, s, f"the expected H^s energy at s = {s:g}")))


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

    Every table the probe sums is even in l, so it keeps each one on half
    the lattice, at the positions from the zero mode up: the
    ``(1+|l|^2)^s`` weights (``spectral._half_sobolev_weights``, filled like
    the ``sobolev_weights`` tables) and one |c|^2 table reused across
    the seeds, which each seed's canonical draw of the top lattice fills
    once per conjugate pair, chunk by chunk across the CPUs, with no field
    built. Each truncation is summed by ``spectral._kernel_sums``, whose
    docstring states the summation rule; its kernel loops over the leaves
    of each mirror group, reading each from the half tables through
    ``spectral._mirrored`` in the ball's own order, so the energies equal
    those of ``sample_white_noise(top, seed)`` summed over ``shells <= m``
    bit for bit, and the "expected" row that of the whole weight table.
    """
    if len(s_values) == 0 or len(bandlimits) == 0 or len(seeds) == 0:
        raise ConfigError("regularity_probe needs nonempty s_values, bandlimits, seeds")
    if any(b2 <= b1 for b1, b2 in zip(bandlimits, bandlimits[1:])):
        raise ConfigError("bandlimits must be strictly increasing")

    top = FrequencyLattice(dimension, max(bandlimits))
    zero = top.zero_index
    if dimension == 2:  # the layout's temporaries come and go before the tables exist
        _draw_layout(top.bandlimit)

    # (s, trajectory, bandlimit)
    energies = np.empty((len(s_values), 1 + len(seeds), len(bandlimits)))
    with np.errstate(over="ignore"):
        weights = [_half_sobolev_weights(top, s) for s in s_values]

        def energy_sums(power: np.ndarray | None) -> np.ndarray:
            """The (s, bandlimit) sums of (1+|l|^2)^s times |c(l)|^2 from a
            half ``power`` table, or times 1 (an exact copy) for None."""

            def piece_sums(piece) -> np.ndarray:
                factor = 1.0 if power is None else _mirrored(power, piece, zero)
                return np.array([np.sum(np.multiply(_mirrored(w, piece, zero), factor)) for w in weights])

            return np.transpose(_kernel_sums(top, lambda span, pieces: [piece_sums(p) for p in pieces], bandlimits))

        energies[:, 0] = energy_sums(None)
        power = np.empty(zero + 1)
        for j, seed in enumerate(seeds, start=1):
            energies[:, j] = energy_sums(_half_power(top, seed, out=power))
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
