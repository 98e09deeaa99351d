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
forms each table at the offsets k = p - zero from the zero mode up, |c|^2
once per conjugate pair: canonical mode k sits at offset k + 1 in d = 1 and
through the layout in d = 2. Each truncation is summed as a slice of the
lattice (``spectral._kernel_sums``, which the gamma sweep uses too), not a
mask. Its leaves come in mirror groups, and the probe sums each leaf of a
group on its own, reading the tables at the leaf's positions, in its order
(``spectral._mirrored``), so the sums are those of the whole tables. In
d = 1 the tables hold only a window of offsets per worker thread, which
follows the groups of every ball in offset order and draws each offset
once (``_offset_tables``); so no table spans the lattice, and every
trajectory is summed in one pass. In d = 2 a ball's leaves are scattered
through the draw layout, and the tables hold half the lattice.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ParameterError
from .spectral import (
    FrequencyLattice, SpectralField, _as_index, _half_sobolev_weights, _kernel_sums, _map_chunks, _mirrored,
    _mode_weights, finite_sobolev_weights,
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


def _offset_tables(window, s_values: Sequence[float], indices: Sequence[int], first: int, end: int) -> tuple:
    """The (1+|l|^2)^s weights of each s, then the |c|^2 of each seed's draw
    (its index), of a d = 1 lattice at the offsets first..end-1 from the zero
    mode, as the rows of one table, and the offset of its first column.

    The table is ``window``'s (a ``threading.local``, so each thread has its
    own), which keeps the offsets of the last call: a call inside them forms
    nothing, one that starts inside them moves the held offsets from
    ``first`` on to the front of the buffer and fills only the rest, and
    any other fills all of its offsets. So a thread that asks in order of
    ``first`` forms each offset's values once; the buffer grows to the
    widest span asked for, and is reused. Per offset the values are those of the half tables: the
    weights with the arithmetic of ``spectral._half_sobolev_weights``
    (``_mode_weights``), |c|^2 drawn by :func:`_pair_values` and squared as
    :func:`_half_power` squares it."""
    tables = getattr(window, "tables", np.empty((len(s_values) + len(indices), 0)))
    start, stop = getattr(window, "span", (0, 0))
    if start <= first and end <= stop:
        return tables, start
    kept = max(0, stop - first) if start <= first else 0  # the offsets first..stop-1 are held
    fresh = tables if end - first <= tables.shape[1] else np.empty((len(tables), end - first))
    fresh[:, :kept] = tables[:, first - start : first - start + kept]
    new = first + kept
    for row, s in zip(fresh, s_values):
        row[kept : end - first] = _mode_weights(np.arange(new, end)[:, None], s)
    for row, index in zip(fresh[len(s_values) :], indices):
        values, z0 = _pair_values(index, max(new - 1, 0), end - 1)  # canonical mode k at offset k + 1
        row[max(new, 1) - first : end - first] = np.abs(values) ** 2
        if new == 0:
            row[0] = z0 * z0
    window.tables, window.span = fresh, (first, end)
    return fresh, first


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
    proxy, so the rows keep the raw ratios for inspection. A threshold that
    is not finite, which would label every row alike, and a partial energy
    that overflows raise ParameterError, the latter naming s and the
    bandlimit.

    Every table the probe sums is even in l: the ``(1+|l|^2)^s`` weights and
    each seed's |c|^2, drawn from the top lattice's canonical modes with no
    field built. Each truncation is summed by ``spectral._kernel_sums``,
    whose docstring states the summation rule; its kernel loops over the
    leaves of each mirror group, reading each from tables that hold the
    group's offsets from the zero mode through ``spectral._mirrored``, in
    the ball's own order. In d = 1 the tables are a window per worker
    (:func:`_offset_tables`): ``_kernel_sums`` hands each worker its groups,
    of every ball, in offset order, so the window forms each offset's weights
    and draws once and every trajectory is summed in the one pass. In d = 2
    they are half tables, the weights and one |c|^2 table reused across the
    seeds, a pass per trajectory. Either way the energies equal those of
    ``sample_white_noise(top, seed)`` summed over ``shells <= m`` bit for
    bit, and the "expected" row that of the whole weight table.
    """
    if len(s_values) == 0 or len(bandlimits) == 0 or len(seeds) == 0:
        raise ConfigError("regularity_probe needs nonempty s_values, bandlimits, seeds")
    if any(b2 <= b1 for b1, b2 in zip(bandlimits, bandlimits[1:])):
        raise ConfigError("bandlimits must be strictly increasing")
    if not math.isfinite(growth_threshold):
        raise ParameterError(f"growth_threshold must be finite, got {growth_threshold!r}")
    indices = [_seed_index(seed) for seed in seeds]

    top = FrequencyLattice(dimension, max(bandlimits))
    zero = top.zero_index
    if dimension == 2:  # the layout's temporaries come and go before the tables exist
        _draw_layout(top.bandlimit)

    def piece_sums(piece, first: int, weights, powers) -> np.ndarray:
        """np.sum of (1+|l|^2)^s times |c(l)|^2 over ``piece``, per weight
        table and, within it, per |c|^2 table or, for None, times 1 (an
        exact copy): the tables hold the offsets first, first + 1, ..."""
        factors = [1.0 if power is None else _mirrored(power, piece, zero, first) for power in powers]
        sums = []
        for w in weights:
            w = _mirrored(w, piece, zero, first)
            sums += [np.sum(np.multiply(w, factor)) for factor in factors]
        return np.array(sums)

    def energy_sums(kernel) -> np.ndarray:
        """The (s, trajectory, bandlimit) sums of the kernel's piece sums."""
        return np.transpose(_kernel_sums(top, kernel, bandlimits)).reshape(len(s_values), -1, len(bandlimits))

    with np.errstate(over="ignore"):
        if dimension == 1:
            window = threading.local()

            def kernel(span: slice, pieces: list) -> list:
                tables, first = _offset_tables(window, s_values, indices, span.start - zero, span.stop - zero)
                weights, powers = tables[: len(s_values)], [None, *tables[len(s_values) :]]
                return [piece_sums(piece, first, weights, powers) for piece in pieces]

            energies = energy_sums(kernel)
        else:
            weights = [_half_sobolev_weights(top, s) for s in s_values]
            power = np.empty(zero + 1)
            energies = np.empty((len(s_values), 1 + len(seeds), len(bandlimits)))
            for j, seed in enumerate([None, *seeds]):
                powers = [None if seed is None else _half_power(top, seed, out=power)]
                energies[:, j : j + 1] = energy_sums(
                    lambda span, pieces: [piece_sums(piece, 0, weights, powers) for piece in pieces]
                )
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
