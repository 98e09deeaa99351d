"""Experiment configuration: a flat INI file with typed sections.

Each :class:`ExperimentConfig` field declares its ``[section] key``, parser,
default and range checks once, in its ``dataclasses.field`` metadata. That one
declaration drives parsing, the rejection of unknown sections and keys, the
metadata sidecar and the error messages; README.md tabulates it for users.
Every value the runners consume, defaults included, lands in the metadata
sidecar so runs are reproducible from the recorded parameters alone.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from pathlib import Path

from .errors import ConfigError

__all__ = ["ExperimentConfig", "load_config"]

EXPERIMENTS = ("deblur", "rates", "noise_probe", "gamma")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _list_of(parse):
    return lambda text: tuple(parse(part) for part in text.split(",") if part.strip())


def _one_of(what: str, *options: str) -> tuple:
    message = f"is an unknown {what}; expected one of {', '.join(options)}"
    return (lambda value: value in options), message


# Peak bytes a 1-d run allocates per lattice mode: an upper bound on the
# tracemalloc peak of the perfbench/configs/*.ini runs over their mode count
# (the top bandlimit's for noise_probe). Those runs peak at 14.9 MiB / 524,289
# modes = 29.8 B (deblur_sweep on 2 CPUs, which holds no lattice-sized table:
# its set-up walks the symbol and forms the hat truth a piece at a time, and
# its streamed pass builds every table per piece, so its peak does not grow
# with the lattice), 7.2 MiB / 2,097,153 modes = 3.6 B (noise_probe on 2
# CPUs, whose even tables hold a window of offsets per worker and whose
# workers draw into buffers of their own, so its peak does not grow with the
# lattice) and
# 1.9 MiB / 4,095 modes = 476.8 B (gamma_dense: fixed costs, its five test
# functions, the data and the sweep's per-piece tables, all on the reference
# lattice only; configs/gamma.ini at
# reference_bandlimit 131,072, 262,145 modes, peaks at 164.6 B, 80 B of it
# the five test functions). rates runs the deblur error sweep without noise
# draws, snapshot or certificate, so it takes the deblur figure (a rates run
# on deblur_sweep's lattice peaks at 39.9 B: it holds its hat truth whole).
# A test runs each experiment against these bounds. The bounds stay as set:
# they are upper bounds, and lowering one would move the exit-2 boundary.
_BYTES_PER_MODE = {"deblur": 200, "rates": 200, "noise_probe": 128, "gamma": 616}

# Bytes per mode of one gamma test function, a complex128 field on the
# reference lattice: the gamma memory check adds them for every configured test
# function, on top of the run's figure above.
_BYTES_PER_TEST_FUNCTION_MODE = 16


# Peak bytes a deblur run allocates per plot point (grids, FFTs, the float64
# signal table, CSV and SVG text): the tracemalloc peak of configs/deblur.ini at
# reference_bandlimit 1024 grew 14.8 -> 51.2 MiB from 32,768 to 131,072 plot
# points, 389.1 B each with the hat (380.6 B with a coefficient-file truth),
# rounded up to 8, while the signal rows were Python floats. Since the table
# stays float64, the polylines are formatted a chunk of points at a time and
# signal.csv takes one row of floats at a time, the same runs grow
# 10.4 -> 29.5 MiB (204.0 B each; 13.4 -> 45.5 MiB, 342.7 B, before), and the
# peak is the signal.csv text, so the figure is an upper bound.
_BYTES_PER_PLOT_POINT = 392


def _fits_in_memory(count: int, bytes_each: int) -> bool:
    """Whether ``count`` items of ``bytes_each`` bytes fit in physical memory."""
    return count * bytes_each <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _memory_message(experiment: str) -> str:
    return (
        f"needs (2M+1) * {_BYTES_PER_MODE[experiment]} bytes for a {experiment} run "
        "and exceeds physical memory"
    )


def _at_least(bound: int) -> tuple:
    return (lambda value: value >= bound), f"must be >= {bound}"


def _each(check: tuple) -> tuple:
    holds, message = check
    return (lambda values: all(map(holds, values))), message


def _distinct(item: str) -> tuple:
    # a repeated seed would weigh its draw twice; a repeated order would repeat
    # its rows in the tables and its points in the plots
    return (lambda values: len(set(values)) == len(values)), f"must not repeat {item}"


_POSITIVE = (lambda value: value > 0, "must be positive")
_NONEMPTY = (bool, "must be nonempty")
_PROBE_FITS = (
    lambda value: _fits_in_memory(2 * value + 1, _BYTES_PER_MODE["noise_probe"]),
    _memory_message("noise_probe"),
)
_PLOT_FITS = (
    lambda value: _fits_in_memory(value, _BYTES_PER_PLOT_POINT),
    f"needs {_BYTES_PER_PLOT_POINT} bytes per point for a deblur run and exceeds physical memory",
)


def _key(section: str, key: str, parse, *checks: tuple, default=dataclasses.MISSING):
    return dataclasses.field(
        default=default, metadata={"ini": (section, key), "parse": parse, "checks": checks}
    )


@dataclasses.dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment run; each field is the value of one ``[section] key``."""

    experiment: str = _key("experiment", "name", str, _one_of("experiment name", *EXPERIMENTS))
    operator_kind: str = _key(
        "operator", "kind", str, _one_of("operator kind", "deblur_1d", "power_law"),
        default="deblur_1d",
    )
    operator_exponent: float = _key(  # the order -t; -2.0 for deblur_1d
        "operator", "exponent", _finite,
        (lambda value: value < 0, "must be negative (a smoothing order)"),
        default=-2.0,
    )
    truth_kind: str = _key(
        "truth", "kind", str, _one_of("truth kind", "hat", "coefficients"), default="hat"
    )
    truth_path: str | None = _key("truth", "path", str, default=None)  # coefficients only
    alpha0: float = _key("schedule", "alpha0", _finite, _POSITIVE)
    kappa: float = _key("schedule", "kappa", _finite, _POSITIVE)
    r: float = _key("schedule", "r", _finite, _at_least(0))
    noise_regularity: float = _key("noise", "noise_regularity", _finite, default=-0.6)
    seeds: tuple = _key(
        "noise", "seeds", _list_of(int), _NONEMPTY, _each(_at_least(0)), _distinct("a seed")
    )
    delta_grid: tuple = _key(
        "grids", "delta_grid", _list_of(_finite), _NONEMPTY, _each(_POSITIVE),
        (lambda value: all(b < a for a, b in zip(value, value[1:])), "must be strictly decreasing"),
    )
    s1_list: tuple = _key(
        "grids", "s1_list", _list_of(_finite), _NONEMPTY, _distinct("an order"), default=(-1.5,)
    )
    bandlimit: int = _key("resolution", "bandlimit", int, _at_least(1))
    reference_bandlimit: int = _key("resolution", "reference_bandlimit", int, _at_least(1))
    plot_points: int = _key("resolution", "plot_points", int, _at_least(8), _PLOT_FITS, default=1024)
    probe_s_values: tuple = _key(
        "noise_probe", "s_values", _list_of(_finite), _NONEMPTY, _distinct("an order"),
        default=(-2.0, -0.6, 0.0),
    )
    probe_bandlimits: tuple = _key(
        "noise_probe", "bandlimits", _list_of(int), _NONEMPTY, _each(_at_least(1)), _each(_PROBE_FITS),
        (lambda value: all(b > a for a, b in zip(value, value[1:])), "must be strictly increasing"),
        default=(1024, 2048, 4096, 8192, 16384),
    )
    probe_growth_threshold: float = _key("noise_probe", "growth_threshold", _finite, default=0.02)
    gamma_test_function_count: int = _key(
        "gamma", "test_function_count", int, _at_least(1), default=5
    )
    output_dir: str = _key("output", "dir", str)

    def with_overrides(self, output_dir: str | None = None, seed_offset: int = 0) -> "ExperimentConfig":
        seeds = tuple(seed + seed_offset for seed in self.seeds)
        if any(seed < 0 for seed in seeds):
            raise ConfigError(
                f"--seed-offset {seed_offset} makes seed {min(seeds)} negative; "
                "[noise] seeds must stay >= 0"
            )
        return dataclasses.replace(
            self,
            output_dir=output_dir if output_dir is not None else self.output_dir,
            seeds=seeds,
        )

    def to_metadata(self) -> dict:
        """Every consumed parameter, defaults included, keyed by INI section and key."""
        meta: dict = {}
        for field in dataclasses.fields(self):
            section, key = field.metadata["ini"]
            value = getattr(self, field.name)
            meta.setdefault(section, {})[key] = list(value) if isinstance(value, tuple) else value
        meta["experiment"] = self.experiment  # the sidecar records the name flat
        return meta


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with path.open() as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    fields = dataclasses.fields(ExperimentConfig)
    known: dict = {}
    for field in fields:
        section, key = field.metadata["ini"]
        known.setdefault(section, set()).add(key)
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = set(parser.options(section)) - known[section]
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)} in section [{section}]")

    values = {}
    for field in fields:
        section, key = field.metadata["ini"]
        if parser.has_option(section, key):
            try:
                raw = parser.get(section, key)
                value = field.metadata["parse"](raw)
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"{path}: [{section}] {key}: invalid value: {exc}") from exc
        elif field.default is not dataclasses.MISSING:
            value = field.default
        else:
            raise ConfigError(f"{path}: missing required key [{section}] {key}")
        for holds, message in field.metadata["checks"]:
            if not holds(value):
                raise ConfigError(f"{path}: [{section}] {key} {message}, got {value!r}")
        values[field.name] = value

    # rules that tie one key to another
    if values["operator_kind"] == "deblur_1d" and values["operator_exponent"] != -2.0:
        raise ConfigError(f"{path}: [operator] exponent: deblur_1d has fixed exponent -2.0")
    if values["operator_kind"] == "power_law" and not parser.has_option("operator", "exponent"):
        raise ConfigError(f"{path}: missing required key [operator] exponent")
    if values["truth_kind"] != "coefficients":
        values["truth_path"] = None
    elif values["truth_path"] is None:
        raise ConfigError(f"{path}: missing required key [truth] path")
    if values["experiment"] == "gamma" and values["r"] <= 0:
        raise ConfigError(
            f"{path}: [schedule] r must be positive for a gamma run, whose sweep needs "
            f"a spectral penalty, got {values['r']!r}"
        )
    bandlimit, reference = values["bandlimit"], values["reference_bandlimit"]
    if reference < 4 * bandlimit:
        raise ConfigError(
            f"{path}: [resolution] reference_bandlimit must be at least 4 * bandlimit "
            f"({4 * bandlimit}), got {reference}"
        )
    if not _fits_in_memory(2 * reference + 1, _BYTES_PER_MODE[values["experiment"]]):
        raise ConfigError(
            f"{path}: [resolution] reference_bandlimit {_memory_message(values['experiment'])}, "
            f"got {reference}"
        )
    count = values["gamma_test_function_count"]
    if count > 2 * reference + 1:
        raise ConfigError(
            f"{path}: [gamma] test_function_count must be at most 2 * reference_bandlimit + 1 "
            f"({2 * reference + 1}), got {count}"
        )
    if values["experiment"] == "gamma" and not _fits_in_memory(
        2 * reference + 1, _BYTES_PER_MODE["gamma"] + _BYTES_PER_TEST_FUNCTION_MODE * count
    ):
        raise ConfigError(
            f"{path}: [gamma] test_function_count needs (2M+1) * {_BYTES_PER_TEST_FUNCTION_MODE} "
            "bytes per test function on top of a gamma run and exceeds physical memory, "
            f"got {count}"
        )
    return ExperimentConfig(**values)
