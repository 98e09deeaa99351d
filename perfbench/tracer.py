"""Spans and computed work counters around tikhtorus's public functions,
installed from outside the package.

``Tracer.install()`` replaces each target function wherever the loaded
``tikhtorus`` modules bind it: module globals, dicts held in module globals
(such as the experiment dispatch table) and class attributes. ``uninstall()``
puts every original back. A span's self time is its duration minus the
duration of the traced spans it encloses. Work counters are computed from
argument sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

_COMPLEX_BYTES = 16


def _modes(name: str):
    """Work counter: mode count of the lattice reached through argument ``name``."""

    def count(args: dict) -> dict:
        value = args[name]
        while not hasattr(value, "mode_count"):
            value = value.lattice if hasattr(value, "lattice") else value.data
        return {"modes": value.mode_count}

    return count


def _field_bytes(args: dict) -> dict:
    # the copy reads and writes the array once; the exact Hermitian check
    # writes and reads a reversed conjugate and reads the array once more
    field = args["self"]
    passes = 2 + (3 if field.hermitian else 0)
    return {"bytes_computed": passes * _COMPLEX_BYTES * field.lattice.mode_count}


def _noise_draw(args: dict) -> dict:
    lattice = args["lattice"]
    pairs = (lattice.mode_count + 1) // 2
    return {
        "modes": lattice.mode_count,
        "variates": 2 * pairs,
        "draw": (int(args["seed"]), lattice.dimension, lattice.bandlimit),
    }


def _dense_solve(args: dict) -> dict:
    # gram A^T A (2kn^2) + L^T L (2n^3) + A^T m (2kn) + Cholesky (n^3/3)
    # + triangular solves (2n^2) + residual product (2n^2)
    n, k = args["problem"].n, args["problem"].k
    flops = 2 * k * n * n + 2 * n**3 + 2 * k * n + n**3 // 3 + 4 * n * n
    return {"n_max": n, "flops_computed": flops}


def _sweep_solves(args: dict) -> dict:
    return {"solves": len(args["delta_grid"]) * len(args["seeds"])}


# (module, attribute, span name, work counter); each function is traced at
# every binding of the same object, and __rmul__ shares __mul__'s function
TARGETS = (
    ("tikhtorus.config", "load_config", "config.load_config", None),
    ("tikhtorus.signals", "hat_coefficients", "signals.hat_coefficients", _modes("lattice")),
    ("tikhtorus.spectral", "SpectralField.__post_init__", "spectral.SpectralField", _field_bytes),
    ("tikhtorus.spectral", "SpectralField.__add__", "spectral.SpectralField.arith", None),
    ("tikhtorus.spectral", "SpectralField.__sub__", "spectral.SpectralField.arith", None),
    ("tikhtorus.spectral", "SpectralField.__mul__", "spectral.SpectralField.arith", None),
    ("tikhtorus.spectral", "sobolev_norm", "spectral.sobolev_norm", _modes("field")),
    ("tikhtorus.spectral", "sobolev_weights", "spectral.sobolev_weights", None),
    (
        "tikhtorus.spectral",
        "MultiplierOperator.symbol_values",
        "spectral.MultiplierOperator.symbol_values",
        None,
    ),
    ("tikhtorus.spectral", "apply_multiplier", "spectral.apply_multiplier", None),
    ("tikhtorus.spectral", "check_ellipticity", "spectral.check_ellipticity", None),
    ("tikhtorus.spectral", "truncate", "spectral.truncate", None),
    ("tikhtorus.spectral", "evaluate_on_grid", "spectral.evaluate_on_grid", None),
    ("tikhtorus.noise", "sample_white_noise", "noise.sample_white_noise", _noise_draw),
    ("tikhtorus.noise", "regularity_probe", "noise.regularity_probe", None),
    ("tikhtorus.tikhonov", "forward", "tikhonov.forward", _modes("truth")),
    ("tikhtorus.tikhonov", "solve_split", "tikhonov.solve_split", _modes("meas")),
    ("tikhtorus.tikhonov", "solve", "tikhonov.solve", None),
    ("tikhtorus.rates", "error_sweep", "rates.error_sweep", _sweep_solves),
    ("tikhtorus.rates", "h1_divergence", "rates.h1_divergence", None),
    ("tikhtorus.rates", "calibrate_band", "rates.calibrate_band", None),
    ("tikhtorus.rates", "fit_loglog_slope", "rates.fit_loglog_slope", None),
    ("tikhtorus.discrete", "assemble", "discrete.assemble", None),
    ("tikhtorus.discrete", "solve_discrete", "discrete.solve_discrete", _dense_solve),
    ("tikhtorus.discrete", "gamma_sweep", "discrete.gamma_sweep", None),
    ("tikhtorus.discrete", "field_to_coords", "discrete.field_to_coords", None),
    ("tikhtorus.discrete", "coords_to_field", "discrete.coords_to_field", None),
    ("tikhtorus.experiments", "run_deblur", "experiments.run_deblur", None),
    ("tikhtorus.experiments", "run_rates", "experiments.run_rates", None),
    ("tikhtorus.experiments", "run_noise_probe", "experiments.run_noise_probe", None),
    ("tikhtorus.experiments", "run_gamma", "experiments.run_gamma", None),
    ("tikhtorus.svgplot", "line_plot", "svgplot.line_plot", None),
)
MAX_COUNTERS = {"n_max"}  # counters that keep their largest value instead of a sum


class Tracer:
    """Per-span call counts, self times and work counters for one process."""

    def __init__(self) -> None:
        self.spans: dict = {}
        self.draws: set = set()
        self._open: list = []  # enclosed-span time accumulated per open span
        self._patches: list = []  # (setter, owner, attribute, original)

    def _wrap(self, function, name: str, work):
        stats = self.spans.setdefault(name, {"calls": 0, "self_s": 0.0})
        signature = inspect.signature(function) if work else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            outer_start = time.perf_counter()
            if work:
                for key, value in work(signature.bind(*args, **kwargs).arguments).items():
                    if key == "draw":
                        self.draws.add(value)
                    elif key in MAX_COUNTERS:
                        stats[key] = max(stats.get(key, 0), value)
                    else:
                        stats[key] = stats.get(key, 0) + value
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stats["calls"] += 1
                stats["self_s"] += elapsed - self._open.pop()
                if self._open:
                    self._open[-1] += time.perf_counter() - outer_start

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, attribute, name, work in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            wrappers[id(original)] = (original, self._wrap(original, name, work))
        for module_name, module in sorted(sys.modules.items()):
            if module_name == "tikhtorus" or module_name.startswith("tikhtorus."):
                self._rebind(vars(module), module, setattr, wrappers)

    def _rebind(self, namespace, owner, setter, wrappers) -> None:
        for attribute, value in list(namespace.items()):
            found = wrappers.get(id(value))
            if found and found[0] is value:
                self._patches.append((setter, owner, attribute, value))
                setter(owner, attribute, found[1])
            elif isinstance(attribute, str) and attribute.startswith("__"):
                continue
            elif isinstance(value, dict):
                self._rebind(value, value, dict.__setitem__, wrappers)
            elif isinstance(value, type) and value.__module__.startswith("tikhtorus"):
                self._rebind(dict(vars(value)), value, setattr, wrappers)

    def uninstall(self) -> None:
        while self._patches:
            setter, owner, attribute, original = self._patches.pop()
            setter(owner, attribute, original)

    def report(self) -> dict:
        return {"spans": self.spans, "distinct_draws": len(self.draws)}
