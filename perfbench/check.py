"""Output check: compare a run's CSV tables and metadata.json numerically with
the reference outputs stored under ``perfbench/reference/``.

A number agrees with its reference value ``b`` when

    |a - b| <= REL_TOL * |b| + SCALE_TOL * scale + floor

where ``scale`` is the largest reference magnitude in the same CSV column, or
under the same metadata key pattern (numeric keys and list positions folded
together), and ``floor`` is nonzero only for the columns in ``ABS_FLOOR``. A
reordered summation moves results by about 1e-12 relative and passes; a wrong
answer moves them by far more and fails. Text cells must match exactly.

The reference was made at ``DEFAULT_SEED``. A run at another seed draws other
noise: there the noise-dependent columns and keys only have to be of the same
kind as the reference (finite number, empty or text), seed columns must equal
the reference seeds shifted by the seed difference, and every other value
must match the reference as above.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1e-9
SCALE_TOL = 1e-10
# gaps that are differences of nearly equal O(0.1) objective values and
# pairings, so their reference values sit at round-off level (~1e-17)
ABS_FLOOR = {("gamma.csv", "pairing_gap"): 1e-14, ("gamma.csv", "functional_gap"): 1e-14}

# per experiment: CSV columns and metadata keys whose values depend on the noise draws
NOISE_DEPENDENT = {
    "deblur": {
        "errors.csv": {"raw_error", "normalized_error"},
        "signal.csv": {"data", "reconstruction"},
        "divergence.csv": {"lower_bound", "h1_norm_sq"},
        "metadata.json": {
            "derived.normalizers",
            "derived.fitted_slopes",
            "derived.divergence.min_max_ratio_median",
        },
    },
    "noise_probe": {"probe.csv": {"partial_energy", "growth_ratio", "classification"}},
    "gamma": {
        "gamma.csv": {"functional_gap", "c_k"},
        "metadata.json": {
            "derived.continuum_objective",
            "derived.ball_radius_by_n",
            "derived.minimizer_hr_norm_by_n",
        },
    },
}
# per experiment: CSV columns and metadata keys that hold seeds. A CSV row
# whose seed cell is not an integer ("expected", the noise-free trajectory)
# has no noise-dependent cells.
SEED_FIELDS = {
    "deblur": {
        "errors.csv": {"seed"},
        "divergence.csv": {"seed"},
        "metadata.json": {"parameters.noise.seeds", "derived.signal_seed"},
    },
    "noise_probe": {"probe.csv": {"seed_or_expected"}, "metadata.json": {"parameters.noise.seeds"}},
    "gamma": {"metadata.json": {"parameters.noise.seeds", "derived.noise_seed"}},
    "rates": {"metadata.json": {"parameters.noise.seeds"}},
}
MANIFEST = "FILES"  # names of every file a run writes, SVG plots included
MAX_PROBLEMS = 10


def check_outputs(out_dir: Path, ref_dir: Path, experiment: str, shift: int) -> list:
    """Problems found in ``out_dir`` against ``ref_dir``; empty when it passes.

    ``shift`` is the run's seed minus the reference seed.
    """
    expected = (ref_dir / MANIFEST).read_text().split()
    written = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if written != expected:
        return [f"wrote {written}, expected {expected}"]
    problems = []
    for ref_path in sorted(ref_dir.iterdir()):
        if ref_path.name == MANIFEST:
            continue
        noisy = NOISE_DEPENDENT.get(experiment, {}).get(ref_path.name, set()) if shift else set()
        seeds = SEED_FIELDS.get(experiment, {}).get(ref_path.name, set())
        compare = _compare_json if ref_path.suffix == ".json" else _compare_csv
        found = compare(out_dir / ref_path.name, ref_path, noisy, seeds, shift)
        problems += [f"{ref_path.name}: {problem}" for problem in found[:MAX_PROBLEMS]]
    return problems


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _is_int(text) -> bool:
    try:
        int(text)
    except (TypeError, ValueError):
        return False
    return True


def _mismatch(value, reference, scale: float, floor: float = 0.0):
    a, b = _number(value), _number(reference)
    if a is None or b is None or isinstance(value, bool) or isinstance(reference, bool):
        return None if value == reference else f"{value!r} != reference {reference!r}"
    if a == b or (math.isnan(a) and math.isnan(b)):
        return None
    if abs(a - b) <= REL_TOL * abs(b) + SCALE_TOL * scale + floor:
        return None
    return f"{value!r} differs from reference {reference!r}"


def _same_kind(value, reference) -> bool:
    a, b = _number(value), _number(reference)
    if b is None:
        return (value == "") == (reference == "") and a is None
    return a is not None and (math.isfinite(a) or not math.isfinite(b))


def _scale(values) -> float:
    numbers = [abs(x) for x in map(_number, values) if x is not None and math.isfinite(x)]
    return max(numbers, default=0.0)


def _read_csv(path: Path) -> list:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def _compare_csv(path: Path, ref_path: Path, noisy: set, seeds: set, shift: int) -> list:
    rows, ref = _read_csv(path), _read_csv(ref_path)
    if not rows or rows[0] != ref[0]:
        return [f"header {rows[:1]} != reference {ref[0]}"]
    if len(rows) != len(ref):
        return [f"{len(rows) - 1} rows, reference has {len(ref) - 1}"]
    header = ref[0]
    scales = [_scale(column) for column in zip(*ref[1:])]
    seed_index = [i for i, name in enumerate(header) if name in seeds]
    problems = []
    for number, (row, ref_row) in enumerate(zip(rows[1:], ref[1:]), start=1):
        if len(row) != len(header):
            problems.append(f"row {number} has {len(row)} cells")
            continue
        noisy_row = all(_is_int(ref_row[i]) for i in seed_index)
        for i, name in enumerate(header):
            if name in seeds and _is_int(ref_row[i]):
                expected = str(int(ref_row[i]) + shift)
                problem = None if row[i] == expected else f"{row[i]!r} != {expected!r}"
            elif noisy_row and name in noisy:
                like = _same_kind(row[i], ref_row[i])
                problem = None if like else f"{row[i]!r} is not like {ref_row[i]!r}"
            else:
                floor = ABS_FLOOR.get((path.name, name), 0.0)
                problem = _mismatch(row[i], ref_row[i], scales[i], floor)
            if problem:
                problems.append(f"row {number} {name}: {problem}")
    if path.name == "divergence.csv":
        problems += _certificate_violations(rows)
    return problems


def _certificate_violations(rows: list) -> list:
    """The H^1 norm of the filtered noise dominates its pinch-band lower bound."""
    header = rows[0]
    low, norm = header.index("lower_bound"), header.index("h1_norm_sq")
    problems = []
    for number, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            continue
        bound, value = _number(row[low]), _number(row[norm])
        if bound is None or value is None or not value >= bound * (1 - REL_TOL):
            problems.append(f"row {number}: h1_norm_sq {row[norm]} below lower_bound {row[low]}")
    return problems


def _flatten(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _flatten(value, path + (str(key),))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _flatten(value, path + (str(index),))
    else:
        yield ".".join(path), node


def _pattern(key: str) -> str:
    return ".".join("*" if _number(part) is not None else part for part in key.split("."))


def _under(key: str, names: set) -> bool:
    return any(key == name or key.startswith(name + ".") for name in names)


def _compare_json(path: Path, ref_path: Path, noisy: set, seeds: set, shift: int) -> list:
    try:
        values = dict(_flatten(json.loads(path.read_text())))
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    ref = dict(_flatten(json.loads(ref_path.read_text())))
    if sorted(values) != sorted(ref):
        return [f"keys differ: {sorted(set(values) ^ set(ref))}"]
    scales: dict = {}
    for key, value in ref.items():
        number = _number(value)
        if number is not None and math.isfinite(number) and not isinstance(value, bool):
            scales[_pattern(key)] = max(scales.get(_pattern(key), 0.0), abs(number))
    problems = []
    for key, expected in ref.items():
        value = values[key]
        if _under(key, seeds):
            problem = None if value == expected + shift else f"{value!r} != {expected + shift!r}"
        elif _under(key, noisy):
            problem = None if _same_kind(value, expected) else f"{value!r} is not like {expected!r}"
        else:
            problem = _mismatch(value, expected, scales.get(_pattern(key), 0.0))
        if problem:
            problems.append(f"{key}: {problem}")
    return problems
