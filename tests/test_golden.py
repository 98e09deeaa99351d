"""Golden outputs: the four shipped configs, and the deblur and noise-probe
benchmark configs, run through the CLI against the reference outputs stored
in perfbench/reference."""

import csv
import json
from pathlib import Path

import pytest

from tikhtorus.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference" / "shipped_configs"
REL_TOL = 1e-12
# gaps that are differences of nearly equal objective values and pairings,
# so their reference values sit at round-off level
ABS_FLOOR = {("gamma.csv", "pairing_gap"): 1e-14, ("gamma.csv", "functional_gap"): 1e-14}
SKIPPED = {("parameters", "output", "dir")}  # the run writes to its own directory
# tables that equal their reference files byte for byte; gamma.csv keeps the
# tolerance, because its gaps sit at round-off level
BYTE_EQUAL = {
    ("deblur", "errors.csv"),
    ("deblur", "divergence.csv"),
    ("deblur", "signal.csv"),
    ("rates", "errors.csv"),
    ("rates", "slopes.csv"),
    ("noise_probe", "probe.csv"),
}


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def assert_close(value, reference, where, floor=0.0):
    a, b = _number(value), _number(reference)
    if a is None or b is None:
        assert value == reference, where
    else:
        assert a == pytest.approx(b, rel=REL_TOL, abs=floor, nan_ok=True), where


def assert_json_close(value, reference, where=()):
    if where in SKIPPED:
        return
    if isinstance(reference, dict):
        assert isinstance(value, dict) and sorted(value) == sorted(reference), where
        for key in reference:
            assert_json_close(value[key], reference[key], where + (key,))
    elif isinstance(reference, list):
        assert isinstance(value, list) and len(value) == len(reference), where
        for index, (item, ref_item) in enumerate(zip(value, reference)):
            assert_json_close(item, ref_item, where + (index,))
    else:
        assert_close(value, reference, where)


def read_csv(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


@pytest.mark.parametrize("name", ["deblur", "gamma", "noise_probe", "rates"])
def test_shipped_config_matches_reference(tmp_path, name):
    reference = REFERENCE / name
    out = tmp_path / name
    config = ROOT / "configs" / f"{name}.ini"
    assert main([name.replace("_", "-"), "--config", str(config), "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == (reference / "FILES").read_text().split()

    for ref_path in sorted(reference.glob("*.csv")):
        if (name, ref_path.name) in BYTE_EQUAL:
            assert (out / ref_path.name).read_bytes() == ref_path.read_bytes(), ref_path.name
            continue
        rows, ref_rows = read_csv(out / ref_path.name), read_csv(ref_path)
        assert rows[0] == ref_rows[0], ref_path.name
        assert len(rows) == len(ref_rows), ref_path.name
        for number, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
            assert len(row) == len(ref_row), (ref_path.name, number)
            for column, cell, ref_cell in zip(ref_rows[0], row, ref_row):
                floor = ABS_FLOOR.get((ref_path.name, column), 0.0)
                assert_close(cell, ref_cell, (ref_path.name, number, column), floor)

    metadata = json.loads((out / "metadata.json").read_text())
    assert_json_close(metadata, json.loads((reference / "metadata.json").read_text()))


@pytest.mark.parametrize(
    "workload, experiment, tables",
    [
        ("deblur_sweep", "deblur", ("errors.csv", "divergence.csv", "signal.csv")),
        ("noise_probe", "noise_probe", ("probe.csv",)),
    ],
    ids=["deblur_sweep", "noise_probe"],
)
def test_deblur_sweep_tables_equal_the_reference_bytes(tmp_path, workload, experiment, tables):
    # 524,289 modes (2,097,153 for the probe): the chunked kernels and draws
    # run in many pieces (the sweep's last one a single mode) across the
    # CPUs, and the tables keep the reference bytes
    config = ROOT / "perfbench" / "configs" / f"{workload}.ini"
    reference = ROOT / "perfbench" / "reference" / workload / experiment
    assert main([experiment.replace("_", "-"), "--config", str(config), "--out", str(tmp_path)]) == 0
    for name in tables:
        assert (tmp_path / name).read_bytes() == (reference / name).read_bytes(), name
