"""Trace safety: the tracer restores every binding, traced runs write the
same bytes as untraced ones, and computed counts repeat exactly."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tikhtorus
import tikhtorus.cli
import tikhtorus.experiments
import tikhtorus.rates
import tikhtorus.spectral
from run import END_TO_END, PER_LAYER, ROOT, Runner, unit_of
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS


def _bindings():
    """Every name-to-object binding in the loaded tikhtorus modules, their
    classes and their module-level dicts."""
    found = {}
    for name, module in sys.modules.items():
        if name == "tikhtorus" or name.startswith("tikhtorus."):
            for attribute, value in vars(module).items():
                found[(name, attribute)] = value
                if isinstance(value, dict) and not attribute.startswith("__"):
                    found.update({(name, attribute, key): item for key, item in value.items()})
                if isinstance(value, type) and value.__module__.startswith("tikhtorus"):
                    found.update({(value.__qualname__, key): item for key, item in vars(value).items()})
    return found


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert tikhtorus.rates.sobolev_norm is not before[("tikhtorus.spectral", "sobolev_norm")]
        assert tikhtorus.sobolev_norm is tikhtorus.rates.sobolev_norm
        assert tikhtorus.experiments._RUNNERS["deblur"] is tikhtorus.experiments.run_deblur
        assert tikhtorus.experiments.run_deblur is not before[("tikhtorus.experiments", "run_deblur")]
        field = tikhtorus.spectral.SpectralField
        assert field.__rmul__ is field.__mul__ is not before[("SpectralField", "__mul__")]
        lattice = tikhtorus.FrequencyLattice(1, 4)
        2.0 * tikhtorus.zero_field(lattice)
        assert tracer.spans["spectral.SpectralField.arith"]["calls"] == 1
        assert tracer.spans["spectral.SpectralField"]["calls"] == 2
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_in_process_traced_counts_repeat(tmp_path):
    reports, outputs = [], []
    for _ in range(2):
        shutil.rmtree(tmp_path, ignore_errors=True)
        tracer = Tracer()
        tracer.install()
        try:
            code = tikhtorus.cli.main(
                ["deblur", "--config", str(ROOT / "configs" / "deblur.ini"), "--out", str(tmp_path)]
            )
        finally:
            tracer.uninstall()
        assert code == 0
        reports.append(tracer.report())
        outputs.append({path.name: path.read_bytes() for path in tmp_path.iterdir()})
    counts = [
        {
            (span, field): value
            for span, stats in report["spans"].items()
            for field, value in stats.items()
            if field != "self_s"
        }
        for report in reports
    ]
    assert counts[0] == counts[1]
    assert counts[0][("noise.sample_white_noise", "calls")] == 41
    assert reports[0]["distinct_draws"] == 20
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_runs_write_identical_bytes(workload):
    runner = Runner(workload)
    runner.iteration(DEFAULT_SEED)
    first = runner.iteration(DEFAULT_SEED, traced=True)
    second = runner.iteration(DEFAULT_SEED, traced=True)
    # the runner fails any pass whose bytes differ from the first at its seed
    assert runner.problems == [] and runner.failed == 0
    assert runner.attempted == 3 * len(WORKLOADS[workload])
    counts = [
        {key: value for key, value in sample["layers"].items() if unit_of(key) != "s"}
        for sample in (first, second)
    ]
    assert counts[0] == counts[1]


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [*command, "--workload", "noise_probe", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert not Path(tmp_path / ".perfbench_work").exists()
