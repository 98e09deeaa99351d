"""The repository's own tools, outside the package."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_comments_blank_lines_and_docstrings():
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "x = (1,  # a trailing comment\n"
        "     2)\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring."""\n'
        '        s = """a string,\n'
        '        not a docstring"""\n'
        "        return s\n"
    )
    # x = (1, / 2) / class C: / def f / s = """ and its second line / return s
    assert load_tool("code_lines").code_lines(source) == 7


def test_gamma_outputs_match_the_manifest(tmp_path):
    # the per-config routine of tools/check_outputs.py on the shipped
    # configs; the full check, which adds the benchmark's configs, is kept
    # out of the test suite. Deblur's set-up walks its reference lattice of
    # 32,769 modes in a piece of 32,767 modes and one of 2: its bytes must
    # not see the split. The probe's ball sums and the rates run's truth norm
    # go through the mirror groups of every sum
    tool = load_tool("check_outputs")
    manifest = tool.read_manifest()
    for name, files in [("gamma", 6), ("deblur", 12), ("noise_probe", 6), ("rates", 8)]:
        actual = {}
        for offset in tool.OFFSETS:
            actual.update(tool.config_hashes(ROOT / "configs" / f"{name}.ini", offset, tmp_path))
        expected = {label: value for label, value in manifest.items() if label.startswith(f"configs/{name}.ini@")}
        assert len(actual) == files and tool.differences(expected, actual) == []


def test_stage_costs_prints_each_deblur_stage(tmp_path):
    # one JSON line per stage call of a fresh CLI run, the whole run last
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_costs.py"), str(ROOT / "configs" / "deblur.ini"),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in done.stdout.splitlines()]
    stages = [record["stage"] for record in records]
    set_up = ["_problem", "SweepTables", "DivergenceTables"]
    assert stages == [*set_up, "_snapshot", "_sweep_pass", "run_deblur", "total"]
    for record in records:
        assert record.keys() == {"stage", "wall_s", "cpu_s", "minflt", "maxrss_kib"}
        assert record["wall_s"] > 0 and record["cpu_s"] >= 0 and record["minflt"] >= 0 and record["maxrss_kib"] > 0
    assert (tmp_path / "out" / "errors.csv").exists()
