"""The repository's own tools, outside the package."""

import importlib.util
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
