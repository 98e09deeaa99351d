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
    # the per-config routine of tools/check_outputs.py on one shipped config;
    # the full check runs every config and is kept out of the test suite
    tool = load_tool("check_outputs")
    config = ROOT / "configs" / "gamma.ini"
    actual = {}
    for offset in tool.OFFSETS:
        actual.update(tool.config_hashes(config, offset, tmp_path))
    manifest = tool.read_manifest()
    expected = {label: value for label, value in manifest.items() if label.startswith("configs/gamma.ini@")}
    assert len(actual) == 6 and tool.differences(expected, actual) == []
