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
