"""Count the code lines of a Python source tree.

A code line holds a token other than a comment; the lines of module, class
and function docstrings are not counted. Usage::

    python tools/code_lines.py [DIR]    # DIR defaults to src

prints the total over every ``*.py`` file under DIR.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    print(sum(code_lines(path.read_text()) for path in sorted(root.rglob("*.py"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
