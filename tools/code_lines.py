"""Count the code lines of the package's modules.

A code line is a non-blank line that holds something other than a
comment or a docstring (of a module, class or function).  A string that
spans lines and is not a docstring counts on every non-blank line.

    python tools/code_lines.py [package directory]

prints one line per module of the package (``src/solitonforge`` by
default) and the total.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = source.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(row for row in range(tok.start[0], tok.end[0] + 1)
                    if lines[row - 1].strip())
    return len(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src", "solitonforge")
    total = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{name:16s} {count:5d}")
    print(f"{'total':16s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
