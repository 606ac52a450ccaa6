"""Code lines of Python sources: lines that hold a token of code, so not
blank lines, comment lines or the lines of a docstring.

Usage:
    python3 tools/code_lines.py PATH...

A PATH is a ``.py`` file or a directory, searched for ``.py`` files.  The
script prints one ``<lines>  <file>`` line per file, then the total.  A line
counts once however many tokens it holds, and every line of a multi-line
expression or string that is not a docstring counts.  A docstring is a
string literal standing as the first statement of a module, class or
function body, as ``ast.get_docstring`` reads it.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are layout or commentary, not code.
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _sources(paths: list[str]) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python sources.")
    parser.add_argument("paths", nargs="+", help="a .py file or a directory searched for them")
    total = 0
    for path in _sources(parser.parse_args(argv).paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
