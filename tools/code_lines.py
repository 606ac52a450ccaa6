"""Code lines of Python sources: lines that hold a token of code, so not
blank lines, comment lines or the lines of a docstring.

Usage:
    python3 tools/code_lines.py [--parent REV] PATH...

A PATH is a ``.py`` file or a directory, searched for ``.py`` files.  The
script prints one ``<lines>  <file>`` line per file, then the total.  With
``--parent``, it exports the git revision ``REV`` with
``bench_pairs.export_tree`` into a temporary directory, reads each PATH
there and in this checkout (relative to its root), and prints a
``parent  change  delta  file`` line per file, then the totals; a file
present on one side only counts 0 on the other.  A line
counts once however many tokens it holds, and every line of a multi-line
expression or string that is not a docstring counts.  A docstring is a
string literal standing as the first statement of a module, class or
function body, as ``ast.get_docstring`` reads it.
"""

from __future__ import annotations

import argparse
import ast
import io
import shutil
import sys
import tempfile
import tokenize
from pathlib import Path

from bench_pairs import ROOT, export_tree

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


def _sources(paths) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def _tree_counts(root: Path, paths: list[Path]) -> dict[str, int]:
    """Code lines of the sources under ``paths``, taken relative to
    ``root``, by file path relative to ``root``."""
    return {
        path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in _sources([root / p for p in paths if (root / p).exists()])
    }


def compare(rev: str, paths: list[str]) -> None:
    """Print the parent, change and delta lines of ``paths`` between the
    revision ``rev`` and this checkout."""
    relative = [Path(p).resolve().relative_to(ROOT) for p in paths]
    scratch = Path(tempfile.mkdtemp(prefix="code-lines-"))
    try:
        export_tree(rev, scratch)
        parent = _tree_counts(scratch, relative)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    change = _tree_counts(ROOT, relative)
    print("parent  change   delta  file")
    rows = [(parent.get(f, 0), change.get(f, 0), f) for f in sorted(parent.keys() | change.keys())]
    rows.append((sum(parent.values()), sum(change.values()), "total"))
    for before, after, name in rows:
        print(f"{before:6d}  {after:6d}  {after - before:+6d}  {name}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python sources.")
    parser.add_argument("paths", nargs="+", help="a .py file or a directory searched for them")
    parser.add_argument("--parent", metavar="REV", help="git revision to compare against")
    args = parser.parse_args(argv)
    if args.parent is not None:
        compare(args.parent, args.paths)
        return 0
    total = 0
    for path in _sources(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
