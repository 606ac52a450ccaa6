"""The count of ``tools/code_lines.py``: code lines, without docstrings,
comments or blank lines."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment


# a comment line
def area(r):
    """Function docstring."""

    return math.pi * (
        r
        * r
    )


class Shape:
    """Class docstring."""
    label = """not a docstring:
    an assigned string"""
'''


def test_counts_code_lines_only():
    # import, def, the four lines of the return, class, and the two lines
    # of the assigned string.
    assert code_lines.code_lines(SOURCE) == 9


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["9", "1", "10"]
    assert lines[0].endswith("a.py") and lines[-1].endswith("total")
