"""The count of ``tools/code_lines.py``: code lines, without docstrings,
comments or blank lines."""

import importlib.util
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load():
    # The script imports its sibling ``bench_pairs`` from its own directory.
    sys.path.insert(0, str(_TOOLS))
    try:
        spec = importlib.util.spec_from_file_location("code_lines", _TOOLS / "code_lines.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_TOOLS))
    return module


code_lines = _load()

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


def test_parent_comparison_counts_a_missing_file_as_zero(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    (change / "pkg").mkdir(parents=True)
    (change / "pkg" / "a.py").write_text(SOURCE)
    (change / "pkg" / "new.py").write_text("x = 1\n")

    def fake_export(rev, dest):
        assert rev == "HEAD~1"
        (dest / "pkg").mkdir(parents=True)
        (dest / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
        (dest / "pkg" / "gone.py").write_text("x = 1\ny = 2\nz = 3\n")

    monkeypatch.setattr(code_lines, "ROOT", change.resolve())
    monkeypatch.setattr(code_lines, "export_tree", fake_export)
    monkeypatch.chdir(change)
    assert code_lines.main(["--parent", "HEAD~1", "pkg"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["parent", "change", "delta", "file"]
    assert [line.split() for line in lines[1:]] == [
        ["2", "9", "+7", "pkg/a.py"],
        ["3", "0", "-3", "pkg/gone.py"],
        ["0", "1", "+1", "pkg/new.py"],
        ["5", "10", "+5", "total"],
    ]
