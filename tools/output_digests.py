"""Byte-identity of the CLI's artifacts between a git revision and this
checkout.

Usage:
    python3 tools/output_digests.py --parent REV

Exports ``REV`` with ``bench_pairs.export_tree`` into a temporary directory.
In that tree and in this checkout it runs, each into a directory of its own:

* ``dremobs simulate --preset chua --T 100``, ideal, and robust with
  ``--seed 1`` and with ``--seed 7``;
* ``dremobs verify --out``.

It then compares the sha256 of every artifact the runs wrote (``trace.csv``,
every SVG, ``summary.json`` and ``verify_report.json``), with the run's
``elapsed_seconds`` removed from the JSON files, and prints one line per
artifact: ``same``, ``DIFFERS`` or ``MISSING`` on one side.  Under a JSON
artifact that differs it prints each differing leaf as
``path: parent -> change``, for example
``checks[1].value: 3.4817e-13 -> 3.5527e-13``.  The exit code is 1 when any
artifact differs or is missing on one side, else 0.  The export is removed
when the script ends.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_tree

# Stands for a key or list entry that one side of a comparison lacks.
_MISSING = object()

# Output directory name and CLI arguments of every run.
RUNS = {
    "ideal": ["simulate", "--preset", "chua", "--T", "100"],
    "robust-seed1": ["simulate", "--preset", "chua", "--mode", "robust", "--seed", "1", "--T", "100"],
    "robust-seed7": ["simulate", "--preset", "chua", "--mode", "robust", "--seed", "7", "--T", "100"],
    "verify": ["verify"],
}


def run_cli(tree: Path, args: list[str], out: Path) -> None:
    """Run ``dremobs ARGS --out OUT`` on the package source of ``tree``.
    Exit codes 0 and 1 (a check failed) leave artifacts to compare; any
    other raises RuntimeError."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "dremobs.cli", *args, "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"dremobs {' '.join(args)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )


def _without_elapsed(value):
    """``value`` with every ``elapsed_seconds`` key removed, at any depth."""
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items() if k != "elapsed_seconds"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def _canonical(path: Path):
    """A JSON file's value without ``elapsed_seconds``."""
    return _without_elapsed(json.loads(path.read_bytes()))


def digest(path: Path) -> str:
    """sha256 of a file's bytes; of a JSON file, of its canonical text
    without ``elapsed_seconds``."""
    data = path.read_bytes()
    if path.suffix == ".json":
        data = json.dumps(_canonical(path), indent=2, sort_keys=True).encode("ascii")
    return hashlib.sha256(data).hexdigest()


def _shown(value) -> str:
    """A JSON leaf as its text, or ``<missing>``."""
    return "<missing>" if value is _MISSING else json.dumps(value)


def leaf_changes(parent, change, path: str = "") -> list[str]:
    """``path: parent -> change`` for every leaf whose JSON text differs
    between two JSON values, in key and index order; a leaf on one side
    only shows ``<missing>`` on the other."""
    if isinstance(parent, dict) and isinstance(change, dict):
        children = [
            (f"{path}.{key}" if path else key, parent.get(key, _MISSING), change.get(key, _MISSING))
            for key in sorted(parent.keys() | change.keys())
        ]
    elif isinstance(parent, list) and isinstance(change, list):
        pairs = itertools.zip_longest(parent, change, fillvalue=_MISSING)
        children = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(pairs)]
    elif _shown(parent) == _shown(change):
        return []
    else:
        return [f"{path}: {_shown(parent)} -> {_shown(change)}"]
    return [line for child, a, b in children for line in leaf_changes(a, b, child)]


def tree_digests(tree: Path, out: Path) -> dict[str, str]:
    """Run every run of ``RUNS`` on ``tree`` into ``out``, and return the
    digest of each artifact by its path relative to ``out``."""
    for name, args in RUNS.items():
        run_cli(tree, args, out / name)
    return {
        path.relative_to(out).as_posix(): digest(path)
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def compare(parent: dict[str, str], change: dict[str, str]) -> list[tuple[str, str]]:
    """(artifact, verdict) for every artifact of either side, in name order:
    ``same``, ``DIFFERS``, or ``MISSING in parent`` / ``MISSING in change``."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent:
            lines.append((name, "MISSING in parent"))
        elif name not in change:
            lines.append((name, "MISSING in change"))
        else:
            lines.append((name, "same" if parent[name] == change[name] else "DIFFERS"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="output-digests-"))
    parent_out, change_out = scratch / "parent-out", scratch / "change-out"
    try:
        parent_tree = scratch / "parent"
        export_tree(args.parent, parent_tree)
        lines = compare(tree_digests(parent_tree, parent_out), tree_digests(ROOT, change_out))
        for name, verdict in lines:
            print(f"{name}: {verdict}")
            if verdict == "DIFFERS" and name.endswith(".json"):
                for leaf in leaf_changes(_canonical(parent_out / name), _canonical(change_out / name)):
                    print(f"  {leaf}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all(verdict == "same" for _, verdict in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
