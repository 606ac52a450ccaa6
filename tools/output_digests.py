"""Byte-identity of the CLI's artifacts between a git revision and this
checkout.

Usage:
    python3 tools/output_digests.py --parent REV [--kernels]

Exports ``REV`` with ``bench_pairs.export_tree`` into a temporary directory.
In that tree and in this checkout it runs, each into a directory of its own:

* ``dremobs simulate --preset chua --T 100``, ideal, and robust with
  ``--seed 1`` and with ``--seed 7``;
* ``dremobs simulate --config FILE --seed 5 --T 20``, where ``FILE`` is
  ``CONFIG_FILE``, a robust Chua config whose ``noise`` object sets
  ``"seed": 3``, written once into the temporary directory so both trees
  read the same bytes;
* ``dremobs verify --out``.

Beside each run's artifacts it writes ``console.txt``: the run's exit code,
stdout and stderr, with the run's output directory written as ``<out>`` and
the tree's own directory as ``<tree>``, since ``simulate`` prints the trace's
path.  It then compares the sha256 of every artifact (``trace.csv``, every
SVG, ``summary.json``, ``verify_report.json`` and ``console.txt``), with the
run's ``elapsed_seconds`` removed from the JSON files, and prints one line
per artifact: ``same``, ``DIFFERS`` or ``MISSING`` on one side.  Under a JSON
artifact that differs it prints each differing leaf as
``path: parent -> change``, for example
``checks[1].value: 3.4817e-13 -> 3.5527e-13``.

With ``--kernels`` it then repeats the comparison under each OpenBLAS kernel
of ``KERNELS``, forced with ``OPENBLAS_CORETYPE`` on both sides, and prints
those artifacts under the kernel's name, as ``Haswell/ideal/trace.csv:
same``.  A probe process first reads OpenBLAS's core name under the forced
kernel; a kernel the host cannot run (the probe fails, or does not report
that kernel's core) is printed as ``<kernel>: unavailable`` and not
compared.

The exit code is 1 when any compared artifact differs or is missing on one
side, else 0.  The export is removed when the script ends.
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

# OPENBLAS_CORETYPE values, each with the core name OpenBLAS reports while
# it runs that kernel: FMA kernels first, then the non-FMA ones.
KERNELS = {
    "SkylakeX": "SkylakeX",
    "Haswell": "Haswell",
    "Sandybridge": "Sandybridge",
    "Nehalem": "Nehalem",
    "Prescott": "Katmai",
}

# Prints the core name of the OpenBLAS that numpy loaded, after a matrix
# product, so a kernel the CPU cannot run fails here.
CORE_PROBE = """
import ctypes, pathlib, numpy as np
np.ones((64, 64)) @ np.ones((64, 64))
libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
for lib in sorted(libs.glob("*openblas*")):
    name = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
    if name is not None:
        name.restype = ctypes.c_char_p
        print(name().decode())
"""

# Each run's exit code, stdout and stderr, written beside its artifacts.
CONSOLE = "console.txt"

# The config file of the ``--config`` run: the robust preset's noise, with
# a seed of its own for ``--seed`` to replace.
CONFIG_FILE = {
    "plant": "chua",
    "mode": "robust",
    "noise": {
        "v0": 0.1,
        "seed": 3,
        "omega": {"amplitudes": [0.05, 0.005, 0.1], "frequencies": [7.0, 5.0, 13.0]},
    },
}

# Stands for the path of ``CONFIG_FILE`` in a run's arguments.
CONFIG = "<config>"

# Output directory name and CLI arguments of every run.
RUNS = {
    "ideal": ["simulate", "--preset", "chua", "--T", "100"],
    "robust-seed1": ["simulate", "--preset", "chua", "--mode", "robust", "--seed", "1", "--T", "100"],
    "robust-seed7": ["simulate", "--preset", "chua", "--mode", "robust", "--seed", "7", "--T", "100"],
    "robust-config": ["simulate", "--config", CONFIG, "--seed", "5", "--T", "20"],
    "verify": ["verify"],
}


def _kernel_env(kernel: str | None) -> dict:
    """This process's environment, with OpenBLAS forced to ``kernel``."""
    return dict(os.environ) if kernel is None else dict(os.environ, OPENBLAS_CORETYPE=kernel)


def kernel_core(kernel: str) -> str | None:
    """The core name OpenBLAS reports in a process forced to ``kernel``, or
    None when that process fails or finds no core name."""
    proc = subprocess.run(
        [sys.executable, "-c", CORE_PROBE], env=_kernel_env(kernel), capture_output=True, text=True
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_cli(
    tree: Path, args: list[str], out: Path, kernel: str | None = None
) -> subprocess.CompletedProcess:
    """Run ``dremobs ARGS --out OUT`` on the package source of ``tree``,
    under the OpenBLAS ``kernel`` when one is given, and return the finished
    process, its output captured as text.  Exit codes 0 and 1 (a check
    failed) leave artifacts to compare; any other raises RuntimeError."""
    env = dict(_kernel_env(kernel), PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "dremobs.cli", *args, "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"dremobs {' '.join(args)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return proc


def console_record(proc, out: Path, tree: Path) -> str:
    """A finished run's exit code, stdout and stderr as one text, with its
    output directory ``out`` written as ``<out>``, then its source tree
    ``tree`` as ``<tree>``."""
    text = f"exit code: {proc.returncode}\n--- stdout ---\n{proc.stdout}--- stderr ---\n{proc.stderr}"
    return text.replace(str(out), "<out>").replace(str(tree), "<tree>")


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


def tree_digests(tree: Path, out: Path, config: Path, kernel: str | None = None) -> dict[str, str]:
    """Run every run of ``RUNS`` on ``tree`` into ``out``, with ``config``
    for ``CONFIG`` and under the OpenBLAS ``kernel`` when one is given, and
    return the digest of each artifact, the runs' console records among
    them, by its path relative to ``out``."""
    for name, args in RUNS.items():
        args = [str(config) if arg == CONFIG else arg for arg in args]
        proc = run_cli(tree, args, out / name, kernel)
        (out / name / CONSOLE).write_text(console_record(proc, out / name, tree), encoding="utf-8")
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
    parser.add_argument(
        "--kernels", action="store_true", help="repeat the comparison under each OpenBLAS kernel"
    )
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="output-digests-"))
    verdicts = []
    try:
        parent_tree = scratch / "parent"
        export_tree(args.parent, parent_tree)
        config = scratch / "robust-config.json"
        config.write_text(json.dumps(CONFIG_FILE, indent=2) + "\n", encoding="ascii")
        for kernel in [None, *(KERNELS if args.kernels else ())]:
            if kernel is not None and kernel_core(kernel) != KERNELS[kernel]:
                print(f"{kernel}: unavailable")
                continue
            # Artifacts under a forced kernel are named under the kernel's.
            label = "" if kernel is None else f"{kernel}/"
            parent_out = scratch / "parent-out" / (kernel or "default")
            change_out = scratch / "change-out" / (kernel or "default")
            lines = compare(
                tree_digests(parent_tree, parent_out, config, kernel),
                tree_digests(ROOT, change_out, config, kernel),
            )
            for name, verdict in lines:
                print(f"{label}{name}: {verdict}")
                if verdict == "DIFFERS" and name.endswith(".json"):
                    for leaf in leaf_changes(_canonical(parent_out / name), _canonical(change_out / name)):
                        print(f"  {leaf}")
            verdicts += [verdict for _, verdict in lines]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all(verdict == "same" for verdict in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
