"""Process preparation shared by the benchmark runner and its set-up probe.

``prepare()`` must run before numpy is imported: it pins BLAS to one thread
and puts the checkout's ``src/`` first on the import path, so the benchmark
always measures the source tree it sits in, never an installed copy.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no importable dremobs source tree."""


# glibc mallopt parameter; a fixed value also stops glibc from raising the
# threshold after large frees, which otherwise lets freed arrays stay
# resident or not depending on allocation order.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 128 * 1024


def _fix_mmap_threshold() -> None:
    """Serve every large array from its own mapping, returned on free, so
    peak resident memory follows the live arrays, not allocator history."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    except (OSError, AttributeError):
        pass  # not glibc: peak memory is measured as the allocator leaves it


def prepare() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    _fix_mmap_threshold()
    if not (SRC / "dremobs" / "__init__.py").is_file():
        raise MissingProgram(f"no dremobs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dremobs

    if Path(dremobs.__file__).resolve().parent != SRC / "dremobs":
        raise MissingProgram(f"dremobs imported from {dremobs.__file__}, not {SRC}")


def _git_commit() -> str | None:
    """HEAD commit read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """SHA-256 over the library sources, to identify the code where no git
    commit is available."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dremobs").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": workload,
        "seed": seed,
    }
