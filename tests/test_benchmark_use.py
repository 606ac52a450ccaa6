"""The benchmark's own smoke pass, run as part of the library's tests.

``perfbench/workloads.py`` drives the library through its public names
(``config_from_dict``, ``run_experiment``, ``RunResult.layout`` and
``RunResult.events``).  The smoke pass of ``perfbench/check_smoke.py``
runs every workload on a short horizon and checks its results, so a change
to those names fails here as well as in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_pass_runs_every_workload():
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "perfbench/check_smoke.py::test_short_horizon_pass_has_no_failures",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "3 passed" in proc.stdout
