"""Set-up time of one fresh process, printed as JSON.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Times, from the top of this script, the imports of numpy and the library,
the config build and a warm-up pass on a short horizon: what a user waits
for before the first timed step.  Interpreter start-up is not included.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    bootstrap.prepare()
    import workloads

    bootstrap.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=bootstrap.OUT_DIR, prefix="setup-"))
    try:
        workloads.warm_up(workloads.WORKLOADS[workload], seed, work)
        elapsed = time.perf_counter() - START
    finally:
        shutil.rmtree(work)
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
