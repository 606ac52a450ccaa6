"""Alternating parent/change pairs of one perfbench workload.

Usage:
    python3 tools/bench_pairs.py --parent REV --workload W --seed S --pairs N --seconds T

Checks ``REV`` out into a temporary git worktree, then runs
``perfbench/run.py --trace 0`` there and in this checkout ``N`` times each,
alternating which side runs first, and parses each run's last JSON line.
It prints every pair's end-to-end metrics, each side's median and quartiles,
and two verdicts per metric, by the rules of ``BENCHMARK.json``:

* gain: the change wins at least nine tenths of the pairs (ties count for
  neither side) and the medians differ, in the better direction, by more
  than the interquartile range of the parent's runs;
* bound: the change's median is worse than the parent's by no more than the
  metric's bound, taken as a fraction of the parent's median.

The last line is one JSON object with the same numbers.  The exit code is 1
when a run fails or a metric is worse than its bound, else 0.  The worktree
is removed when the script ends.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's paired runs, ``parent[i]`` against ``change[i]``.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the fraction of
    the parent's median by which the change's median may be worse.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs the same positive number of runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gap = sign * (c_median - p_median)  # positive when the change is better
    return {
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "parent": {"q1": p_q1, "median": p_median, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_median, "q3": c_q3},
        "median_gain_pct": 100.0 * gap / abs(p_median) if p_median else None,
        "gain": wins * 10 >= 9 * len(parent) and gap > p_q3 - p_q1,
        "within_bound": -gap <= bound * abs(p_median),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its end-to-end
    metric values by name, and whether every pass was correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["metrics"]:
        raise RuntimeError(f"perfbench in {tree} reported no metrics: every pass failed")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"correct": result["correct"], "metrics": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent_tree = scratch / "parent"
    subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(parent_tree), args.parent],
        check=True, capture_output=True, text=True,
    )
    runs = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent_tree if side == "parent" else ROOT
                runs[side].append(run_once(tree, args.workload, args.seed, args.seconds))
            cells = "; ".join(
                f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]:.6g} vs "
                f"{runs['change'][-1]['metrics'][m['name']]:.6g}"
                for m in metrics
            )
            print(f"pair {i + 1} ({order[0]} first), parent vs change: {cells}", flush=True)
    finally:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(parent_tree)],
            capture_output=True,
        )
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)

    correct = all(run["correct"] for side in runs.values() for run in side)
    report = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
              "correct": correct, "metrics": {}}
    for m in metrics:
        name = m["name"]
        parent = [run["metrics"][name] for run in runs["parent"]]
        change = [run["metrics"][name] for run in runs["change"]]
        v = verdict(parent, change, m["better"], m["bound"])
        report["metrics"][name] = v
        sides = ", ".join(
            f"{side} {q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
            for side, q in (("parent", v["parent"]), ("change", v["change"]))
        )
        print(
            f"{name} ({m['unit']}, {m['better']} is better): {sides}, "
            f"wins {v['wins']}/{v['pairs']}, gain {'yes' if v['gain'] else 'no'}, "
            f"bound {m['bound']:g} {'kept' if v['within_bound'] else 'EXCEEDED'}"
        )
    print(json.dumps(report))
    within = all(v["within_bound"] for v in report["metrics"].values())
    return 0 if correct and within else 1


if __name__ == "__main__":
    sys.exit(main())
