"""Smoke tests of the benchmark itself.

Run from the repository root with:

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps these tests out of the library's default test run; they
start the benchmark in subprocesses and take about 25 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Span, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT_END = 1.0


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_names_the_runner_metrics_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_horizon_pass_has_no_failures(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    raws = [dict(raw, end_time=SHORT_END) for raw in wl.draw(5)]
    data = wl.run_pass(raws, tmp_path, NullTracer)
    obs = workloads.observe(data)
    reasons = wl.check(data)
    if wl.final_check is not None:
        reasons += wl.final_check(raws, obs)
    assert reasons == [None] * len(reasons)
    again = workloads.observe(wl.run_pass(raws, tmp_path, NullTracer))
    assert again.determinism_key() == obs.determinism_key()


def test_draw_depends_only_on_the_seed():
    for wl in workloads.WORKLOADS.values():
        assert wl.draw(7) == wl.draw(7)
        assert wl.draw(7) != wl.draw(8)


def test_self_time_subtracts_children():
    spans = [
        Span(1, "trace.write_trace", 10, 30, 0, "r"),
        Span(2, "plots.render_trace_plots", 40, 90, 0, "r"),
        Span(0, "bench.pass", 0, 100, None, "r"),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(30e-9)
    assert own[1] == pytest.approx(20e-9)


@pytest.mark.parametrize("trace, units", [("0", run.END_TO_END_UNITS), ("1", run.PER_LAYER_UNITS)])
def test_runner_reports_every_metric_with_its_unit(trace, units):
    done = _run_benchmark(
        ROOT, "--workload", "simulate-ideal", "--seed", "3", "--seconds", "1", "--trace", trace
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "fail_ratio: 0 " in done.stdout
    assert '"blas_threads": 1' in done.stdout


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_benchmark(
        tmp_path, "--workload", "simulate-ideal", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
