"""The three benchmark workloads: one closed-loop pass each, built from the
public library API in the same order as the CLI commands they stand for.

A workload turns a seed into raw experiment configs (``draw``), runs one
pass over them (``run_pass``), and checks the pass's outputs (``check``).
The library receives only the drawn configs.  Importing this module needs
``bootstrap.prepare()`` to have run first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dremobs.config import config_from_dict, run_experiment
from dremobs.plots import render_trace_plots
from dremobs.sim import RunResult
from dremobs.trace import SimulationTrace, read_trace, traces_equal, write_trace
from dremobs.verification import (
    CheckResult,
    check_excitation_consistency,
    check_freeze,
    oracle_checks,
    summarize,
)
from tracing import NullTracer

# Chua preset dimensions: s subsystems, m parameters each, n states.
S, M, N = 3, 2, 3

# The Chua plant leaves region 1 at t = 4.95 and reaches region 3 at 8.57,
# so a 10 s ideal run switches four times and activates every subsystem.
# Both horizons end well after a switch: the excitation oracle compares
# integrals by relative error, and a subsystem active for only a few tenths
# of a second before the end has an integral near 1e-20 on which it fails
# (9 s ideal, 6 s robust).  The README records this.
IDEAL_END = 10.0
# Eight seconds hold the first three switches (1 -> 2 -> 1 -> 2) of every
# robust seed.
ROBUST_END = 8.0
ROBUST_RUNS = 2
# Horizon of the warm-up pass, which runs every code path once untimed.
WARMUP_END = 0.05
# A grid row counts as stalled when the squared mixing determinant, which
# scales the active subsystem's adaptation rate, is below this floor.
STALL_FLOOR = 1e-12


@dataclass
class PassData:
    """What one pass produced, kept for the checks made after timing."""

    results: list[RunResult]
    oracles: list[CheckResult] | None = None
    trace_path: Path | None = None
    read_back: SimulationTrace | None = None
    plots: list[Path] = field(default_factory=list)


@dataclass(frozen=True)
class Observation:
    """Counts and digests of one pass; equal for equal (workload, seed)."""

    steps: int
    switches: int
    rows: int
    stalled_rows: int
    digests: tuple[str, ...]
    state_floats: int
    snapshot_mb: float
    trace_rows: int
    trace_bytes: int
    plot_files: int

    def determinism_key(self) -> tuple:
        return (self.digests, self.steps, self.switches, self.stalled_rows)


def trace_digest(trace: SimulationTrace) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(trace.meta, sort_keys=True).encode())
    h.update(trace.data.tobytes())
    h.update(np.asarray(trace.switch_times, dtype=float).tobytes())
    h.update(np.asarray(trace.pre_reset_delta, dtype=float).tobytes())
    return h.hexdigest()


def observe(data: PassData) -> Observation:
    traces = [r.trace for r in data.results]
    rows = sum(t.data.shape[0] for t in traces)
    return Observation(
        steps=sum(t.data.shape[0] - 1 for t in traces),
        switches=sum(len(r.events) - 1 for r in data.results),
        rows=rows,
        stalled_rows=int(sum(np.count_nonzero(t.delta**2 < STALL_FLOOR) for t in traces)),
        digests=tuple(trace_digest(t) for t in traces),
        state_floats=data.results[0].layout.size,
        snapshot_mb=max(r.layout.size * r.trace.data.shape[0] * 8 for r in data.results) / 2**20,
        trace_rows=traces[0].data.shape[0] if data.trace_path is not None else 0,
        trace_bytes=data.trace_path.stat().st_size if data.trace_path is not None else 0,
        plot_files=len(data.plots),
    )


# -- config drawing ---------------------------------------------------------


def _draw_ideal(seed: int, mode: str) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {
            "plant": "chua",
            "mode": mode,
            "end_time": IDEAL_END,
            "theta_init": rng.uniform(-2.0, 2.0, (S, M)).tolist(),
            "observer_init": rng.uniform(-3.0, 3.0, N).tolist(),
        }
    ]


def _draw_robust(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {"plant": "chua", "mode": "robust", "end_time": ROBUST_END, "seed": int(noise_seed)}
        for noise_seed in rng.integers(0, 2**31, size=ROBUST_RUNS)
    ]


# -- passes -----------------------------------------------------------------


def _simulate_ideal_pass(raws: list[dict], out: Path, tr) -> PassData:
    """``dremobs simulate --preset chua --mode ideal``."""
    (raw,) = raws
    cfg = tr.call("config.config_from_dict", config_from_dict, raw)
    result = tr.call("config.run_experiment", run_experiment, cfg)
    path = out / "trace.csv"
    tr.call("trace.write_trace", write_trace, result.trace, path)
    tr.call("verification.summarize", summarize, result)
    plots = tr.call("plots.render_trace_plots", render_trace_plots, result.trace, out)
    return PassData(results=[result], trace_path=path, plots=plots)


def _robust_sweep_pass(raws: list[dict], out: Path, tr) -> PassData:
    """The robustness experiment: robust seeds back to back, no artifacts."""
    results = []
    for raw in raws:
        cfg = tr.call("config.config_from_dict", config_from_dict, raw)
        result = tr.call("config.run_experiment", run_experiment, cfg)
        tr.call("verification.summarize", summarize, result)
        results.append(result)
    return PassData(results=results)


def _verify_plot_pass(raws: list[dict], out: Path, tr) -> PassData:
    """``dremobs verify`` then ``dremobs plot`` on that run's trace."""
    (raw,) = raws
    cfg = tr.call("config.config_from_dict", config_from_dict, raw)
    result = tr.call("config.run_experiment", run_experiment, cfg, collect_diagnostics=True)
    oracles = tr.call("verification.oracle_checks", oracle_checks, result)
    tr.call("verification.summarize", summarize, result)
    path = out / "trace.csv"
    tr.call("trace.write_trace", write_trace, result.trace, path)
    read_back = tr.call("trace.read_trace", read_trace, path)
    plots = tr.call("plots.render_trace_plots", render_trace_plots, read_back, out)
    return PassData(
        results=[result], oracles=oracles, trace_path=path, read_back=read_back, plots=plots
    )


# -- checks -----------------------------------------------------------------
# Each check returns one entry per run: None when the run is correct, else
# the reason it failed.

EXPECTED_PLOTS = N + 4  # mode, excitation, theta error, one per state, x error


def _basic(result: RunResult) -> str | None:
    trace = result.trace
    steps = round(float(trace.meta["t_end"] - trace.meta["t0"]) / float(trace.meta["h"]))
    if trace.data.shape[0] != steps + 1:
        return f"trace has {trace.data.shape[0]} rows, expected {steps + 1}"
    if not np.isfinite(trace.data[-1]).all():
        return "final trace row is not finite"
    return None


def _failed_checks(checks: list[CheckResult]) -> str | None:
    failed = [c.line() for c in checks if not c.passed]
    return "; ".join(failed) if failed else None


def _artifacts(data: PassData) -> str | None:
    if not (data.trace_path.is_file() and data.trace_path.stat().st_size > 0):
        return f"trace file {data.trace_path} missing or empty"
    if len(data.plots) != EXPECTED_PLOTS or not all(p.is_file() for p in data.plots):
        return f"expected {EXPECTED_PLOTS} plot files, got {len(data.plots)}"
    return None


def _check_simulate_ideal(data: PassData) -> list[str | None]:
    (result,) = data.results
    return [_basic(result) or _artifacts(data)]


def _check_robust_sweep(data: PassData) -> list[str | None]:
    return [
        _basic(r) or _failed_checks([check_freeze(r), check_excitation_consistency(r)])
        for r in data.results
    ]


def _check_verify_plot(data: PassData) -> list[str | None]:
    (result,) = data.results
    reason = _basic(result) or _failed_checks(data.oracles) or _artifacts(data)
    if reason is None and not traces_equal(data.read_back, result.trace):
        reason = "trace read back from CSV differs from the written trace"
    return [reason]


def _oracles_on_ideal(raws: list[dict], reference: Observation) -> list[str | None]:
    """The ideal pass runs without diagnostics, so its six oracles are
    evaluated once on a diagnostics rerun, which must reproduce its trace."""
    (raw,) = raws
    rerun = run_experiment(config_from_dict(raw), collect_diagnostics=True)
    reason = _failed_checks(oracle_checks(rerun))
    if reason is None and (trace_digest(rerun.trace),) != reference.digests:
        reason = "diagnostics rerun changed the trace"
    return [reason]


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[int], list[dict]]
    run_pass: Callable[[list[dict], Path, object], PassData]
    check: Callable[[PassData], list[str | None]]
    # Extra checks made once after timing, against the first pass's
    # observation; one entry per extra run.
    final_check: Callable[[list[dict], Observation], list[str | None]] | None = None


def warm_up(workload: Workload, seed: int, out: Path) -> None:
    """One untimed pass on a short horizon, so every code path has run
    once before anything is measured."""
    raws = [dict(raw, end_time=WARMUP_END) for raw in workload.draw(seed)]
    workload.run_pass(raws, out, NullTracer)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-ideal",
            lambda seed: _draw_ideal(seed, "ideal"),
            _simulate_ideal_pass,
            _check_simulate_ideal,
            _oracles_on_ideal,
        ),
        Workload("robust-sweep", _draw_robust, _robust_sweep_pass, _check_robust_sweep),
        Workload(
            "verify-plot",
            lambda seed: _draw_ideal(seed, "verify"),
            _verify_plot_pass,
            _check_verify_plot,
        ),
    )
}
