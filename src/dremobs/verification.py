"""Analysis of a finished run: the algebraic verification oracles, the
excitation quadrature and the run summary.

Every oracle compares simulated signals against an identity that holds
exactly in continuous time, using ground truth only available inside the
simulator (true states, true parameters, states at switch instants).

The excitation of subsystem i is the integral of the squared mixing
determinant over the steps on which i is active.  DREM's estimates of
subsystem i converge only while that integral keeps growing, so it is
measured here after the run, by a switch-aware trapezoid rule on the
trace's grid, as a whole-run integral and as sliding-window means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .sim import RunResult

DECOMPOSITION_TOL = 1e-4
LRE_TOL = 1e-4
MIXING_REL_TOL = 1e-3
MONOTONE_SLACK = 1e-10
SIGN_FLOOR = 1e-8
QUADRATURE_REL_TOL = 1e-3
# Multiple of the trapezoid rule's error estimate in the quadrature tolerance.
QUADRATURE_ERROR_SAFETY = 2.0
# Width in seconds of the summary's excitation windows (the whole span of a
# shorter run).
PE_WINDOW = 20.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def _theta_errors(result: RunResult) -> np.ndarray:
    """Signed per-component estimation errors, shape (T, s, m)."""
    return result.trace.theta_hat - result.model.true_params[None, :, :]


def _diagnostic_check(result: RunResult, name: str, tol: float, label: str, worst_of) -> CheckResult:
    """The check ``name`` of a diagnostic run: its worst value is
    ``worst_of(result.diagnostics)``, which passes at most ``tol``, and its
    detail names that value with ``label``."""
    if result.diagnostics is None:
        raise ConfigurationError("run was made without diagnostics")
    worst = float(worst_of(result.diagnostics))
    return CheckResult(name, worst <= tol, worst, tol, f"max {label} {worst:.3e} (tol {tol:.1e})")


def check_decomposition(result: RunResult) -> CheckResult:
    """State equals zero-input response plus both filtered responses, for
    every filter of the bank."""
    return _diagnostic_check(
        result, "decomposition_identity", DECOMPOSITION_TOL, "residual",
        lambda diagnostics: diagnostics.decomposition_residual.max(),
    )


def check_lre(result: RunResult) -> CheckResult:
    """Every scalar regression matches the ground-truth augmented parameter."""
    return _diagnostic_check(
        result, "regression_residual", LRE_TOL, "residual",
        lambda diagnostics: diagnostics.lre_residual_max.max(),
    )


def check_mixing(result: RunResult) -> CheckResult:
    """Mixed vector equals determinant times the augmented parameter, scaled
    by max(1, |delta|)."""
    scale = np.maximum(1.0, np.abs(result.trace.delta))
    return _diagnostic_check(
        result, "mixing_identity", MIXING_REL_TOL, "scaled residual",
        lambda diagnostics: (np.abs(diagnostics.dbar).max(axis=1) / scale).max(),
    )


def _active(trace) -> np.ndarray:
    """(steps, s): whether subsystem i is active on each grid step."""
    return trace.sigma_float[:-1, None] == np.arange(1, trace.num_subsystems + 1)


def check_freeze(result: RunResult) -> CheckResult:
    """Inactive estimates are bit-frozen between grid points."""
    trace = result.trace
    step_change = np.abs(np.diff(trace.theta_hat, axis=0)).max(axis=2)  # (steps, s)
    worst = float(step_change[~_active(trace)].max(initial=0.0))
    return CheckResult(
        name="inactive_freeze",
        passed=worst == 0.0,
        value=worst,
        threshold=0.0,
        detail=f"max inactive-step change {worst:.3e} (must be exactly 0)",
    )


def check_monotone_decay(result: RunResult) -> CheckResult:
    """Per-component error magnitudes never rise above their running minimum
    by more than the slack, and never change sign while clearly nonzero."""
    errors = _theta_errors(result)  # (T, s, m)
    mags = np.abs(errors)
    running_min = np.minimum.accumulate(mags, axis=0)
    worst_rise = float((mags - running_min).max())
    monotone_ok = worst_rise <= MONOTONE_SLACK

    sign_ok = True
    prev, cur = errors[:-1], errors[1:]
    flipped = np.sign(prev) * np.sign(cur) < 0
    big = np.minimum(np.abs(prev), np.abs(cur)) > SIGN_FLOOR
    if np.any(flipped & big):
        sign_ok = False
    passed = monotone_ok and sign_ok
    detail = (
        f"max rise above running min {worst_rise:.3e} (slack {MONOTONE_SLACK:.1e}); "
        f"sign flips above {SIGN_FLOOR:.0e}: {'none' if sign_ok else 'present'}"
    )
    return CheckResult(
        name="elementwise_decay",
        passed=passed,
        value=worst_rise,
        threshold=MONOTONE_SLACK,
        detail=detail,
    )


def excitation_endpoints(trace) -> tuple[np.ndarray, np.ndarray]:
    """The squared determinant at the start and at the end of each grid step.

    A step ending at a switch instant uses the pre-reset determinant from
    the trace header for its end, so the integrand's one-sided limit is
    used on both sides of each filter restart.
    """
    t = trace.t
    d2_left = trace.delta[:-1] ** 2
    d2_right = trace.delta[1:] ** 2
    for row, pre in zip(np.searchsorted(t, trace.switch_times), trace.pre_reset_delta):
        if not np.isnan(pre) and 1 <= row < t.shape[0]:
            d2_right[row - 1] = pre * pre
    return d2_left, d2_right


def excitation_segments(trace) -> np.ndarray:
    """Trapezoid areas of the squared determinant over each grid step."""
    d2_left, d2_right = excitation_endpoints(trace)
    return 0.5 * np.diff(trace.t) * (d2_left + d2_right)


def _active_sums(trace, per_step: np.ndarray) -> np.ndarray:
    """Per-subsystem sums of a per-step quantity over the steps on which
    each subsystem is active."""
    return np.array([per_step[active].sum() for active in _active(trace).T])


def trapezoid_excitation(trace) -> np.ndarray:
    """Per-subsystem gated integral of the squared determinant, summed over
    the trapezoid segments of ``excitation_segments``."""
    return _active_sums(trace, excitation_segments(trace))


def trapezoid_error_estimate(trace) -> np.ndarray:
    """Per-subsystem estimate of the error of ``trapezoid_excitation``.

    Over two consecutive steps of one subsystem, the trapezoid rule at h
    and at 2h differ by three times the h rule's error (Richardson).  Each
    pair's error is shared equally by its two steps; a step inside a run
    of the subsystem belongs to two pairs and takes the mean of its shares.
    The magnitudes are summed, so errors of opposite sign do not cancel.
    """
    t = trace.t
    left, right = excitation_endpoints(trace)
    fine = excitation_segments(trace)
    coarse = 0.5 * (t[2:] - t[:-2]) * (left[:-1] + right[1:])
    sigma_step = trace.sigma_float[:-1]
    paired = sigma_step[:-1] == sigma_step[1:]
    share = np.where(paired, np.abs(fine[:-1] + fine[1:] - coarse) / 6.0, 0.0)
    step_error, pairs = np.zeros_like(fine), np.zeros_like(fine)
    for lo, hi in ((0, -1), (1, None)):
        step_error[lo:hi] += share
        pairs[lo:hi] += paired
    step_error /= np.maximum(pairs, 1.0)
    return _active_sums(trace, step_error)


def excitation_window_means(trace, window: float) -> np.ndarray:
    """Sliding-window means of each subsystem's gated squared determinant,
    shape (s, W): entry [i, w] is subsystem i's trapezoid integral over the
    window of ``window`` seconds (rounded to whole steps) starting at grid
    row w, divided by the window's width."""
    if not 0.0 < window < np.inf:
        raise ConfigurationError(f"window must be a positive finite number of seconds: {window!r}")
    t = trace.t
    if t.shape[0] < 2:
        raise ConfigurationError("trace must cover at least two grid points")
    span = t[-1] - t[0]
    if window > span:
        raise ConfigurationError(
            f"window {window:.6g} s exceeds the trace span {span:.6g} s"
        )
    h = t[1] - t[0]
    steps_per_window = int(round(window / h))
    if steps_per_window < 1:
        raise ConfigurationError("window must cover at least one step")
    cums = np.zeros((t.shape[0], trace.num_subsystems))
    np.cumsum(excitation_segments(trace)[:, None] * _active(trace), axis=0, out=cums[1:])
    width = steps_per_window * h
    return (cums[steps_per_window:] - cums[:-steps_per_window]).T / width


def check_excitation_consistency(result: RunResult) -> CheckResult:
    """Online accumulators agree with post-hoc quadrature and never decrease.

    The accumulators integrate every RK4 stage, the trapezoid rule only the
    grid points, so each subsystem's tolerance is QUADRATURE_REL_TOL of its
    integral plus QUADRATURE_ERROR_SAFETY times the rule's error estimate.
    The value is the largest difference in units of its tolerance.
    """
    trace = result.trace
    increments = np.diff(trace.excitation, axis=0)
    nondecreasing = increments.size == 0 or float(increments.min()) >= 0.0
    final, quad = trace.excitation[-1], trapezoid_excitation(trace)
    scale = np.maximum(np.abs(final), 1e-30)
    allowance = QUADRATURE_ERROR_SAFETY * trapezoid_error_estimate(trace)
    ratios = np.abs(final - quad) / (QUADRATURE_REL_TOL * scale + allowance)
    i = int(np.argmax(ratios))
    return CheckResult(
        name="excitation_consistency",
        passed=nondecreasing and bool(ratios[i] <= 1.0),
        value=float(ratios[i]),
        threshold=1.0,
        detail=(
            f"online vs quadrature diff {ratios[i]:.3e} of its tolerance (subsystem {i + 1}: "
            f"rel diff {abs(final[i] - quad[i]) / scale[i]:.3e}, tol {QUADRATURE_REL_TOL:.1e} "
            f"+ {allowance[i] / scale[i]:.3e} for the trapezoid rule's error); "
            f"non-decreasing: {nondecreasing}"
        ),
    )


def oracle_checks(result: RunResult) -> list[CheckResult]:
    """The full verification battery for an ideal-mode diagnostic run."""
    return [
        check_decomposition(result),
        check_lre(result),
        check_mixing(result),
        check_freeze(result),
        check_monotone_decay(result),
        check_excitation_consistency(result),
    ]


def summarize(result: RunResult) -> dict:
    """Machine-readable run summary: final errors, excitation, determinant range."""
    trace = result.trace
    summary = {
        "mode": trace.meta.get("mode"),
        "model": trace.meta.get("model"),
        "seed": trace.meta.get("seed"),
        "t_end": trace.meta.get("t_end"),
        "rows": int(trace.data.shape[0]),
        "switch_count": max(0, len(trace.switch_times) - 1),
        "final_theta_error": trace.theta_error[-1].tolist(),
        "initial_theta_error": trace.theta_error[0].tolist(),
        "final_x_error": float(trace.x_error[-1]),
        "delta_min": float(trace.delta.min()),
        "delta_max": float(trace.delta.max()),
        "excitation_integrals": trace.excitation[-1].tolist(),
        "elapsed_seconds": result.elapsed_seconds,
    }
    span = trace.t[-1] - trace.t[0]
    if span > 0:
        window = min(PE_WINDOW, span)
        summary["pe_window"] = window
        summary["pe_min_window_means"] = excitation_window_means(trace, window).min(axis=1).tolist()
    return summary
