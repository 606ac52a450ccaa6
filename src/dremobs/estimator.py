"""Gated element-wise adaptation law and excitation monitoring.

Mixing (see ``dremobs.linalg.Cofactors``) multiplies the stacked regression
by the adjugate of the regressor matrix, turning it into decoupled scalar
regressions scaled by the common determinant.  Only the parameters of the
currently active subsystem adapt; the rest stay frozen.  The trailing mixed
components correspond to the state-at-switch unknowns and are never
estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def adaptation_rates(gamma: np.ndarray, delta, zbar, active, m: int):
    """The gated law as affine rates of the active estimates, for any stack
    of stages.

    While subsystem i = active - 1 is active, its estimates move as
    d theta_i / dt = gamma_i * delta * (zbar[:m] - delta * theta_i), written
    as slope * theta_i + offset with slope = -gamma_i * delta^2 and
    offset = gamma_i * delta * zbar[:m], and its excitation accumulator
    grows at delta^2.  Every other subsystem stays frozen.  Mixed components
    beyond the first m (the state-at-switch block) are not adapted.
    ``active`` broadcasts against ``delta``; ``zbar`` has one more, trailing
    axis.  Returns (slope, offset, excitation rate).
    """
    gain_delta = np.asarray(gamma)[np.asarray(active) - 1] * delta
    return -gain_delta * delta, gain_delta[..., None] * zbar[..., :m], delta * delta


@dataclass(frozen=True)
class ExcitationReport:
    """Sliding-window excitation summary over a finished run.

    ``window_means[i, w]`` is the mean of the gated squared determinant of
    subsystem i over the window starting at ``window_starts[w]``.
    """

    window: float
    alpha0: float
    integrals: np.ndarray
    window_starts: np.ndarray
    window_means: np.ndarray
    min_means: np.ndarray
    all_windows_pass: np.ndarray


def excitation_endpoints(trace) -> tuple[np.ndarray, np.ndarray]:
    """The squared determinant at the start and at the end of each grid step.

    A step ending at a switch instant uses the pre-reset determinant from
    the trace header for its end, so the integrand's one-sided limit is
    used on both sides of each filter restart.
    """
    t = trace.t
    d2_left = trace.delta[:-1] ** 2
    d2_right = trace.delta[1:] ** 2
    for time, pre in zip(trace.switch_times, trace.pre_reset_delta):
        if np.isnan(pre):
            continue
        row = int(np.searchsorted(t, time))
        if 1 <= row < t.shape[0]:
            d2_right[row - 1] = pre * pre
    return d2_left, d2_right


def excitation_segments(trace) -> np.ndarray:
    """Trapezoid areas of the squared determinant over each grid step."""
    d2_left, d2_right = excitation_endpoints(trace)
    return 0.5 * np.diff(trace.t) * (d2_left + d2_right)


def pe_check(trace, window: float, alpha0: float) -> ExcitationReport:
    """Sliding-window means of the gated squared determinant, by the
    trapezoid rule of ``excitation_segments``."""
    if alpha0 <= 0.0:
        raise ConfigurationError("alpha0 must be positive")
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
    seg = excitation_segments(trace)
    sigma_step = trace.sigma[:-1]
    s = trace.num_subsystems
    cums = np.zeros((s, t.shape[0]))
    for i in range(s):
        cums[i, 1:] = np.cumsum(seg * (sigma_step == i + 1))
    width = steps_per_window * h
    means = (cums[:, steps_per_window:] - cums[:, :-steps_per_window]) / width
    starts = t[: t.shape[0] - steps_per_window]
    min_means = means.min(axis=1)
    return ExcitationReport(
        window=window,
        alpha0=alpha0,
        integrals=cums[:, -1].copy(),
        window_starts=starts,
        window_means=means,
        min_means=min_means,
        all_windows_pass=min_means >= alpha0,
    )
