"""Adaptive state observer setup and error metrics.

The observer (a plant copy driven by the active estimate plus output
injection) is advanced inside the simulation kernel, as the last block of
its cascade."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import as_vector
from .plant import PlantModel, stable_closed_loop


class ObserverState:
    """Observer estimate with output-injection gain (checked stable).

    The default initial estimate is the zero vector.
    """

    def __init__(self, gain, model: PlantModel, x_hat=None):
        self.a_closed = stable_closed_loop(model, gain, "observer gain")
        self.gain = as_vector(gain, "observer gain")
        if x_hat is None:
            self.x_hat = np.zeros(model.n)
        else:
            x_hat = as_vector(x_hat, "observer state")
            if x_hat.shape != (model.n,):
                raise DimensionError(f"observer state must have length {model.n}")
            self.x_hat = x_hat.copy()


@dataclass(frozen=True)
class ErrorMetrics:
    """Per-grid-point estimation error norms with activity annotation."""

    time: np.ndarray
    x_error: np.ndarray
    theta_error: np.ndarray  # (s, T)
    active: np.ndarray  # (s, T) bool


def error_metrics(trace, model: PlantModel) -> ErrorMetrics:
    """Recompute error norms from a trace and the ground-truth parameters."""
    if (trace.n, trace.m, trace.num_subsystems) != (model.n, model.m, model.s):
        raise DimensionError(
            "trace dimensions do not match the model "
            f"(trace n/m/s = {trace.n}/{trace.m}/{trace.num_subsystems})"
        )
    x_err = np.linalg.norm(trace.xhat - trace.x, axis=1)
    theta = trace.theta_hat  # (T, s, m)
    diff = theta - model.true_params[None, :, :]
    theta_err = np.linalg.norm(diff, axis=2).T  # (s, T)
    active = np.stack([trace.sigma == i + 1 for i in range(model.s)])
    return ErrorMetrics(time=trace.t, x_error=x_err, theta_error=theta_err, active=active)
