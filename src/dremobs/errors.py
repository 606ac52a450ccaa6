"""Exception types shared across the package."""

from __future__ import annotations

import math


class ConfigurationError(ValueError):
    """A model, rule, or experiment configuration is invalid."""


class GainStabilityError(ConfigurationError):
    """An injection gain fails the closed-loop stability requirement."""


class TraceFormatError(ValueError):
    """A trace file does not conform to the documented CSV layout."""


class SimulationAbort(RuntimeError):
    """The integrator produced a non-finite value and the run was stopped.

    Attributes:
        time: simulation time at which the abort was detected.
        component: name of the first offending state component.
        adaptation_step: the largest gated adaptation step
            h * gamma_i * delta^2 over the chunk of grid steps that aborted
            (NaN when not measured).
        stability_limit: RK4's real-axis stability limit, against which the
            message judges ``adaptation_step``.
    """

    def __init__(
        self,
        time: float,
        component: str,
        adaptation_step: float = math.nan,
        stability_limit: float = math.nan,
    ):
        message = f"simulation aborted at t={time:.6g}: non-finite value in component '{component}'"
        if not math.isnan(adaptation_step):
            relation = "past" if adaptation_step > stability_limit else "within"
            message += (
                f"; the gated adaptation step h*gamma*delta^2 reached {adaptation_step:.3g}"
                f" in the aborting chunk, {relation} RK4's real-axis stability limit"
                f" {stability_limit:.4g}"
            )
        super().__init__(message)
        self.time = time
        self.component = component
        self.adaptation_step = adaptation_step
        self.stability_limit = stability_limit
