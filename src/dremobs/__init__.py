"""Simulation library for adaptive observers of plants with switched unknown
parameters: auxiliary filter banks, regressor extension and mixing, gated
element-wise adaptation, and excitation monitoring."""

from .errors import (
    ConfigurationError,
    GainStabilityError,
    SimulationAbort,
    TraceFormatError,
)
from .linalg import (
    StabilityVerdict,
    characteristic_polynomial,
    det_adjugate_batch,
    hurwitz_verdict,
    routh_verdict,
)
from .plant import (
    NoiseSpec,
    OutputRegion,
    PlantModel,
    StateRegionRule,
    TimeScheduleRule,
    chua_preset,
    chua_robust_noise,
    sample_noise,
)
from .sim import (
    Diagnostics,
    ExperimentConfig,
    RunResult,
    StateLayout,
    StepConfig,
    SwitchEvent,
    adaptation_rates,
    run_experiment,
)
from .trace import SimulationTrace, read_trace, traces_equal, write_trace
from .verification import excitation_window_means

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "GainStabilityError",
    "SimulationAbort",
    "TraceFormatError",
    "StabilityVerdict",
    "characteristic_polynomial",
    "det_adjugate_batch",
    "hurwitz_verdict",
    "routh_verdict",
    "NoiseSpec",
    "OutputRegion",
    "PlantModel",
    "StateRegionRule",
    "TimeScheduleRule",
    "chua_preset",
    "chua_robust_noise",
    "sample_noise",
    "Diagnostics",
    "ExperimentConfig",
    "RunResult",
    "StateLayout",
    "StepConfig",
    "SwitchEvent",
    "adaptation_rates",
    "run_experiment",
    "SimulationTrace",
    "read_trace",
    "traces_equal",
    "write_trace",
    "excitation_window_means",
]
