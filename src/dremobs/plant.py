"""Switched uncertain plant models, switching rules, and noise injection.

The plant has known linear part (A, B, C), a known output/input dependent
nonlinearity with an unknown parameter vector that switches between ``s``
candidate values, and a known switching signal.  Only a scalar output is
measured.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError, DimensionError, GainStabilityError
from .linalg import MAX_SIDE, as_matrix, as_vector, hurwitz_verdict

MASK64 = (1 << 64) - 1
XORSHIFT_MULTIPLIER = 0x2545F4914F6CDD1D  # xorshift64* output multiplier
STEP_MIX_CONSTANT = 0x9E3779B97F4A7C15  # odd 64-bit constant decorrelating step indices


def zero_input(t: float) -> float:
    return 0.0


@dataclass(frozen=True)
class OutputRegion:
    """Half-open or closed interval predicate on the scalar output."""

    lower: float | None = None
    upper: float | None = None
    lower_closed: bool = True
    upper_closed: bool = True

    def contains(self, y: float) -> bool:
        if self.lower is not None:
            if self.lower_closed:
                if y < self.lower:
                    return False
            elif y <= self.lower:
                return False
        if self.upper is not None:
            if self.upper_closed:
                if y > self.upper:
                    return False
            elif y >= self.upper:
                return False
        return True


@dataclass(frozen=True)
class StateRegionRule:
    """Subsystem selected by the first region (in declaration order) that
    contains the current output.  Region k activates subsystem k+1."""

    regions: tuple[OutputRegion, ...]

    def __post_init__(self):
        if not self.regions:
            raise ConfigurationError("a state-region rule needs at least one region")
        seam = _first_uncovered(self.regions)
        if seam is not None:
            raise ConfigurationError(
                f"regions leave outputs near y={seam:.6g} uncovered; "
                "they must cover the real line"
            )

    @property
    def num_subsystems(self) -> int:
        return len(self.regions)

    def subsystem_for(self, y: float, t: float) -> int:
        # Coverage is checked at construction, so a finite y always matches.
        for k, region in enumerate(self.regions, 1):
            if region.contains(y):
                return k
        raise ValueError(f"no region contains y={y}")


@dataclass(frozen=True)
class TimeScheduleRule:
    """Subsystem selected by a piecewise-constant schedule of (start, index)."""

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise ConfigurationError("a schedule rule needs at least one entry")
        times = [t for t, _ in self.entries]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError("schedule times must be strictly increasing")
        object.__setattr__(self, "_times", times)

    def subsystem_for(self, y: float, t: float) -> int:
        pos = bisect.bisect_right(self._times, t) - 1
        if pos < 0:
            raise ConfigurationError(
                f"schedule starts at t={self.entries[0][0]:.6g} but was queried at t={t:.6g}"
            )
        return self.entries[pos][1]


def _first_uncovered(regions) -> float | None:
    """Where the union of the regions first fails to cover the real line,
    or None when it covers all of it.

    Regions are swept in order of their lower ends (closed before open at a
    tie) while tracking how far the covered set reaches; an open end meeting
    an open end leaves the seam point itself uncovered.
    """
    spans = []
    for r in regions:
        lo = -math.inf if r.lower is None else r.lower
        hi = math.inf if r.upper is None else r.upper
        lo_closed = r.lower_closed or lo == -math.inf
        hi_closed = r.upper_closed or hi == math.inf
        if lo < hi or (lo == hi and lo_closed and hi_closed):
            spans.append((lo, not lo_closed, hi, hi_closed))
    reach = (-math.inf, True)  # (bound, bound itself covered)
    for lo, lo_open, hi, hi_closed in sorted(spans):
        if lo > reach[0] or (lo == reach[0] and lo_open and not reach[1]):
            return reach[0]
        reach = max(reach, (hi, hi_closed))
    return None if reach == (math.inf, True) else reach[0]


SwitchingRule = Union[StateRegionRule, TimeScheduleRule]


@dataclass(frozen=True)
class PlantModel:
    """Immutable plant description.

    ``psi(y, u)`` must return a new (n, m) array on every call: the
    simulation keeps the arrays of a whole chunk of steps.  ``b`` and ``c``
    are stored as length-n vectors (single input column, single output row).
    ``true_params`` stacks the s candidate parameter vectors as rows.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    psi: Callable[[float, float], np.ndarray]
    true_params: np.ndarray
    switching_rule: SwitchingRule
    initial_state: np.ndarray
    input_signal: Callable[[float], float] = zero_input
    name: str = "custom"

    def __post_init__(self):
        a = as_matrix(self.a, "A")
        n = a.shape[0]
        if a.shape != (n, n):
            raise DimensionError(f"A must be square, got {a.shape}")
        b = as_vector(self.b, "B")
        c = as_vector(self.c, "C")
        x0 = as_vector(self.initial_state, "initial state")
        if b.shape != (n,) or c.shape != (n,) or x0.shape != (n,):
            raise DimensionError("B, C and the initial state must all have length n")
        params = np.atleast_2d(np.asarray(self.true_params, dtype=float))
        if params.ndim != 2 or params.shape[0] < 1 or params.shape[1] < 1:
            raise DimensionError("true_params must stack at least one non-empty parameter vector")
        if not np.isfinite(params).all():
            raise ValueError("true_params contains non-finite entries")
        probe = np.asarray(self.psi(float(c @ x0), 0.0), dtype=float)
        if probe.shape != (n, params.shape[1]):
            raise DimensionError(
                f"psi must return an (n, m)=({n}, {params.shape[1]}) array, got {probe.shape}"
            )
        s = params.shape[0]
        if n + params.shape[1] > MAX_SIDE:
            raise ConfigurationError(
                f"m + n = {n + params.shape[1]} exceeds the supported maximum {MAX_SIDE}"
            )
        rule = self.switching_rule
        if isinstance(rule, StateRegionRule) and rule.num_subsystems != s:
            raise ConfigurationError(
                f"switching rule declares {rule.num_subsystems} regions "
                f"but there are {s} parameter vectors"
            )
        if isinstance(rule, TimeScheduleRule):
            for k, (_, index) in enumerate(rule.entries):
                if not 1 <= index <= s:
                    raise ConfigurationError(
                        f"switching.entries[{k}][1]: subsystem index {index} outside 1..{s}"
                    )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "initial_state", x0)
        object.__setattr__(self, "true_params", params)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.true_params.shape[1]

    @property
    def s(self) -> int:
        return self.true_params.shape[0]


def stable_closed_loop(model: PlantModel, gain, label: str = "gain") -> np.ndarray:
    """Closed-loop matrix A - gain C of an output-injection gain, screened
    by the Routh test: marginal or unstable loops raise GainStabilityError."""
    gain = as_vector(gain, label)
    if gain.shape != (model.n,):
        raise DimensionError(f"{label} must have length {model.n}, got {gain.shape}")
    a_closed = model.a - np.outer(gain, model.c)
    verdict = hurwitz_verdict(a_closed)
    if not verdict.stable:
        kind = "unstable"
        if verdict.indeterminate:
            kind = "indeterminate (marginal or out of float range)"
        raise GainStabilityError(f"{label} {gain.tolist()} gives an {kind} closed-loop matrix")
    return a_closed


@dataclass(frozen=True)
class NoiseSpec:
    """Bounded state disturbance plus bounded measurement noise.

    ``omega`` is the disturbance rate (None means zero).  It maps a (K, 1)
    column of times to the (K, n) array of the rates at those times, as
    ``make_sinusoid_disturbance`` does; the simulation evaluates it once per
    chunk of grid steps and checks this contract before integrating.
    Measurement noise is uniform on [-v0, v0], generated deterministically
    from (seed, step index).  ``lipschitz_psi`` is a declared constant used
    only for reporting.
    """

    v0: float = 0.0
    seed: int = 0
    omega: Callable[[np.ndarray], np.ndarray] | None = None
    omega_bound: float = 0.0
    lipschitz_psi: float = 0.0

    def __post_init__(self):
        if self.v0 < 0.0:
            raise ConfigurationError("noise bound v0 must be nonnegative")
        if self.omega_bound < 0.0:
            raise ConfigurationError("disturbance bound must be nonnegative")


def disturbance_rows(spec: NoiseSpec, n: int, times: np.ndarray) -> np.ndarray:
    """``spec.omega`` at a (K, 1) column of times, as a (K, n) float array.

    A callable that fails on the column or returns another shape raises
    ConfigurationError naming ``omega``.
    """
    contract = f"noise omega must map a (K, 1) column of times to a (K, {n}) array"
    try:
        rows = np.asarray(spec.omega(times), dtype=float)
    except Exception as exc:  # a user callable: any failure breaks the contract
        raise ConfigurationError(f"{contract}; at K = {len(times)} it raised {exc!r}") from exc
    if rows.shape != (len(times), n):
        raise ConfigurationError(f"{contract}; at K = {len(times)} it returned shape {rows.shape}")
    return rows


def sample_noise(spec: NoiseSpec, step_index):
    """Measurement-noise sample for one integration step, or one per entry
    of an array of step indices.

    A pure function of (seed, step index): the step index is decorrelated
    with a fixed odd constant, passed through one xorshift64* round, and the
    top 53 bits are mapped to the uniform interval [-v0, v0).  The integer
    steps wrap modulo 2**64.
    """
    steps = np.asarray(step_index, dtype=np.uint64)
    if spec.v0 == 0.0:
        return np.zeros(steps.shape)[()]
    x = np.atleast_1d(steps) + np.uint64(1)  # arrays: uint64 products wrap silently
    x *= np.uint64(STEP_MIX_CONSTANT)
    x ^= np.uint64(spec.seed & MASK64)
    x[x == 0] = STEP_MIX_CONSTANT
    x ^= x >> np.uint64(12)
    x ^= x << np.uint64(25)
    x ^= x >> np.uint64(27)
    x *= np.uint64(XORSHIFT_MULTIPLIER)
    u = (x >> np.uint64(11)).astype(float) / float(1 << 53)
    return (spec.v0 * (2.0 * u - 1.0)).reshape(steps.shape)[()]


# ---------------------------------------------------------------------------
# Chua-type chaotic oscillator preset.

CHUA_P0 = 10.0
CHUA_Q0 = 16.0
CHUA_R0 = 0.0385


_CHUA_PSI_ZERO = np.zeros((3, 2))


def _chua_psi(y: float, u: float) -> np.ndarray:
    out = _CHUA_PSI_ZERO.copy()
    out[0, 0] = -CHUA_P0 * y
    out[0, 1] = -CHUA_P0
    return out


def chua_preset() -> PlantModel:
    """Three-state chaotic oscillator with a piecewise-linear element.

    The piecewise-linear branch is absorbed into the switched parameter
    vector: each output region activates the parameter pair (slope, offset)
    of the corresponding branch, so the factored model reproduces the raw
    oscillator equations exactly.
    """
    a = np.array(
        [
            [-CHUA_P0, CHUA_P0, 0.0],
            [1.0, -1.0, 1.0],
            [0.0, -CHUA_Q0, -CHUA_R0],
        ]
    )
    regions = (
        OutputRegion(lower=1.0),
        OutputRegion(lower=-1.0, upper=1.0, lower_closed=False, upper_closed=False),
        OutputRegion(upper=-1.0),
    )
    return PlantModel(
        a=a,
        b=np.zeros(3),
        c=np.array([1.0, 0.0, 0.0]),
        psi=_chua_psi,
        true_params=np.array(
            [
                [-0.7143, -0.4286],
                [-1.1429, 0.0],
                [-0.7143, 0.4286],
            ]
        ),
        switching_rule=StateRegionRule(regions),
        initial_state=np.array([2.88, -0.066, -2.12]),
        name="chua",
    )


CHUA_FILTER_GAINS = np.array(
    [
        [0.0, -1.0, -15.0],
        [-2.0, 2.5, 20.0],
        [-2.0, 0.1, 1.0],
        [-0.4, -0.4, -8.0],
        [-8.0, 6.5, 18.0],
    ]
)

CHUA_OBSERVER_GAIN = np.array([-2.0, 2.5, 20.0])

CHUA_DISTURBANCE_AMPLITUDES = np.array([0.05, 0.005, 0.1])
CHUA_DISTURBANCE_FREQUENCIES = np.array([7.0, 5.0, 13.0])
CHUA_NOISE_BOUND = 0.1
CHUA_LIPSCHITZ_PSI = CHUA_P0  # ||psi(y,.) - psi(ybar,.)|| = p0 |y - ybar|


def make_sinusoid_disturbance(amplitudes, frequencies) -> Callable[[np.ndarray], np.ndarray]:
    amps = as_vector(amplitudes, "disturbance amplitudes")
    freqs = as_vector(frequencies, "disturbance frequencies")
    if amps.shape != freqs.shape:
        raise DimensionError("amplitudes and frequencies must have matching length")

    def omega(t):
        """Rates at a time, or (K, n) rates at a (K, 1) column of times."""
        return amps * np.sin(freqs * t)

    return omega


def chua_robust_noise(seed: int = 0) -> NoiseSpec:
    """Disturbance and measurement-noise setup for the robustness experiment."""
    return NoiseSpec(
        v0=CHUA_NOISE_BOUND,
        seed=seed,
        omega=make_sinusoid_disturbance(
            CHUA_DISTURBANCE_AMPLITUDES, CHUA_DISTURBANCE_FREQUENCIES
        ),
        omega_bound=float(np.linalg.norm(CHUA_DISTURBANCE_AMPLITUDES)),
        lipschitz_psi=CHUA_LIPSCHITZ_PSI,
    )
