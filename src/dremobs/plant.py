"""Switched uncertain plant models, switching rules, and noise injection.

The plant has known linear part (A, B, C), a known output/input dependent
nonlinearity with an unknown parameter vector that switches between ``s``
candidate values, and a known switching signal.  Only a scalar output is
measured.
"""

from __future__ import annotations

import bisect
import math
import numbers
import reprlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Union

import numpy as np

from .errors import ConfigurationError
from .linalg import MAX_SIDE

MASK64 = (1 << 64) - 1
XORSHIFT_MULTIPLIER = 0x2545F4914F6CDD1D  # xorshift64* output multiplier
STEP_MIX_CONSTANT = 0x9E3779B97F4A7C15  # odd 64-bit constant decorrelating step indices


def zero_input(t: float) -> float:
    return 0.0


def _as_float(value) -> float | None:
    """``value`` as a float when it is a real number and not a bool, an
    integer beyond the float range as an infinity; else None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def checked_number(name: str, value) -> float:
    """``value`` as a float: a real number, not a bool, within the float
    range and finite; else ConfigurationError ``<name>: expected a number,
    got ...`` or ``<name>: expected a finite number, got ...``.  This is the
    package's one test of an input number."""
    number = _as_float(value)
    if number is None:
        raise ConfigurationError(f"{name}: expected a number, got {reprlib.repr(value)}")
    if not math.isfinite(number):
        raise ConfigurationError(f"{name}: expected a finite number, got {number}")
    return number


def checked_array(name: str, value, shape: tuple, rule: str | None = None) -> np.ndarray:
    """``value`` as a read-only float copy, so a checked input cannot change
    afterwards, of ``shape`` (``None`` is any length): nested lists as deep
    as the shape is long, each entry passing ``checked_number`` under its
    index (``name[0][1]``).  Else ConfigurationError ``<path>: <reason>``,
    the reason for a wrong shape being ``rule`` when given."""

    def entries(path, node, depth):
        if depth == len(shape):
            return checked_number(path, node)
        if not (isinstance(node, (list, tuple)) or isinstance(node, np.ndarray) and node.ndim):
            raise ConfigurationError(f"{path}: expected a list, got {reprlib.repr(node)}")
        return [entries(f"{path}[{k}]", entry, depth + 1) for k, entry in enumerate(node)]

    # An ndarray of another depth has the wrong shape whatever its entries.
    array = value
    if not isinstance(value, np.ndarray) or value.ndim == len(shape):
        nested = entries(name, value, 0)
        try:
            array = np.array(nested, dtype=float)
        except ValueError:  # numpy cannot stack lists of unequal lengths
            raise ConfigurationError(f"{name}: expected a rectangular array, got lists of unequal lengths") from None
    if array.ndim != len(shape) or any(want not in (None, got) for got, want in zip(array.shape, shape)):
        rule = rule or f"expected shape {shape}"
        raise ConfigurationError(f"{name}: {rule}, got shape {array.shape}")
    array.setflags(write=False)
    return array


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
            raise ConfigurationError("regions: a state-region rule needs at least one region")
        regions = []
        for k, region in enumerate(self.regions):
            bounds = {}
            for side in ("lower", "upper"):
                bound = getattr(region, side)
                number = None if bound is None else _as_float(bound)
                if bound is not None and (number is None or math.isnan(number)):
                    raise ConfigurationError(
                        f"regions[{k}].{side}: bound {reprlib.repr(bound)} is neither None nor a number"
                    )
                bounds[side] = number
                flag = getattr(region, f"{side}_closed")
                if not isinstance(flag, bool):
                    raise ConfigurationError(
                        f"regions[{k}].{side}_closed: expected True or False, got {reprlib.repr(flag)}"
                    )
                # An infinite end is closed, as the coverage sweep takes it.
                bounds[f"{side}_closed"] = flag or number == (math.inf if side == "upper" else -math.inf)
            regions.append(replace(region, **bounds))
        object.__setattr__(self, "regions", tuple(regions))
        seam = _first_uncovered(self.regions)
        if seam is not None:
            raise ConfigurationError(
                f"regions: outputs near y={seam:.6g} are left uncovered; "
                "they must cover the real line"
            )

    @property
    def num_subsystems(self) -> int:
        return len(self.regions)

    def subsystem_for(self, y: float, t: float) -> int:
        # The regions cover the real line and its infinities, and NaN fails
        # every bound test, so the loop stops at a region for any y, at the
        # first for NaN.  It runs once per grid step, where next() over a
        # generator would cost about 0.7 us more.
        for k, region in enumerate(self.regions, 1):
            if region.contains(y):
                break
        return k


@dataclass(frozen=True)
class TimeScheduleRule:
    """Subsystem selected by a piecewise-constant schedule of (start, index)."""

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise ConfigurationError("entries: a schedule rule needs at least one entry")
        entries = tuple(
            (checked_number(f"entries[{k}][0]", start), index)
            for k, (start, index) in enumerate(self.entries)
        )
        times = [t for t, _ in entries]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError("entries: schedule times must be strictly increasing")
        object.__setattr__(self, "entries", entries)
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

    ``psi`` maps a float output and input ``(y, u)`` to an (n, m) array, and
    two (K,) arrays of outputs and inputs to the (K, n, m) array whose rows
    equal the K scalar calls value for value, as ``_chua_psi`` does.  The
    plant loop calls it on floats once per stage; the filter bank and the
    observer take it at the measured outputs of a whole chunk of stages in
    one array call; no array it returns is kept past that stage or chunk,
    so it may return the same buffer each time.  The contract is checked
    when the model is built.  ``b`` and ``c`` are stored as length-n vectors
    (single input column, single output row).  ``true_params`` stacks the s
    candidate parameter vectors as rows.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    psi: Callable[[Any, Any], np.ndarray]
    true_params: np.ndarray
    switching_rule: SwitchingRule
    initial_state: np.ndarray
    input_signal: Callable[[float], float] = zero_input
    name: str = "custom"

    def __post_init__(self):
        """Errors name the field at fault first, as ``<field>: <reason>``,
        by its key in the JSON schema."""
        square = "expected a non-empty square matrix"
        a = checked_array("a", self.a, (None, None), square)
        n = a.shape[0]
        if a.shape != (n, n) or not n:
            raise ConfigurationError(f"a: {square}, got shape {a.shape}")
        b, c, x0 = (
            checked_array(key, getattr(self, key), (n,), f"expected length n = {n}")
            for key in ("b", "c", "initial_state")
        )
        vectors = "expected s >= 1 parameter vectors of length m >= 1 as rows"
        params = checked_array("true_params", self.true_params, (None, None), vectors)
        s, m = params.shape
        if not s * m:
            raise ConfigurationError(f"true_params: {vectors}, got shape {params.shape}")
        if n + m > MAX_SIDE:
            raise ConfigurationError(
                f"true_params: m + n = {n + m} exceeds the supported maximum {MAX_SIDE}"
            )
        # An output beyond the float range is an expected outcome here.
        with np.errstate(over="ignore", invalid="ignore"):
            y0 = float(c @ x0)
        if not math.isfinite(y0):
            raise ConfigurationError(
                f"initial_state: its output c x0 = {y0} is not finite; "
                "the switching rule and psi need a finite output"
            )
        _check_psi(self.psi, n, m, y0)
        rule = self.switching_rule
        if isinstance(rule, StateRegionRule) and rule.num_subsystems != s:
            raise ConfigurationError(
                f"switching.regions: {rule.num_subsystems} regions "
                f"for {s} parameter vectors; region k activates subsystem k+1"
            )
        if isinstance(rule, TimeScheduleRule):
            for k, (_, index) in enumerate(rule.entries):
                if not isinstance(index, numbers.Integral) or isinstance(index, bool):
                    raise ConfigurationError(
                        f"switching.entries[{k}][1]: subsystem index {index!r} is not an integer"
                    )
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


def _check_psi(psi, n: int, m: int, y0: float) -> None:
    """Raise ConfigurationError naming ``psi`` unless it maps a float pair
    to an (n, m) array and (K,) arrays to the (K, n, m) array of the K
    scalar calls, probed at the initial output and at a second point."""
    contract = (
        f"psi: must map floats (y, u) to an ({n}, {m}) array and (K,) arrays to a "
        f"(K, {n}, {m}) array equal to the K scalar calls"
    )
    ys, us = [y0, y0 + 1.0], [0.0, 0.5]
    try:
        single = [np.array(psi(y, u), dtype=float) for y, u in zip(ys, us)]
        rows = np.array(psi(np.array(ys), np.array(us)), dtype=float)
    except Exception as exc:  # a user callable: any failure breaks the contract
        raise ConfigurationError(f"{contract}; it raised {exc!r}") from exc
    for probe in single:
        if probe.shape != (n, m):
            raise ConfigurationError(f"{contract}; a scalar call returned shape {probe.shape}")
    if rows.shape != (2, n, m):
        raise ConfigurationError(f"{contract}; at K = 2 it returned shape {rows.shape}")
    if not np.array_equal(rows, single, equal_nan=True):
        raise ConfigurationError(f"{contract}; at K = 2 its rows differ from the scalar calls")


@dataclass(frozen=True)
class NoiseSpec:
    """Bounded state disturbance plus bounded measurement noise.

    ``omega`` is the disturbance rate (None means zero).  It maps a (K, 1)
    column of times to the (K, n) array of the rates at those times, as
    ``make_sinusoid_disturbance`` does; the simulation evaluates it once per
    chunk of grid steps, and ``ExperimentConfig`` checks this contract.
    Measurement noise is uniform on [-v0, v0], generated deterministically
    from (seed, step index); the disturbance does not depend on the seed.
    """

    v0: float = 0.0
    seed: int = 0
    omega: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        """Errors name the field at fault first, as ``<field>: <reason>``."""
        object.__setattr__(self, "v0", checked_number("v0", self.v0))
        if self.v0 < 0.0:
            raise ConfigurationError(f"v0: noise bound {self.v0} must be nonnegative")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ConfigurationError(f"seed: {reprlib.repr(self.seed)} is not an integer")
        # The noise stream masks the seed to 64 bits, which a numpy integer
        # cannot hold; its int gives the same stream.
        object.__setattr__(self, "seed", int(self.seed))


def disturbance_rows(spec: NoiseSpec, n: int, times: np.ndarray) -> np.ndarray:
    """``spec.omega`` at a (K, 1) column of times, as a (K, n) float array.

    A callable that fails on the column or returns another shape raises
    ConfigurationError naming ``omega``.
    """
    contract = f"omega: must map a (K, 1) column of times to a (K, {n}) array"
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


def _chua_psi(y, u):
    """(n, m) = (3, 2) regressor of a float output, or the (K, 3, 2) stack of
    a (K,) array of outputs; only the first row is nonzero."""
    if isinstance(y, np.ndarray):
        out = np.zeros((len(y), 3, 2))
        out[:, 0, 0] = -CHUA_P0 * y
        out[:, 0, 1] = -CHUA_P0
        return out
    out = np.zeros((3, 2))
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


def make_sinusoid_disturbance(amplitudes, frequencies) -> Callable[[np.ndarray], np.ndarray]:
    """Disturbance rate amplitudes * sin(frequencies * t), componentwise."""
    amps = checked_array("amplitudes", amplitudes, (None,))
    if not amps.size:
        raise ConfigurationError(f"amplitudes: expected at least one amplitude, got shape {amps.shape}")
    freqs = checked_array("frequencies", frequencies, amps.shape, "expected one per amplitude")

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
    )
