"""Fixed-step hybrid simulation of the plant / filter / estimator / observer
cascade.

A run is described by one ``ExperimentConfig``, whose inputs are all
checked when it is built (the model's and the noise's by those objects),
and ``run_experiment`` runs it.

Signals flow one way: the plant drives the filter bank through the measured
output, the filters feed the mixing, the mixing feeds the gated adaptation,
and the adaptation feeds the observer.  Nothing flows back into the plant or
the switching signal.  Classical RK4 applied to such a cascade equals RK4
applied block by block in cascade order, so the integrator is split:

* The plant alone is stepped stage by stage.  Each stage evaluates the
  nonlinearity at the true output and records that output and the input;
  per chunk, the measured outputs are formed from them and the held noise,
  and the nonlinearity at the measured outputs is one array call.
  Switching is detected on the grid: when the rule's output changes at a
  grid point, that grid time is the switching instant, the filter bank
  restarts (zero filters, identity transition factor) before the next step,
  and the row is recorded.  The plant's rounding is part of its
  behaviour, so its loop keeps every floating-point operation and their
  order: rate ((A x + psi(y, u) theta) + B u) + omega (the B u term only
  when B has a nonzero entry, omega only with a disturbance), stages
  k h/2 + x and k h + x, step x + ((((k2 + k3) 2 + k1) + k4) h/6).  The
  three products C x, A x and psi theta are BLAS calls; the glue around
  them runs on Python floats, the same IEEE operations, as one scalar
  expression per state component in a step loop generated and compiled
  once per model shape (n, whether B has a nonzero entry, whether there is
  a disturbance); a step's stage-1 output is the C x its predecessor
  computed for the switch check, the trace's y of its row; the
  disturbance is evaluated once per chunk at the steps' start, middle and
  end times.
* Every ``CHUNK`` steps the downstream blocks advance over the whole chunk.
  Each is affine in its own state, so one RK4 step is an exact affine
  recurrence whose coefficients are computed from the recorded signals for
  all steps at once:

  - filter bank: F_{k+1} = P(h Acl_j) F_k + D_k with stage values
    M_s F_k + G_{k,s}; the transition factor has D = 0, so it advances by
    the RK4 polynomial alone;
  - mixing: the determinant and the m adapted adjugate rows of every
    stage's regressor stack, in one call to ``det_adjugate_rows``;
  - adaptation: theta_{k+1} = theta_k + (g_k theta_k + beta_k) on the active
    row only, so inactive rows keep their bits;
  - excitation accumulators: a masked cumulative sum;
  - observer: xhat_{k+1} = P(h Acl_o) xhat_k + D_k.

  The filters and the observer are the same kind of loop, A - g c with
  another gain, so their closed loops and RK4 stage and step polynomials
  are built as one stack of m+n+1 gains (``_injection_loops``), which
  ``ExperimentConfig`` screens gain by gain and the cascade slices.  The
  bank and the observer advance through one [P | I] matrix each
  (``_step_matrix``), one product per step in one loop (``_recur``): a
  gemm on the bank's panels, a gemv on the observer's state.

The run state is chunk-resident: the trace is the only store with a row per
grid point, and its row lo is the state each chunk starts from.  The block
that computes a column's values writes them into it: the plant x, y and the
active subsystem sigma, the run ybar, the cascade z, delta and its
estimates, accumulators and observer states.  The error norms and the
diagnostics are computed from the trace, a chunk at a time, with the
chunk's filter panels; the diagnostics, the last row and the pre-reset
determinants mix each grid row through the law's own mixing, in its
storage, with all m+n adjugate rows (``_Cascade.grid_row``), so the mixing
oracle checks what the law computed.  The run keeps only the rows where the
filter bank restarted and the determinants just before; the switch instants
and the events are read from the trace at those rows.

Measurement noise is a pure function of (seed, grid step), sampled where the
measured outputs are formed and held constant across the four stages of
that step, so identical configurations and seeds reproduce bit-identical
runs; the plant never reads it.  A non-finite grid state aborts the run at
the earliest such grid row, naming its first non-finite component and the
chunk's largest adaptation step h * gamma_i * delta^2 against RK4's
real-axis stability limit.
"""

from __future__ import annotations

import functools
import math
import numbers
import time as _time
from dataclasses import dataclass

import numpy as np

from .errors import RK4_STABILITY_LIMIT, ConfigurationError, GainStabilityError, SimulationAbort
from .linalg import _matmul_ew, _mixing_cofactors, det_adjugate_rows, hurwitz_verdict, unit_disc_verdict
from .plant import (
    NoiseSpec,
    PlantModel,
    TimeScheduleRule,
    checked_array,
    checked_number,
    disturbance_rows,
    sample_noise,
)
from .trace import SimulationTrace, column_names

# Grid steps per downstream pass, sized to bound the per-chunk buffers.
# Every grid value is summed in an order that does not depend on it.
CHUNK = 128

# Largest number of grid rows a run may record, start row included; the
# README gives the reason for the value.
MAX_TRACE_ROWS = 10_000_000

# Adaptation gain of every subsystem whose gain is not given.
DEFAULT_GAIN = 10.0


@dataclass(frozen=True)
class StepConfig:
    """Fixed integration grid.  The horizon is rounded up to a whole number
    of steps."""

    step_size: float
    end_time: float
    start_time: float = 0.0

    def __post_init__(self):
        """Errors name the field at fault first, as ``<field>: <reason>``."""
        for name in ("step_size", "end_time", "start_time"):
            object.__setattr__(self, name, checked_number(name, getattr(self, name)))
        if not self.step_size > 0.0:
            raise ConfigurationError(f"step_size: must be positive, got {self.step_size}")
        if self.end_time < self.start_time:
            raise ConfigurationError("end_time: must not precede start_time")
        span = self.end_time - self.start_time
        if not span / self.step_size < MAX_TRACE_ROWS or self.num_steps + 1 > MAX_TRACE_ROWS:
            raise ConfigurationError(
                f"end_time: a horizon of {span:.6g} s at step {self.step_size:.6g} s needs "
                f"{span / self.step_size + 1:.6g} trace rows, above the limit {MAX_TRACE_ROWS}"
            )
        # A grid time t0 + q h is rounded twice, q h and then the sum.  Both
        # are at most twice the largest exact time T, so each rounding is off
        # by at most ulp(T), and exact neighbours, h apart, stay strictly
        # ordered when h > 4 ulp(T).  ulp(2 L) of the computed largest time L
        # bounds ulp(T) even where T rounded down into a lower binade.
        largest = max(abs(self.start_time), abs(self.effective_end))
        if self.num_steps and not self.step_size > 4.0 * math.ulp(2.0 * largest):
            raise ConfigurationError(
                f"start_time: grid times near {largest:.17g} lie {math.ulp(largest):.6g} apart, "
                f"so a step of {self.step_size:.6g} s cannot keep t0 + q h strictly "
                f"increasing; the step must exceed {4.0 * math.ulp(2.0 * largest):.6g} s"
            )

    @property
    def num_steps(self) -> int:
        ratio = (self.end_time - self.start_time) / self.step_size
        nearest = round(ratio)
        if abs(ratio - nearest) < 1e-6:
            return int(nearest)
        return int(math.ceil(ratio))

    @property
    def effective_end(self) -> float:
        return self.start_time + self.num_steps * self.step_size


@dataclass(frozen=True)
class ExperimentConfig:
    """One run, fully described: the plant, the m+n filter gains and the
    observer gain, the grid, one adaptation gain per subsystem, the initial
    estimates, and the noise.  A run with noise is a robust run, recorded
    with the noise's seed; a run without it is an ideal run, with no seed.

    Unset gains are ``DEFAULT_GAIN`` and unset initial estimates zero.
    The model and the noise check their own fields when they are built;
    every other check on the run's inputs is made here, once, when the
    config is built, and the run takes them as checked.  Errors name the
    field at fault first, as ``<field>: <reason>``, by its key in the JSON
    schema (the model's key is ``plant``).
    """

    model: PlantModel
    filter_gains: np.ndarray
    observer_gain: np.ndarray
    step: StepConfig
    gamma: np.ndarray | None = None
    theta_init: np.ndarray | None = None
    observer_init: np.ndarray | None = None
    noise: NoiseSpec | None = None

    def __post_init__(self):
        model, step = self.model, self.step
        n, m, s = model.n, model.m, model.s
        arrays = {
            "filter_gains": ((m + n, n), None),
            "observer_gain": ((n,), None),
            "gamma": ((s,), np.full(s, DEFAULT_GAIN)),
            "theta_init": ((s, m), np.zeros((s, m))),
            "observer_init": ((n,), np.zeros(n)),
        }
        bank_rule = f"the bank needs exactly m + n = {m + n} gains of length {n}"
        for name, (shape, default) in arrays.items():
            value = getattr(self, name)
            rule = bank_rule if name == "filter_gains" else None
            array = checked_array(name, default if value is None else value, shape, rule)
            object.__setattr__(self, name, array)
        if not (self.gamma > 0.0).all():
            raise ConfigurationError("gamma: entries must be positive")
        # Each gain in turn, filters first: a filter gain equal to an earlier
        # one repeats its regressor row, so the mixing determinant stays
        # zero; the closed loop A - g c must be Hurwitz, and the RK4 step
        # polynomial P(h Acl) that advances the discretised filter or
        # observer must have every eigenvalue inside the unit circle.
        gains, acl, _, step_off = _injection_loops(self)
        for k, label in enumerate([f"filter_gains[{j}]" for j in range(m + n)] + ["observer_gain"]):
            gain, earlier = gains[k].tolist(), gains[:k].tolist() if k < m + n else []
            if gain in earlier:
                raise ConfigurationError(
                    f"{label}: equal to filter_gains[{earlier.index(gain)}], so the two filters "
                    f"give the same regressor row and the mixing determinant stays zero"
                )
            verdict = hurwitz_verdict(acl[k])
            if not verdict.stable:
                kind = "indeterminate (marginal or out of float range)" if verdict.indeterminate else "unstable"
                raise GainStabilityError(f"{label}: {gain} gives an {kind} closed-loop matrix")
            verdict = unit_disc_verdict(step_off[k])
            if not verdict.stable:
                kind = "beyond the float range" if verdict.indeterminate else "of spectral radius 1 or more"
                raise GainStabilityError(
                    f"{label}: {gain} at step_size {step.step_size:.6g} gives an RK4 step "
                    f"polynomial P(h Acl) {kind}, so the discretised loop diverges; a smaller "
                    f"step is needed"
                )
        probe_times = [step.start_time, step.start_time + step.step_size]
        if self.noise is not None and self.noise.omega is not None:
            try:
                disturbance_rows(self.noise, n, np.array(probe_times)[:, None])
            except ConfigurationError as exc:
                raise ConfigurationError(f"noise.{exc}") from exc
        for t in probe_times:
            try:
                u = model.input_signal(t)
            except Exception as exc:  # a user callable: any failure breaks the contract
                raise ConfigurationError(
                    f"plant.input_signal: at t={t:.6g} it raised {exc!r}"
                ) from exc
            if not isinstance(u, numbers.Real):
                raise ConfigurationError(
                    f"plant.input_signal: must map a time to a real scalar; "
                    f"at t={t:.6g} it returned {u!r}"
                )
        rule = model.switching_rule
        if isinstance(rule, TimeScheduleRule) and rule.entries[0][0] > step.start_time:
            raise ConfigurationError(
                f"plant.switching.entries[0][0]: the schedule starts at "
                f"t={rule.entries[0][0]:.6g}, after start_time {step.start_time:.6g}"
            )


class StateLayout:
    """Dimensions of the run state: plant and observer states (n each), the
    m+n filter units, the s x m estimates and the s excitation accumulators.
    ``size`` counts its floats.

    Unit j is the filter with injection gain ``filter_gains[j]``, one
    (n, 1+m+n) panel [xu | upsilon | phi], so the whole bank advances with
    a single batched product.
    """

    def __init__(self, n: int, m: int, s: int):
        self.n, self.m, self.s = n, m, s
        self.mn = m + n
        self.panel = 1 + m + n  # columns per unit: xu, upsilon block, phi block
        self.size = 2 * n + self.mn * n * self.panel + s * m + s

    def filter_reset_template(self) -> np.ndarray:
        """Panel content right after a restart: zero filters, identity phi."""
        template = np.zeros((self.mn, self.n, self.panel))
        template[:, :, 1 + self.m :] = np.eye(self.n)
        return template


@dataclass(frozen=True)
class SwitchEvent:
    """Reset event: time, newly active subsystem, and the true plant state
    at that instant (the ground truth for the augmented parameter)."""

    time: float
    subsystem: int
    state: np.ndarray
    delta_before: float  # mixing determinant just before the reset; NaN at t0


@dataclass(frozen=True)
class Diagnostics:
    """Ground-truth residual series collected alongside a run, one row per
    grid point, over the m+n filters j; theta_bar = [theta_sigma; x(t_k)]
    is the augmented parameter."""

    decomposition_residual: np.ndarray  # max_j |x - phi_j x(t_k) - xu_j - upsilon_j theta_sigma|
    lre_residual_max: np.ndarray  # max_j |z_j - row_j . theta_bar|
    dbar: np.ndarray  # (T, m+n) mixed-equation residual adj(N) z - delta theta_bar


@dataclass(frozen=True)
class RunResult:
    trace: SimulationTrace
    events: list[SwitchEvent]
    model: PlantModel
    layout: StateLayout
    final_panels: np.ndarray  # (m+n, n, 1+m+n) filter bank at the last row
    elapsed_seconds: float
    diagnostics: Diagnostics | None = None


def _rk4_offsets(h: float, apply, forcing):
    """One RK4 step of z' = A_s z + e_s from z = 0, with ``apply(s, z)``
    computing A_s z and ``forcing[s]`` = e_s for the four stages s.

    Returns the offsets of the stage values of stages 2-4 and of the step's
    end value.  A step of the affine system from z_k is the step of the
    homogeneous system (the same routine with forcing A_s) plus these
    offsets.
    """
    w1 = forcing[0]
    g2 = (0.5 * h) * w1
    w2 = apply(1, g2) + forcing[1]
    g3 = (0.5 * h) * w2
    w3 = apply(2, g3) + forcing[2]
    g4 = h * w3
    w4 = apply(3, g4) + forcing[3]
    return (g2, g3, g4), (h / 6.0) * (w1 + 2.0 * (w2 + w3) + w4)


def _injection_loops(cfg: ExperimentConfig):
    """The output-injection loops of a run, filters and observer alike: the
    stack of its m+n filter gains and then its observer gain (m+n+1, n),
    their closed loops A - g c, and the offsets M_s - I of their RK4 stage
    polynomials (stages 2-4) and P - I of their step polynomials at the
    run's step, each (m+n+1, n, n).  A loop or polynomial beyond the float
    range is an expected outcome for a gain not yet screened."""
    gains = np.vstack([cfg.filter_gains, cfg.observer_gain])
    with np.errstate(over="ignore", invalid="ignore"):
        acl = cfg.model.a - gains[:, :, None] * cfg.model.c
        stage_off, step_off = _rk4_offsets(cfg.step.step_size, lambda s, z: acl @ z, (acl,) * 4)
    return gains, acl, stage_off, step_off


def _step_matrix(step_off: np.ndarray) -> np.ndarray:
    """[P | I] for J loops of side n with step polynomial offsets
    ``step_off`` (J, n, n), each P_j = I + offset_j a block of the diagonal
    of P: one product with the loops' states stacked over their drives
    advances every recurrence z <- P_j z + d."""
    loops, n = step_off.shape[:2]
    matrix = np.zeros((loops, n, 2, loops, n))
    for j, poly in enumerate(np.eye(n) + step_off):
        matrix[j, :, 0, j], matrix[j, :, 1, j] = poly, np.eye(n)
    return matrix.reshape(loops * n, 2 * loops * n)


def _recur(step_matrix: np.ndarray, buffer: np.ndarray, resets=(), restart=None) -> dict:
    """Advance z_{k+1} = [P | I] [z_k; d_k] through ``buffer`` (K+1, 2 units
    or (K+1, 2 units, columns)), whose row k holds z_k over the drive d_k,
    writing z_{k+1} over the first half of row k+1.  A row counted in
    ``resets`` restarts at ``restart`` after its step; returns the states
    those rows had before, by row, in the shape of ``restart``."""
    units, advance, pre_reset = len(step_matrix), step_matrix.dot, {}
    for k in range(len(buffer) - 1):
        nxt = buffer[k + 1, :units]
        advance(buffer[k], nxt)
        if k + 1 in resets:
            pre_reset[k + 1] = nxt.reshape(restart.shape).copy()
            nxt[...] = restart.reshape(nxt.shape)
    return pre_reset


def _step_loop_source(n: int, has_b: bool, has_omega: bool) -> str:
    """Source of the plant's step loop for one model shape, every state
    component a Python float of its own; see ``_step_loop``."""
    def each(template: str, sep: str = ", ") -> str:
        return sep.join(template.format(i=i) for i in range(n))

    def stage(s: int, u: str, omega: str | None) -> list[str]:
        # rate ((A x + psi(y, u) theta) + B u) + omega at the stage point;
        # stage 3 reuses stage 2's disturbance row (omega None).
        point = "x" if s == 1 else "z"
        output = "y" if s == 1 else f"y{s}"
        lines = [
            f"({each('a{i}')},) = dot_a({point}).tolist()",
            f"({each('p{i}')},) = psi({output}, {u}).dot(theta).tolist()",
        ]
        if has_omega and omega is not None:
            lines.append(f"({each('w{i}')},) = {omega}")
        for i in range(n):
            rate = f"a{i} + p{i}"
            if has_b:
                rate += f" + b{i} * {u}"
            if has_omega:
                rate += f" + w{i}"
            lines.append(f"f{s}_{i} = {rate}")
        return lines

    def point(s: int, step: str) -> list[str]:
        # stage point k h/2 + x (k h + x for the last stage), written into
        # the buffer z that only the products read, and its output.
        return [
            *(f"z[{i}] = x{i} + f{s - 1}_{i} * {step}" for i in range(n)),
            f"y{s} = float(dot_c(z))",
        ]

    omegas = ", om_start, om_half, om_end" if has_omega else ""
    body = [
        "q = lo + k",
        "t = t0 + q * h",
        "u = u_fn(t)",
        *stage(1, "u", "om_start[k]"),
        "u_half = u_fn(t + half)",
        *point(2, "half"),
        *stage(2, "u_half", "om_half[k]"),
        *point(3, "half"),
        *stage(3, "u_half", None),
        *point(4, "h"),
        "u_end = u_fn(t + h)",
        *stage(4, "u_end", "om_end[k]"),
        "outputs += (y, y2, y3, y4)",
        "inputs += (u, u_half, u_half, u_end)",
        *(f"x{i} = x{i} + ((f2_{i} + f3_{i}) * 2.0 + f1_{i} + f4_{i}) * sixth" for i in range(n)),
        f"states.append(({each('x{i}')},))",
        f"x = array(({each('x{i}')},))",
        "y = float(dot_c(x))",
        f"if not isfinite(y) and not ({each('isfinite(x{i})', ' and ')}):",
        "    reached = q + 1",
        "    break",
        "target = rule_for(y, t0 + (q + 1) * h)",
        "if target != active:",
        "    switches.append(q + 1)",
        "    active, theta = target, params[target - 1]",
        "actives.append(active)",
    ]
    lines = [
        f"def steps(plant, x, y, active, lo, hi{omegas}):",
        "    h, t0, u_fn, psi = plant.h, plant.t0, plant.u_fn, plant.psi",
        "    dot_a, dot_c, rule_for, params = plant.dot_a, plant.dot_c, plant.rule_for, plant.params",
        "    half, sixth = 0.5 * h, h / 6.0",
        "    theta = params[active - 1]",
        *([f"    ({each('b{i}')},) = plant.b"] if has_b else []),
        "    outputs, inputs, states, actives, switches = [], [], [], [], []",
        f"    z = array({[0.0] * n})",
        f"    ({each('x{i}')},) = x.tolist()",
        "    reached = hi",
        "    for k in range(hi - lo):",
        *("        " + line for line in body),
        "    return reached, y, states, outputs, inputs, actives, switches",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _step_loop(n: int, has_b: bool, has_omega: bool):
    """The plant's step loop for one model shape, compiled once.

    ``steps(plant, x, y, active, lo, hi[, omega_start, omega_half,
    omega_end])`` steps grid rows lo..hi-1 from the state ``x``, output
    ``y`` and subsystem ``active`` of row lo, with the disturbance rows of
    each step's start, middle and end times when there is a disturbance.
    It stops after a row whose state is non-finite, and returns that row,
    the output of the last row reached, the states of the rows stepped, the
    true outputs and inputs of every stage, the active subsystem of each
    row (the non-finite row has none) and the rows where the subsystem
    switched.
    """
    namespace = {"array": np.array, "isfinite": math.isfinite}
    code = compile(_step_loop_source(n, has_b, has_omega), f"<plant step loop n={n}>", "exec")
    exec(code, namespace)
    return namespace["steps"]


class _Plant:
    """The plant, stepped stage by stage with grid-point switch detection.

    It keeps no run state: each chunk starts from the state, output and
    subsystem of the trace's row, and it writes those of every row it
    reaches back into the trace.  Each stage also records the true output
    and the input, from which the downstream blocks' measured outputs and
    nonlinearity are formed per chunk.  Of the noise it reads only the
    disturbance.  The step loop is compiled per model shape (``_step_loop``):
    n, whether B has a nonzero entry, and whether there is a disturbance.
    The module docstring states which operations the loop must keep.
    """

    def __init__(self, model: PlantModel, noise: NoiseSpec | None, step: StepConfig):
        self.model = model
        self.noise = noise
        self.h = step.step_size
        self.t0 = step.start_time
        has_b = bool(np.any(model.b != 0.0))
        self.b = model.b.tolist()
        self.dot_c, self.dot_a, self.psi = model.c.dot, model.a.dot, model.psi
        self.u_fn, self.rule_for = model.input_signal, model.switching_rule.subsystem_for
        self.params = model.true_params
        self.has_omega = noise is not None and noise.omega is not None
        self.steps = _step_loop(model.n, has_b, self.has_omega)

    def start(self, trace: SimulationTrace) -> None:
        """Write row 0: the initial state, its output and its subsystem."""
        x0 = self.model.initial_state
        y = float(self.dot_c(x0))
        trace.x[0], trace.y[0], trace.sigma_float[0] = x0, y, self.rule_for(y, self.t0)

    def disturbance(self, lo: int, hi: int) -> tuple:
        """Disturbance rows of steps lo..hi-1 at their start, middle and end
        times; none when there is no disturbance."""
        if not self.has_omega:
            return ()
        h, n = self.h, self.model.n
        t = self.t0 + np.arange(lo, hi)[:, None] * h
        return tuple(
            disturbance_rows(self.noise, n, times).tolist() for times in (t, t + 0.5 * h, t + h)
        )

    def advance(self, trace: SimulationTrace, lo: int, hi: int):
        """Step grid rows lo..hi-1 from the trace's row lo, and write the
        states, true outputs and subsystems of the rows after them into the
        trace.

        Stops after a row whose state is non-finite.  Returns the last row
        reached, the true outputs and the inputs of every stage of the steps
        taken, each (steps, 4), and the rows where the subsystem switched.
        """
        xs, ys, sigmas = trace.x, trace.y, trace.sigma_float
        reached, y, states, outputs, inputs, actives, switches = self.steps(
            self, xs[lo], float(ys[lo]), int(sigmas[lo]), lo, hi, *self.disturbance(lo, hi)
        )
        xs[lo + 1 : lo + 1 + len(states)] = states
        sigmas[lo + 1 : lo + 1 + len(actives)] = actives
        shape = (reached - lo, 4)
        outputs = np.array(outputs).reshape(shape)
        ys[lo + 1 : reached], ys[reached] = outputs[1:, 0], y
        return reached, outputs, np.array(inputs, dtype=float).reshape(shape), switches


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


class _Cascade:
    """Filter bank, mixing, gated adaptation, excitation accumulators and
    observer, advanced over a chunk of grid steps from the stage signals
    the plant recorded.

    Each block is affine in its own state, so one RK4 step is an affine
    recurrence; its coefficients are computed for the whole chunk at once,
    and only the recurrences themselves run step by step.  The filter bank
    at the last grid row reached is kept between chunks; the estimates,
    accumulators and observer state start each chunk from the trace's row.

    The chunk workspace is allocated once per run, for chunks of up to
    ``chunk`` = min(CHUNK, steps) steps, and every chunk writes into views
    of it: the bank's [z; d] buffer, whose drive columns beyond xu and
    upsilon are written once, as zeros; the stage forcings; the stages'
    regressor rows with one product term of them; and the mixing's
    storage, which serves both the law's stacks and the grid rows'
    (``grid_row``).  Under an allocator that maps every large block,
    buffers allocated afresh each chunk would be new mappings, and
    page-fault again wherever they are first written; one just below the
    mapping threshold may sit at the heap's top, which is trimmed when it
    is freed and faults again when it regrows.
    """

    def __init__(self, cfg: ExperimentConfig, layout: StateLayout):
        model, h = cfg.model, cfg.step.step_size
        n, m, mn = layout.n, layout.m, layout.mn
        # Unit j's closed loop A - g_j c and the observer's, with their
        # stage polynomials M_s - I and step polynomials P - I, as the
        # config screened them.
        gains, acl, stage_off, step_off = _injection_loops(cfg)
        self.acl, self.observer_acl = acl[:mn], acl[mn]
        self.gains, self.observer_gain = gains[:mn], gains[mn]
        self.layout = layout
        self.h = h
        self.b = model.b
        self.has_b = bool(np.any(model.b != 0.0))
        self.gamma = cfg.gamma
        self.template = layout.filter_reset_template()
        self.panels = self.template.reshape(mn * n, layout.panel)
        self.bank_step, self.observer_step = _step_matrix(step_off[:mn]), _step_matrix(step_off[mn:])
        # Regressor rows c M_s of the four stage values; stage 1 is c itself.
        self.crow_stages = np.empty((mn, 4, n))
        self.crow_stages[:, 0] = model.c
        for s, off in enumerate(stage_off, start=1):
            self.crow_stages[:, s] = model.c + model.c @ off[:mn]
        self.crow = model.c[None]
        self.chunk = chunk = min(CHUNK, cfg.step.num_steps)
        self.bank = np.zeros((chunk + 1, 2 * mn * n, layout.panel))
        # Flat, so a shorter last chunk views a contiguous prefix.
        self.forcing = np.empty(4 * mn * n * chunk * (1 + m))
        # The regressor rows of every stage and one product term of them.
        self.rows = np.empty((2, chunk, mn, 4, layout.panel))
        # One mixing storage for the law's stacks, m adjugate rows of four
        # stages a step, and the grid rows', all m+n rows of a step, a
        # switch or the last row each; a zero-step run still mixes its last.
        law, grid = _mixing_cofactors(mn, m), _mixing_cofactors(mn, mn)
        self.mixing = np.empty(max(law.floats(4 * chunk), grid.floats(max(chunk, 1))))

    def mix(self, rows: np.ndarray, ybar: np.ndarray, mixed: int):
        """Mix S stages' regressor stacks, rows c M_s F (R, m+n, S, panel),
        at measured outputs ``ybar`` (R, S), in the run's mixing storage:
        the determinant (R, S), the regressions ybar - c M_s xu (R, S, m+n)
        and the first ``mixed`` components of adj(N) z (R, S, mixed)."""
        nt = rows[..., 1:].transpose(0, 2, 1, 3)
        zf = ybar[:, :, None] - rows[..., 0].transpose(0, 2, 1)
        delta, adjugate = det_adjugate_rows(nt, mixed, self.mixing)
        return delta, zf, _matmul_ew(adjugate, zf[..., None])[..., 0]

    def grid_row(self, panels: np.ndarray, ybar: np.ndarray):
        """The regressor stack N (R, m+n, m+n), the determinant (R,), the
        regressions z (R, m+n) and all of adj(N) z (R, m+n) at (R, m+n, n,
        panel) grid panels and measured outputs (R,), mixed as ``advance``
        mixes a step's first stage, so delta, z and the first m mixed
        components carry the law's bits."""
        rows = _matmul_ew(self.crow_stages[:, :1], panels)
        delta, zf, zbar = self.mix(rows, ybar[:, None], self.layout.mn)
        return rows[:, :, 0, 1:], delta[:, 0], zf[:, 0], zbar[:, 0]

    def advance(self, trace: SimulationTrace, lo: int, active, ybar, u, psi, resets):
        """Advance every block over the K steps from the last row reached,
        lo, to row hi = lo + K, and write into the trace the regressions z
        and the determinant delta the law used at rows lo..hi-1 and x_hat,
        theta_hat and the accumulators at rows lo+1..hi.

        ``active`` (K,) holds each step's subsystem, ``ybar`` and ``u``
        (K, 4) the measured output and the input of every stage, ``psi``
        (K, 4, n, m) the nonlinearity at them, and ``resets`` the rows,
        counted from lo, whose filters restart.
        Returns the filter bank (K+1, m+n, n, panel) at rows lo..hi, the
        restarted rows' pre-reset banks by row, and the chunk's largest
        adaptation step h * gamma_i * delta^2 (NaN values skipped).
        """
        lay = self.layout
        n, m, mn = lay.n, lay.m, lay.mn
        h, steps, c1 = self.h, len(active), 1 + lay.m
        hi = lo + steps

        # Filter bank: stage forcings of the xu and upsilon columns.
        forcing = self.forcing[: 4 * mn * n * steps * c1].reshape(4, mn, n, steps, c1)
        np.multiply(self.gains[None, :, :, None], ybar.T[:, None, None, :], out=forcing[..., 0])
        if self.has_b:
            forcing[..., 0] += (self.b[:, None] * u.T[:, None, :])[:, None]
        forcing[..., 1:] = psi.transpose(1, 2, 0, 3)[:, None]
        offsets, step_off = _rk4_offsets(
            h, lambda s, z: _matmul_ew(self.acl, z), forcing.reshape(4, mn, n, steps * c1)
        )
        units = mn * n
        bank = self.bank[: steps + 1]
        bank[:steps, units:, :c1] = step_off.reshape(units, steps, c1).transpose(1, 0, 2)
        bank[0, :units] = self.panels
        pre_reset = _recur(self.bank_step, bank, resets, self.template)
        self.panels = bank[steps, :units]
        fs = bank[:, :units].reshape(steps + 1, mn, n, lay.panel)

        # Mixing over every stage of every step.
        rows, term = self.rows[:, :steps]
        _matmul_ew(self.crow_stages, fs[:steps], rows, term)
        for s, off in enumerate(offsets, start=1):
            rows[:, :, s, :c1] += _matmul_ew(self.crow, off).reshape(mn, steps, c1).transpose(1, 0, 2)
        delta, zf, zbar = self.mix(rows, ybar, m)
        trace.z[lo:hi], trace.delta[lo:hi] = zf[:, 0], delta[:, 0]

        # Gated adaptation: theta_i <- theta_i + (g theta_i + beta) on the
        # active row only; every other row keeps its bits.
        slope, offset, exc_rate = adaptation_rates(self.gamma, delta, zbar, active[:, None], m)
        peak_step = -h * float(np.fmin.reduce(slope, axis=None))
        gain_off, gain_step = _rk4_offsets(h, lambda s, z: slope[:, s] * z, slope.T)
        drive_off, drive_step = _rk4_offsets(
            h, lambda s, z: slope[:, s, None] * z, offset.transpose(1, 0, 2)
        )
        theta = trace.theta_hat[lo].ravel().tolist()
        held, theta_rows = [], []
        for i, g, beta in zip(active.tolist(), gain_step.tolist(), drive_step.tolist()):
            base = (i - 1) * m
            for j in range(m):
                value = theta[base + j]
                held.append(value)
                theta[base + j] = value + (g * value + beta[j])
            theta_rows.append(theta[:])
        trace.theta_hat[lo + 1 : hi + 1] = np.reshape(theta_rows, (steps, lay.s, m))

        # Excitation accumulators: a masked cumulative sum of the steps.
        # Their rate delta^2 >= +0 does not read the accumulator, and adding
        # 0.0 to it is exact.
        acc = np.zeros((steps + 1, lay.s))
        acc[0] = trace.excitation[lo]
        acc[np.arange(1, steps + 1), active - 1] = _rk4_offsets(h, lambda s, z: 0.0, exc_rate.T)[1]
        trace.excitation[lo + 1 : hi + 1] = np.cumsum(acc, axis=0)[1:]

        # Observer, driven by the active estimate's stage values.
        theta_k = np.array(held).reshape(steps, 1, m)
        theta_st = np.concatenate(
            [theta_k]
            + [theta_k + (g[:, None, None] * theta_k + d[:, None]) for g, d in zip(gain_off, drive_off)],
            axis=1,
        )
        obs_forcing = _matmul_ew(psi, theta_st[..., None])[..., 0]
        obs_forcing += self.observer_gain * ybar[..., None]
        if self.has_b:
            obs_forcing += u[..., None] * self.b
        _, obs_step = _rk4_offsets(
            h, lambda s, z: _matmul_ew(self.observer_acl, z), obs_forcing.transpose(1, 2, 0)
        )
        observer = np.empty((steps + 1, 2 * n))
        observer[0, :n] = trace.xhat[lo]
        observer[:steps, n:] = obs_step.T
        _recur(self.observer_step, observer)
        trace.xhat[lo + 1 : hi + 1] = observer[1:, :n]
        return fs, pre_reset, peak_step


def _component(block: str, index: tuple, m: int) -> str:
    """Name of the component at ``index`` within one row of ``block``."""
    if block == "filter":
        unit, row, col = index
        if col == 0:
            return f"filter[{unit}].xu[{row}]"
        if col <= m:
            return f"filter[{unit}].upsilon[{row},{col - 1}]"
        return f"filter[{unit}].phi[{row},{col - 1 - m}]"
    return f"{block}[{','.join(str(i) for i in index)}]"


def _first_non_finite(blocks, pre_reset, m) -> tuple[int, str] | None:
    """(row, component) of the earliest non-finite row of a chunk, judged
    before any filter restart, or None.

    Rows count from the chunk's start row lo: ``blocks``, the x, x_hat,
    filter panels, theta_hat and excitation of rows lo+1..hi, hold row k at
    index k-1, and ``pre_reset`` maps restarted rows to their pre-reset
    panels.  A row's components are searched block by block, in C order.
    """
    finite = np.logical_and.reduce(
        [np.isfinite(b.reshape(len(b), -1)).all(axis=1) for b in blocks]
    )
    rows = [k for k, panels in pre_reset.items() if not np.isfinite(panels).all()]
    if not finite.all():
        rows.append(1 + int(np.argmin(finite)))
    if not rows:
        return None
    row = min(rows)
    state = [rows_of[row - 1] for rows_of in blocks]
    if row in pre_reset:
        state[2] = pre_reset[row]
    named = zip(("x", "x_hat", "filter", "theta_hat", "excitation"), state)
    name, values = next((name, v) for name, v in named if not np.isfinite(v).all())
    index = np.unravel_index(int(np.argmin(np.isfinite(values))), values.shape)
    return row, _component(name, index, m)


def _fill_errors(trace, model, cascade, lo, panels, switch_rows, diagnostics) -> None:
    """Fill the error norms, and the diagnostics when collected, of the R
    grid rows from lo, from their recorded values and (R, m+n, n, panel)
    filter bank ``panels``; x(t_k) is the trace's state at the last of the
    ``switch_rows`` at or before each row.  The diagnostics read delta, z
    and adj(N) z from the cascade's own mixing (``grid_row``), so the
    mixing oracle checks what the law computed.  Every value is summed in
    a fixed order row by row, so its bits do not depend on the rows filled
    with it.
    """
    rows = slice(lo, lo + len(panels))
    x, theta = trace.x[rows], trace.theta_hat[rows]
    trace.theta_error[rows] = np.linalg.norm(theta - model.true_params[None], axis=2)
    trace.x_error[rows] = np.linalg.norm(trace.xhat[rows] - x, axis=1)
    if diagnostics is None:
        return
    starts = np.asarray(switch_rows)
    last = np.searchsorted(starts, np.arange(rows.start, rows.stop), side="right") - 1
    theta_sigma = model.true_params[trace.sigma_float[rows].astype(np.int64) - 1]
    theta_bar = np.concatenate([theta_sigma, trace.x[starts[last]]], axis=1)
    # The panels [xu | upsilon | phi] against [1; theta_sigma; x(t_k)].
    weights = np.concatenate([np.ones((len(theta_bar), 1)), theta_bar], axis=1)
    recon = _matmul_ew(panels, weights[:, None, :, None])[..., 0]
    nt, delta, z, zbar = cascade.grid_row(panels, trace.ybar[rows])
    diagnostics.decomposition_residual[rows] = np.linalg.norm(x[:, None] - recon, axis=2).max(axis=1)
    diagnostics.lre_residual_max[rows] = np.abs(z - _matmul_ew(nt, theta_bar[..., None])[..., 0]).max(axis=1)
    diagnostics.dbar[rows] = zbar - delta[:, None] * theta_bar


def run_experiment(cfg: ExperimentConfig, collect_diagnostics: bool = False) -> RunResult:
    """Run the cascade from the start time to the (rounded) end time.

    The filter bank is restarted at the start time and at every detected
    switch; the trace records one row per grid point, with switch instants
    and pre-reset determinants kept in the header.
    """
    started = _time.perf_counter()
    model, noise, step = cfg.model, cfg.noise, cfg.step
    n, m, s = model.n, model.m, model.s
    layout = StateLayout(n, m, s)
    h, t0, steps = step.step_size, step.start_time, step.num_steps
    meta = {
        "format": 1,
        "model": model.name,
        "n": n,
        "m": m,
        "s": s,
        "h": h,
        "t0": t0,
        "t_end": step.effective_end,
        "mode": "ideal" if noise is None else "robust",
        "seed": None if noise is None else noise.seed,
        "gamma": cfg.gamma.tolist(),
        "filter_gains": cfg.filter_gains.tolist(),
        "observer_gain": cfg.observer_gain.tolist(),
        "theta_init": cfg.theta_init.tolist(),
        "xhat_init": cfg.observer_init.tolist(),
        "x0": model.initial_state.tolist(),
        "noise": None if noise is None else {"v0": noise.v0},
    }
    data = np.empty((steps + 1, len(column_names(n, m, s))))
    data[:, 0] = t0 + h * np.arange(steps + 1)
    trace = SimulationTrace(meta=meta, data=data)
    sigma = trace.sigma_float
    diagnostics = None
    if collect_diagnostics:
        rows = steps + 1
        diagnostics = Diagnostics(np.empty(rows), np.empty(rows), np.empty((rows, m + n)))

    def held_noise(rows):
        # The measurement noise held over the steps from grid rows ``rows``.
        return np.zeros(np.shape(rows)) if noise is None else sample_noise(noise, rows)

    plant = _Plant(model, noise, step)
    plant.start(trace)
    trace.xhat[0], trace.theta_hat[0], trace.excitation[0] = cfg.observer_init, cfg.theta_init, 0.0
    # The rows where the filter bank restarts and the determinants just
    # before each restart; the start row has no prior state.
    switch_rows, pre_deltas = [0], [math.nan]

    # The config screened every step polynomial, so building the cascade
    # stays in the float range.  Overflow before the finiteness check just
    # precedes an abort; keep the warning stream quiet until then.
    cascade = _Cascade(cfg, layout)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        lo = 0
        while lo < steps:
            hi, y, u, switches = plant.advance(trace, lo, min(lo + cascade.chunk, steps))
            # Measured outputs of the steps reached, noise held per step.
            ybar = y + held_noise(np.arange(lo, hi))[:, None]
            trace.ybar[lo:hi] = ybar[:, 0]
            psi = model.psi(ybar.ravel(), u.ravel()).reshape(hi - lo, 4, n, m)
            panels, pre_reset, peak_step = cascade.advance(
                trace, lo, sigma[lo:hi].astype(np.int64), ybar, u, psi, {row - lo for row in switches}
            )
            new = slice(lo + 1, hi + 1)
            blocks = (
                trace.x[new], trace.xhat[new], panels[1:], trace.theta_hat[new], trace.excitation[new]
            )
            bad = _first_non_finite(blocks, pre_reset, m)
            if bad is not None:
                at = t0 + (lo + bad[0]) * h
                raise SimulationAbort(at, bad[1], peak_step)
            if switches:
                pre_resets = np.stack(list(pre_reset.values()))
                switch_rows += switches
                pre_deltas += cascade.grid_row(pre_resets, np.zeros(len(switches)))[1].tolist()
            _fill_errors(trace, model, cascade, lo, panels[:-1], switch_rows, diagnostics)
            lo = hi
        final_panels = cascade.panels.reshape(layout.mn, n, layout.panel).copy()
        trace.ybar[steps] = trace.y[steps] + held_noise(steps)
        _, delta, z, _ = cascade.grid_row(final_panels[None], trace.ybar[steps:])
        trace.delta[steps], trace.z[steps] = delta[0], z[0]
        _fill_errors(trace, model, cascade, steps, final_panels[None], switch_rows, diagnostics)
    trace.switch_times = trace.t[switch_rows].tolist()
    trace.pre_reset_delta = pre_deltas
    events = [
        SwitchEvent(t, int(sigma[row]), trace.x[row].copy(), pre)
        for t, row, pre in zip(trace.switch_times, switch_rows, pre_deltas)
    ]
    return RunResult(
        trace=trace,
        events=events,
        model=model,
        layout=layout,
        final_panels=final_panels,
        elapsed_seconds=_time.perf_counter() - started,
        diagnostics=diagnostics,
    )
