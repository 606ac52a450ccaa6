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
  and the event is recorded.  The plant's rounding is part of its
  behaviour, so its loop keeps every floating-point operation and their
  order: rate ((A x + psi(y, u) theta) + B u) + omega (the B u term only
  when B has a nonzero entry, omega only with a disturbance), stages
  k h/2 + x and k h + x, step x + ((((k2 + k3) 2 + k1) + k4) h/6).  The
  three products C x, A x and psi theta are BLAS calls; the glue around
  them runs on Python floats, the same IEEE operations; a step's stage-1
  output is the C x its predecessor computed for the switch check; the
  disturbance is evaluated once per chunk at the steps' start, middle and
  end times.
* Every ``CHUNK`` steps the downstream blocks advance over the whole chunk.
  Each is affine in its own state, so one RK4 step is an exact affine
  recurrence whose coefficients are computed from the recorded signals for
  all steps at once:

  - filter bank: F_{k+1} = P(h Acl_j) F_k + D_k with stage values
    M_s F_k + G_{k,s}; the transition factor has D = 0, so it advances by
    the RK4 polynomial alone;
  - mixing: the signed cofactors of every stage's regressor stack, in one
    call;
  - adaptation: theta_{k+1} = theta_k + (g_k theta_k + beta_k) on the active
    row only, so inactive rows keep their bits;
  - excitation accumulators: a masked cumulative sum;
  - observer: xhat_{k+1} = P(h Acl_o) xhat_k + D_k.

The run state is chunk-resident.  The plant writes its states straight into
the trace, the cascade keeps its blocks' states between chunks, and the
trace (with each row's active subsystem and held noise) is the only store
with a row per grid point; the columns derived from the states, and the
diagnostics, are filled a chunk at a time from the chunk's filter panels.

Measurement noise is sampled once per grid step and held constant across the
four stages of that step, so identical configurations and seeds reproduce
bit-identical runs.  A non-finite grid state aborts the run at the earliest
such grid row, naming its first non-finite component and the chunk's largest
adaptation step h * gamma_i * delta^2 against RK4's real-axis stability
limit.
"""

from __future__ import annotations

import math
import numbers
import time as _time
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, SimulationAbort
from .linalg import Cofactors, det_adjugate_batch
from .plant import (
    NoiseSpec,
    PlantModel,
    TimeScheduleRule,
    checked_array,
    disturbance_rows,
    sample_noise,
    stable_closed_loop,
)
from .trace import SimulationTrace, column_names

# Grid steps per downstream pass, sized to bound the per-chunk buffers.
# Every grid value is summed in an order that does not depend on it.
CHUNK = 128

# RK4 is stable for z' = -a z, a > 0, while h * a stays at or below this
# bound: the real root of 1 + z/2 + z^2/6 + z^3/24 = 0, negated.
RK4_STABILITY_LIMIT = 2.785293563405289

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
        if not (self.step_size > 0.0 and math.isfinite(self.step_size)):
            raise ConfigurationError("step_size: must be positive and finite")
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
        for j, gain in enumerate(self.filter_gains):
            stable_closed_loop(model, gain, f"filter_gains[{j}]")
        stable_closed_loop(model, self.observer_gain, "observer_gain")
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
    m+n+1 filter units, the s x m estimates and the s excitation
    accumulators.  ``size`` counts its floats.

    Each unit is one (n, 1+m+n) panel [xu | upsilon | phi], so the whole
    bank advances with a single batched product.  Unit j is the j-th
    stacked filter for j < m+n; the final unit is the verification filter
    sharing the observer gain.
    """

    def __init__(self, n: int, m: int, s: int):
        self.n, self.m, self.s = n, m, s
        self.mn = m + n
        self.num_units = self.mn + 1
        self.panel = 1 + m + n  # columns per unit: xu, upsilon block, phi block
        self.size = 2 * n + self.num_units * n * self.panel + s * m + s

    def filter_reset_template(self) -> np.ndarray:
        """Panel content right after a restart: zero filters, identity phi."""
        template = np.zeros((self.num_units, self.n, self.panel))
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
    """Ground-truth residual series collected alongside a run."""

    theta_bar: np.ndarray  # (T, m+n) augmented parameter from ground truth
    decomposition_residual: np.ndarray  # verification filter identity
    lre_residual_max: np.ndarray  # max_j |z_j - row_j . theta_bar|
    dbar: np.ndarray  # (T, m+n) mixed-equation residual
    mixing_residual: np.ndarray  # max-abs of dbar per grid point
    delta: np.ndarray  # cofactor-path determinant matching the mixing route


@dataclass(frozen=True)
class RunResult:
    trace: SimulationTrace
    events: list[SwitchEvent]
    model: PlantModel
    layout: StateLayout
    final_panels: np.ndarray  # (m+n+1, n, 1+m+n) filter bank at the last row
    elapsed_seconds: float
    diagnostics: Diagnostics | None = None


def _matmul_ew(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for stacks (..., r, n) and (..., n, N), as one elementwise
    product per inner index.  Every entry is summed in the same order
    whatever the stack shapes, so a grid step's values do not depend on how
    many steps its chunk holds."""
    out = a[..., :, 0, None] * x[..., None, 0, :]
    for i in range(1, a.shape[-1]):
        out += a[..., :, i, None] * x[..., None, i, :]
    return out


def _sum_last(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, term by term in index order."""
    total = terms[..., 0].copy()
    for j in range(1, terms.shape[-1]):
        total += terms[..., j]
    return total


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


class _Plant:
    """The plant, stepped stage by stage with grid-point switch detection.

    Each stage also records the true output and the input, from which the
    downstream blocks' measured outputs and nonlinearity are formed per
    chunk.  ``y`` is the output at the last grid row reached.  The module
    docstring states which operations the loop must keep.
    """

    def __init__(self, model: PlantModel, noise: NoiseSpec | None, step: StepConfig, active: int):
        self.model = model
        self.noise = noise
        self.h = step.step_size
        self.t0 = step.start_time
        self.active = active
        self.theta = model.true_params[active - 1]
        self.b = model.b.tolist() if np.any(model.b != 0.0) else None
        self.dot_c, self.dot_a, self.psi = model.c.dot, model.a.dot, model.psi
        self.y = float(self.dot_c(model.initial_state))

    def rate(self, x: np.ndarray, y: float, u: float, omega) -> list[float]:
        """Plant rate at the state ``x`` with output ``y``, at the input
        ``u`` and disturbance row ``omega`` (None when there is none) of the
        stage's time."""
        linear, param = self.dot_a(x).tolist(), self.psi(y, u).dot(self.theta).tolist()
        if self.b is not None:
            linear = [p + q + b * u for p, q, b in zip(linear, param, self.b)]
            return linear if omega is None else [r + w for r, w in zip(linear, omega)]
        if omega is None:
            return [p + q for p, q in zip(linear, param)]
        return [p + q + w for p, q, w in zip(linear, param, omega)]

    def disturbance(self, lo: int, hi: int):
        """Disturbance rows of steps lo..hi-1 at their start, middle and end
        times, or None per row when there is no disturbance."""
        if self.noise is None or self.noise.omega is None:
            return ([None] * (hi - lo),) * 3
        h, n = self.h, self.model.n
        t = self.t0 + np.arange(lo, hi)[:, None] * h
        return tuple(
            disturbance_rows(self.noise, n, times).tolist() for times in (t, t + 0.5 * h, t + h)
        )

    def advance(self, xs: np.ndarray, lo: int, hi: int, sigmas: np.ndarray, vs: np.ndarray):
        """Step grid rows lo..hi-1 of ``xs`` and fill ``sigmas`` and the
        held noise ``vs`` of the rows after them.

        Stops after a row whose state is non-finite.  Returns the last row
        reached, the true outputs and the inputs of every stage of the steps
        taken, each (steps, 4), and the switches as (row, new subsystem,
        state).
        """
        h, t0, rule = self.h, self.t0, self.model.switching_rule
        half, sixth = 0.5 * h, h / 6.0
        rate, u_fn, dot_c = self.rate, self.model.input_signal, self.dot_c
        if self.noise is not None:
            vs[lo + 1 : hi + 1] = sample_noise(self.noise, np.arange(lo + 1, hi + 1))
        omega_start, omega_half, omega_end = self.disturbance(lo, hi)
        outputs, inputs, switches, states, actives = [], [], [], [], []
        x, y = xs[lo], self.y
        xl = x.tolist()
        reached = hi
        for k in range(hi - lo):
            q = lo + k
            t = t0 + q * h
            u = u_fn(t)
            k1 = rate(x, y, u, omega_start[k])
            # Stages 2 and 3 share their time, so their input and disturbance.
            u_half = u_fn(t + half)
            x2 = np.array([a + b * half for a, b in zip(xl, k1)])
            y2 = float(dot_c(x2))
            k2 = rate(x2, y2, u_half, omega_half[k])
            x3 = np.array([a + b * half for a, b in zip(xl, k2)])
            y3 = float(dot_c(x3))
            k3 = rate(x3, y3, u_half, omega_half[k])
            x4 = np.array([a + b * h for a, b in zip(xl, k3)])
            y4, u_end = float(dot_c(x4)), u_fn(t + h)
            k4 = rate(x4, y4, u_end, omega_end[k])
            outputs += (y, y2, y3, y4)
            inputs += (u, u_half, u_half, u_end)
            xl = [
                a + ((r2 + r3) * 2.0 + r1 + r4) * sixth
                for a, r1, r2, r3, r4 in zip(xl, k1, k2, k3, k4)
            ]
            states.append(xl)
            x = np.array(xl)
            y = float(dot_c(x))
            if not math.isfinite(y) and not all(map(math.isfinite, xl)):
                reached = q + 1
                break
            target = rule.subsystem_for(y, t0 + (q + 1) * h)
            if target != self.active:
                switches.append((q + 1, target, x))
                self.active = target
                self.theta = self.model.true_params[target - 1]
            actives.append(self.active)
        self.y = y
        xs[lo + 1 : lo + 1 + len(states)] = states
        sigmas[lo + 1 : lo + 1 + len(actives)] = actives
        shape = (reached - lo, 4)
        outputs, inputs = np.array(outputs), np.array(inputs, dtype=float)
        return reached, outputs.reshape(shape), inputs.reshape(shape), switches


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
    and only the recurrences themselves run step by step.  The blocks'
    states at the last grid row reached are kept between chunks.
    """

    def __init__(self, cfg: ExperimentConfig, layout: StateLayout):
        model, h = cfg.model, cfg.step.step_size
        n, m, mn = layout.n, layout.m, layout.mn
        # Unit j's injection gain g_j and closed loop A - g_j c, as the
        # config screened them; the last unit shares the observer's.
        gains_all = np.vstack([cfg.filter_gains, cfg.observer_gain[None, :]])
        a_closed = model.a - gains_all[:, :, None] * model.c
        self.layout = layout
        self.h = h
        self.acl = a_closed
        self.gains_all = gains_all
        self.b = model.b
        self.has_b = bool(np.any(model.b != 0.0))
        self.gamma = cfg.gamma
        self.template = layout.filter_reset_template()
        self.panels = self.template.reshape(layout.num_units * n, layout.panel)
        self.theta = cfg.theta_init.ravel().tolist()
        self.exc = np.zeros(layout.s)
        self.xhat = np.array(cfg.observer_init)
        # Stage polynomials M_s - I and step polynomial P - I of h * Acl_j.
        stage_off, step_off = _rk4_offsets(h, lambda s, z: a_closed @ z, (a_closed,) * 4)
        step_poly = np.eye(n) + step_off
        # One product per step advances a recurrence z <- P z + d: the
        # augmented matrix [P | I] acts on z stacked over d.  The bank's
        # units sit on the block diagonal.
        units = layout.num_units * n
        self.bank_step = np.zeros((units, 2 * units))
        for j, poly in enumerate(step_poly):
            self.bank_step[j * n : (j + 1) * n, j * n : (j + 1) * n] = poly
        self.bank_step[:, units:] = np.eye(units)
        self.observer_step = np.hstack([step_poly[-1], np.eye(n)])
        # Regressor rows c M_s of the four stage values; stage 1 is c itself.
        self.crow_stages = np.empty((mn, 4, n))
        self.crow_stages[:, 0] = model.c
        for s, off in enumerate(stage_off, start=1):
            self.crow_stages[:, s] = model.c + model.c @ off[:mn]
        self.crow = model.c[None]
        # All (i, j) with j < m laid out row-major, then (0, j) for j >= m.
        self.cofactors = Cofactors(
            mn, [(i, j) for i in range(mn) for j in range(m)] + [(0, j) for j in range(m, mn)]
        )

    def stage_rows(self, panels: np.ndarray) -> np.ndarray:
        """c M_s F of the stacked units of (R, units, n, panel) grid panels,
        shape (R, m+n, 4, panel)."""
        return _matmul_ew(self.crow_stages, panels[:, : self.layout.mn])

    def mix(self, rows: np.ndarray, ybar: np.ndarray):
        """Mixing determinant and the adapted mixed components of every
        stage's regressor stack; ``rows`` is (R, m+n, 4, panel)."""
        m, mn = self.layout.m, self.layout.mn
        nt = rows[..., 1:].transpose(0, 2, 1, 3)
        zf = ybar[:, :, None] - rows[..., 0].transpose(0, 2, 1)
        cof = self.cofactors(nt)
        cof_jm = cof[..., : mn * m].reshape(cof.shape[:2] + (mn, m))
        first_row = np.concatenate((cof_jm[..., 0, :], cof[..., mn * m :]), axis=-1)
        delta = _sum_last(nt[..., 0, :] * first_row)
        zbar = _sum_last(np.swapaxes(zf[..., None] * cof_jm, -1, -2))
        return delta, zbar

    def grid_delta(self, panels: np.ndarray) -> np.ndarray:
        """The determinant the adaptation law uses at (R, units, n, panel)
        grid panels, computed exactly as in ``advance``."""
        return self.mix(self.stage_rows(panels), np.zeros((len(panels), 4)))[0][:, 0]

    def advance(self, active, ybar, u, psi, resets):
        """Advance every block over the K steps from the last row reached,
        lo, to row hi = lo + K.

        ``active`` (K,) holds each step's subsystem, ``ybar`` and ``u``
        (K, 4) the measured output and the input of every stage, ``psi``
        (K, 4, n, m) the nonlinearity at them, and ``resets`` the rows,
        counted from lo, whose filters restart.
        Returns the filter bank (K+1, units, n, panel) at rows lo..hi; x_hat
        (K, n), theta_hat (K, s, m) and the accumulators (K, s) at rows
        lo+1..hi; the determinant the law used at rows lo..hi-1; the
        restarted rows' pre-reset banks by row; and the chunk's largest
        adaptation step h * gamma_i * delta^2 (NaN values skipped).
        """
        lay = self.layout
        n, m, mn, nu = lay.n, lay.m, lay.mn, lay.num_units
        h, steps, c1 = self.h, len(active), 1 + lay.m

        # Filter bank: stage forcings of the xu and upsilon columns.
        forcing = np.empty((4, nu, n, steps, c1))
        forcing[..., 0] = self.gains_all[None, :, :, None] * ybar.T[:, None, None, :]
        if self.has_b:
            forcing[..., 0] += (self.b[:, None] * u.T[:, None, :])[:, None]
        forcing[..., 1:] = psi.transpose(1, 2, 0, 3)[:, None]
        offsets, step_off = _rk4_offsets(
            h, lambda s, z: _matmul_ew(self.acl, z), forcing.reshape(4, nu, n, steps * c1)
        )
        units = nu * n
        bank = np.zeros((steps + 1, 2 * units, lay.panel))
        bank[:steps, units:, :c1] = step_off.reshape(units, steps, c1).transpose(1, 0, 2)
        bank[0, :units] = self.panels
        template = self.template.reshape(units, lay.panel)
        pre_reset = {}
        bank_dot = self.bank_step.dot
        for k in range(steps):
            nxt = bank[k + 1, :units]
            bank_dot(bank[k], nxt)
            if k + 1 in resets:
                pre_reset[k + 1] = nxt.reshape(nu, n, lay.panel).copy()
                nxt[...] = template
        self.panels = bank[steps, :units]
        fs = bank[:, :units].reshape(steps + 1, nu, n, lay.panel)

        # Mixing over every stage of every step.
        rows = self.stage_rows(fs[:steps])
        coff = _matmul_ew(self.crow, np.stack(offsets)[:, :mn])
        rows[:, :, 1:, :c1] += coff.reshape(3, mn, steps, c1).transpose(2, 1, 0, 3)
        delta, zbar = self.mix(rows, ybar)

        # Gated adaptation: theta_i <- theta_i + (g theta_i + beta) on the
        # active row only; every other row keeps its bits.
        slope, offset, exc_rate = adaptation_rates(self.gamma, delta, zbar, active[:, None], m)
        peak_step = -h * float(np.fmin.reduce(slope, axis=None))
        gain_off, gain_step = _rk4_offsets(h, lambda s, z: slope[:, s] * z, slope.T)
        drive_off, drive_step = _rk4_offsets(
            h, lambda s, z: slope[:, s, None] * z, offset.transpose(1, 0, 2)
        )
        theta = self.theta
        held, theta_rows = [], []
        for i, g, beta in zip(active.tolist(), gain_step.tolist(), drive_step.tolist()):
            base = (i - 1) * m
            for j in range(m):
                value = theta[base + j]
                held.append(value)
                theta[base + j] = value + (g * value + beta[j])
            theta_rows.append(theta[:])

        # Excitation accumulators: a masked cumulative sum of the steps.
        acc = np.zeros((steps + 1, lay.s))
        acc[0] = self.exc
        acc[np.arange(1, steps + 1), active - 1] = (h / 6.0) * (
            exc_rate[:, 0] + 2.0 * (exc_rate[:, 1] + exc_rate[:, 2]) + exc_rate[:, 3]
        )
        exc = np.cumsum(acc, axis=0)[1:]
        self.exc = exc[-1]

        # Observer, driven by the active estimate's stage values.
        theta_k = np.array(held).reshape(steps, 1, m)
        theta_st = np.concatenate(
            [theta_k]
            + [theta_k + (g[:, None, None] * theta_k + d[:, None]) for g, d in zip(gain_off, drive_off)],
            axis=1,
        )
        obs_forcing = _matmul_ew(psi, theta_st[..., None])[..., 0]
        obs_forcing += self.gains_all[-1] * ybar[..., None]
        if self.has_b:
            obs_forcing += u[..., None] * self.b
        _, obs_step = _rk4_offsets(
            h, lambda s, z: _matmul_ew(self.acl[-1], z), obs_forcing.transpose(1, 2, 0)
        )
        observer = np.empty((steps + 1, 2 * n))
        observer[0, :n] = self.xhat
        observer[:steps, n:] = obs_step.T
        observer_dot = self.observer_step.dot
        for k in range(steps):
            observer_dot(observer[k], observer[k + 1, :n])
        self.xhat = observer[steps, :n]
        theta_rows = np.reshape(theta_rows, (steps, lay.s, m))
        return fs, observer[1:, :n], theta_rows, exc, delta[:, 0], pre_reset, peak_step


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


class _Store:
    """The run's per-row store: the trace, filled through its column views,
    the active subsystem and held noise of every grid row, and the
    diagnostics when they are collected."""

    def __init__(self, model: PlantModel, trace: SimulationTrace, collect_diagnostics: bool):
        rows, mn = len(trace.data), model.m + model.n
        self.model = model
        self.x, self.xhat, self.y, self.ybar = trace.x, trace.xhat, trace.y, trace.ybar
        self.z, self.delta, self.theta = trace.z, trace.delta, trace.theta_hat
        self.theta_err, self.x_err, self.exc = trace.theta_error, trace.x_error, trace.excitation
        self.sigma = np.empty(rows, dtype=np.int64)
        self.v = np.zeros(rows)
        self.diagnostics = None
        if collect_diagnostics:
            arrays = {f.name: np.empty(rows) for f in fields(Diagnostics)}
            arrays.update(theta_bar=np.empty((rows, mn)), dbar=np.empty((rows, mn)))
            self.diagnostics = Diagnostics(**arrays)

    def derive(self, lo: int, hi: int, panels: np.ndarray, events: list, event_rows: list):
        """Fill the derived columns, and the diagnostics, of rows lo..hi from
        their stored states and their (hi-lo+1, units, n, panel) filter bank.

        Every value is computed row by row, so its bits do not depend on the
        rows filled with it; the output's product spans at least two rows
        whenever the run has them (a one-row product takes another route).
        """
        model = self.model
        m, mn = model.m, model.m + model.n
        rows = slice(lo, hi + 1)
        x, xhat = self.x[rows], self.xhat[rows]
        y = x @ model.c
        ybar = y + self.v[rows]
        xu = panels[..., 0]
        z = ybar[:, None] - xu[:, :mn] @ model.c
        theta = self.theta[rows]
        self.y[rows], self.ybar[rows], self.z[rows] = y, ybar, z
        self.theta_err[rows] = np.linalg.norm(theta - model.true_params[None], axis=2)
        self.x_err[rows] = np.linalg.norm(xhat - x, axis=1)
        dg = self.diagnostics
        if dg is None:
            return
        event_of = np.searchsorted(event_rows, np.arange(lo, hi + 1), side="right") - 1
        x_tk = np.stack([e.state for e in events])[event_of]
        theta_sigma = model.true_params[self.sigma[rows] - 1]
        theta_bar = np.concatenate([theta_sigma, x_tk], axis=1)
        recon = (
            np.einsum("tij,tj->ti", panels[:, mn, :, 1 + m :], x_tk)
            + xu[:, mn]
            + np.einsum("tij,tj->ti", panels[:, mn, :, 1 : 1 + m], theta_sigma)
        )
        nt = np.einsum("k,tukj->tuj", model.c, panels[:, :mn, :, 1:])
        dets, adjs = det_adjugate_batch(nt)
        dbar = np.einsum("tij,tj->ti", adjs, z) - dets[:, None] * theta_bar
        dg.theta_bar[rows] = theta_bar
        dg.decomposition_residual[rows] = np.linalg.norm(x - recon, axis=1)
        dg.lre_residual_max[rows] = np.abs(z - np.einsum("tuj,tj->tu", nt, theta_bar)).max(axis=1)
        dg.dbar[rows] = dbar
        dg.mixing_residual[rows] = np.abs(dbar).max(axis=1)
        dg.delta[rows] = dets


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
    store = _Store(model, trace, collect_diagnostics)

    rule = model.switching_rule
    active = rule.subsystem_for(float(model.c @ model.initial_state), t0)
    plant = _Plant(model, noise, step, active)
    cascade = _Cascade(cfg, layout)
    store.x[0], store.xhat[0] = model.initial_state, cfg.observer_init
    store.theta[0], store.exc[0], store.sigma[0] = cfg.theta_init, 0.0, active
    if noise is not None:
        store.v[0] = sample_noise(noise, 0)

    events = [SwitchEvent(t0, active, model.initial_state.copy(), math.nan)]
    event_rows = [0]

    # Overflow before the finiteness check just precedes an abort; keep the
    # warning stream quiet until then.
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        lo = 0
        while lo < steps:
            hi, y, u, switches = plant.advance(
                store.x, lo, min(lo + CHUNK, steps), store.sigma, store.v
            )
            # Measured outputs of the steps reached, noise held per step.
            ybar = y + store.v[lo:hi, None]
            psi = model.psi(ybar.ravel(), u.ravel()).reshape(hi - lo, 4, n, m)
            panels, xhat, theta, exc, delta, pre_reset, peak_step = cascade.advance(
                store.sigma[lo:hi], ybar, u, psi, {row - lo for row, _, _ in switches}
            )
            new = slice(lo + 1, hi + 1)
            store.xhat[new], store.theta[new], store.exc[new] = xhat, theta, exc
            store.delta[lo:hi] = delta
            bad = _first_non_finite((store.x[new], xhat, panels[1:], theta, exc), pre_reset, m)
            if bad is not None:
                at = t0 + (lo + bad[0]) * h
                raise SimulationAbort(at, bad[1], peak_step, RK4_STABILITY_LIMIT)
            if switches:
                pre_deltas = cascade.grid_delta(np.stack(list(pre_reset.values())))
                for (row, target, state), pre in zip(switches, pre_deltas.tolist()):
                    events.append(SwitchEvent(t0 + row * h, target, state, pre))
                    event_rows.append(row)
            store.derive(lo, hi, panels, events, event_rows)
            lo = hi
    final_panels = cascade.panels.reshape(layout.num_units, n, layout.panel).copy()
    store.delta[steps] = cascade.grid_delta(final_panels[None])[0]
    if steps == 0:
        store.derive(0, 0, final_panels[None], events, event_rows)
    data[:, 1] = store.sigma
    trace.switch_times = [e.time for e in events]
    trace.pre_reset_delta = [e.delta_before for e in events]
    return RunResult(
        trace=trace,
        events=events,
        model=model,
        layout=layout,
        final_panels=final_panels,
        elapsed_seconds=_time.perf_counter() - started,
        diagnostics=store.diagnostics,
    )
