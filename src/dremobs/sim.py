"""Fixed-step hybrid simulation of the plant / filter / estimator / observer
cascade.

Signals flow one way: the plant drives the filter bank through the measured
output, the filters feed the mixing, the mixing feeds the gated adaptation,
and the adaptation feeds the observer.  Nothing flows back into the plant or
the switching signal.  Classical RK4 applied to such a cascade equals RK4
applied block by block in cascade order, so the integrator is split:

* The plant alone is stepped stage by stage.  Each stage records the
  measured output, the input and the nonlinearity at the measured output.
  Switching is detected on the grid: when the rule's output changes at a
  grid point, that grid time is the switching instant, the filter bank
  restarts (zero filters, identity transition factor) before the next step,
  and the event is recorded.
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

Measurement noise is sampled once per grid step and held constant across the
four stages of that step, so identical configurations and seeds reproduce
bit-identical runs.  A non-finite grid state aborts the run at the earliest
such grid row, naming its first non-finite component.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SimulationAbort
from .estimator import DremEstimator, adaptation_rates
from .linalg import Cofactors, det_adjugate_batch
from .observer import ObserverState
from .plant import NoiseSpec, PlantModel, sample_noise, stable_closed_loop
from .trace import SimulationTrace, column_names

# Grid steps per downstream pass, sized to bound the per-chunk buffers.
# Every grid value is summed in an order that does not depend on it.
CHUNK = 128


@dataclass(frozen=True)
class StepConfig:
    """Fixed integration grid.  The horizon is rounded up to a whole number
    of steps."""

    step_size: float
    end_time: float
    start_time: float = 0.0

    def __post_init__(self):
        if not (self.step_size > 0.0 and math.isfinite(self.step_size)):
            raise ConfigurationError("step size must be positive and finite")
        if self.end_time < self.start_time:
            raise ConfigurationError("end time must not precede the start time")

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


class StateLayout:
    """Fixed offsets of every component inside the flat state vector.

    The filter block packs, per unit, the columns [xu | upsilon | phi] into
    one (n, 1+m+n) panel so the whole bank advances with a single batched
    product.  Unit j is the j-th stacked filter for j < m+n; the final unit
    is the verification filter sharing the observer gain.
    """

    def __init__(self, n: int, m: int, s: int):
        self.n, self.m, self.s = n, m, s
        self.mn = m + n
        self.num_units = self.mn + 1
        self.panel = 1 + m + n  # columns per unit: xu, upsilon block, phi block
        offset = 0

        def take(count: int) -> slice:
            nonlocal offset
            sl = slice(offset, offset + count)
            offset += count
            return sl

        self.x_sl = take(n)
        self.xhat_sl = take(n)
        self.fs_sl = take(self.num_units * n * self.panel)
        self.theta_sl = take(s * m)
        self.exc_sl = take(s)
        self.size = offset

    def views(self, flat: np.ndarray):
        """(x, xhat, filter panels, theta, exc) views into one flat vector."""
        return (
            flat[self.x_sl],
            flat[self.xhat_sl],
            flat[self.fs_sl].reshape(self.num_units, self.n, self.panel),
            flat[self.theta_sl].reshape(self.s, self.m),
            flat[self.exc_sl],
        )

    def filter_reset_template(self) -> np.ndarray:
        """Panel content right after a restart: zero filters, identity phi."""
        template = np.zeros((self.num_units, self.n, self.panel))
        template[:, :, 1 + self.m :] = np.eye(self.n)
        return template

    def component_name(self, index: int) -> str:
        n, m = self.n, self.m
        if self.x_sl.start <= index < self.x_sl.stop:
            return f"x[{index - self.x_sl.start}]"
        if self.xhat_sl.start <= index < self.xhat_sl.stop:
            return f"x_hat[{index - self.xhat_sl.start}]"
        if self.fs_sl.start <= index < self.fs_sl.stop:
            k = index - self.fs_sl.start
            unit, rest = divmod(k, n * self.panel)
            row, col = divmod(rest, self.panel)
            if col == 0:
                return f"filter[{unit}].xu[{row}]"
            if col <= m:
                return f"filter[{unit}].upsilon[{row},{col - 1}]"
            return f"filter[{unit}].phi[{row},{col - 1 - m}]"
        if self.theta_sl.start <= index < self.theta_sl.stop:
            k = index - self.theta_sl.start
            return f"theta_hat[{k // m},{k % m}]"
        if self.exc_sl.start <= index < self.exc_sl.stop:
            return f"excitation[{index - self.exc_sl.start}]"
        return f"state[{index}]"


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

    time: np.ndarray
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
    final_flat: np.ndarray
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


def _no_disturbance(t: float) -> None:
    return None


class _Plant:
    """The plant, stepped stage by stage with grid-point switch detection.

    Each stage also records the signals the downstream blocks consume: the
    measured output, the input and the nonlinearity at the measured output.
    """

    def __init__(self, model: PlantModel, noise: NoiseSpec | None, cfg: StepConfig, active: int):
        self.model = model
        self.noise = noise
        self.h = cfg.step_size
        self.t0 = cfg.start_time
        self.active = active
        self.theta = model.true_params[active - 1]
        self.a = model.a
        self.b = model.b
        self.has_b = bool(np.any(model.b != 0.0))
        self.crow = model.c
        self.psi_fn = model.psi
        self.u_fn = model.input_signal
        self.omega_fn = _no_disturbance if noise is None or noise.omega is None else noise.omega
        self.rates = [np.empty(model.n) for _ in range(4)]
        self.stage = np.empty(model.n)

    def rate(self, x: np.ndarray, u: float, omega, v: float, out: np.ndarray):
        """Plant rate at the input ``u`` and disturbance ``omega`` (None when
        there is none) of the stage's time."""
        y = float(self.crow @ x)
        ybar = y + v
        psi_meas = self.psi_fn(ybar, u)
        psi_true = psi_meas if ybar == y else self.psi_fn(y, u)
        np.matmul(self.a, x, out=out)
        out += psi_true @ self.theta
        if self.has_b:
            out += self.b * u
        if omega is not None:
            out += omega
        return ybar, u, psi_meas

    def advance(self, xs: np.ndarray, lo: int, hi: int, sigmas: np.ndarray, vs: np.ndarray):
        """Step grid rows lo..hi-1 of ``xs`` and fill ``sigmas`` and the
        held noise ``vs`` of the rows after them.

        Stops after a row whose state is non-finite.  Returns the last row
        reached, the stage signals (measured output, input, nonlinearity),
        one entry per step and stage, and the switches as
        (row, new subsystem, state).
        """
        h, t0, rule = self.h, self.t0, self.model.switching_rule
        half, sixth = 0.5 * h, h / 6.0
        k1, k2, k3, k4 = self.rates
        stage, rate, crow = self.stage, self.rate, self.crow
        u_fn, omega_fn = self.u_fn, self.omega_fn
        if self.noise is not None:
            vs[lo + 1 : hi + 1] = sample_noise(self.noise, np.arange(lo + 1, hi + 1))
        signals, switches = [], []
        x = xs[lo]
        for q in range(lo, hi):
            t = t0 + q * h
            v = float(vs[q])
            signals.append(rate(x, u_fn(t), omega_fn(t), v, k1))
            np.multiply(k1, half, out=stage)
            stage += x
            # Stages 2 and 3 share their time, so their input and disturbance.
            u_half, omega_half = u_fn(t + half), omega_fn(t + half)
            signals.append(rate(stage, u_half, omega_half, v, k2))
            np.multiply(k2, half, out=stage)
            stage += x
            signals.append(rate(stage, u_half, omega_half, v, k3))
            np.multiply(k3, h, out=stage)
            stage += x
            signals.append(rate(stage, u_fn(t + h), omega_fn(t + h), v, k4))
            k2 += k3
            k2 *= 2.0
            k2 += k1
            k2 += k4
            k2 *= sixth
            x_next = xs[q + 1]
            np.add(x, k2, out=x_next)
            y_next = float(crow @ x_next)
            if not math.isfinite(y_next) and not np.isfinite(x_next).all():
                return q + 1, signals, switches
            target = rule.subsystem_for(y_next, t0 + (q + 1) * h)
            if target != self.active:
                switches.append((q + 1, target, x_next.copy()))
                self.active = target
                self.theta = self.model.true_params[target - 1]
            sigmas[q + 1] = self.active
            x = x_next
        return hi, signals, switches


class _Cascade:
    """Filter bank, mixing, gated adaptation, excitation accumulators and
    observer, advanced over a chunk of grid steps from the plant's recorded
    stage signals.

    Each block is affine in its own state, so one RK4 step is an affine
    recurrence; its coefficients are computed for the whole chunk at once,
    and only the recurrences themselves run step by step.
    """

    def __init__(
        self,
        model: PlantModel,
        layout: StateLayout,
        a_closed: np.ndarray,
        gains_all: np.ndarray,
        gamma: np.ndarray,
        h: float,
    ):
        n, m, mn = layout.n, layout.m, layout.mn
        self.layout = layout
        self.h = h
        self.acl = a_closed
        self.gains_all = gains_all
        self.b = model.b
        self.has_b = bool(np.any(model.b != 0.0))
        self.gamma = gamma
        self.template = layout.filter_reset_template()
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

    def advance(self, snaps, lo, hi, active, ybar, u, psi, resets):
        """Fill the downstream columns of grid rows lo+1..hi of ``snaps``.

        ``active`` (K,) holds each step's subsystem, ``ybar`` and ``u``
        (K, 4) and ``psi`` (K, 4, n, m) the plant's stage signals, and
        ``resets`` the rows whose filters restart.  Returns the determinant
        the law used at grid rows lo..hi-1 and the pre-reset panels of the
        restarted rows.
        """
        lay = self.layout
        n, m, mn, nu = lay.n, lay.m, lay.mn, lay.num_units
        h, steps, c1 = self.h, hi - lo, 1 + lay.m

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
        fs = snaps[:, lay.fs_sl].reshape(-1, nu, n, lay.panel)
        bank[0, :units] = fs[lo].reshape(units, lay.panel)
        template = self.template.reshape(units, lay.panel)
        pre_reset = []
        for k in range(steps):
            nxt = bank[k + 1, :units]
            np.dot(self.bank_step, bank[k], out=nxt)
            if lo + k + 1 in resets:
                pre_reset.append(nxt.reshape(nu, n, lay.panel).copy())
                nxt[...] = template
        fs[lo + 1 : hi + 1] = bank[1:, :units].reshape(steps, nu, n, lay.panel)

        # Mixing over every stage of every step.
        rows = self.stage_rows(fs[lo:hi])
        coff = _matmul_ew(self.crow, np.stack(offsets)[:, :mn])
        rows[:, :, 1:, :c1] += coff.reshape(3, mn, steps, c1).transpose(2, 1, 0, 3)
        delta, zbar = self.mix(rows, ybar)

        # Gated adaptation: theta_i <- theta_i + (g theta_i + beta) on the
        # active row only; every other row keeps its bits.
        slope, offset, exc_rate = adaptation_rates(self.gamma, delta, zbar, active[:, None], m)
        gain_off, gain_step = _rk4_offsets(h, lambda s, z: slope[:, s] * z, slope.T)
        drive_off, drive_step = _rk4_offsets(
            h, lambda s, z: slope[:, s, None] * z, offset.transpose(1, 0, 2)
        )
        theta = snaps[lo, lay.theta_sl].tolist()
        held, rows_out = [], []
        for i, g, beta in zip(active.tolist(), gain_step.tolist(), drive_step.tolist()):
            base = (i - 1) * m
            for j in range(m):
                value = theta[base + j]
                held.append(value)
                theta[base + j] = value + (g * value + beta[j])
            rows_out.append(theta[:])
        snaps[lo + 1 : hi + 1, lay.theta_sl] = rows_out

        # Excitation accumulators: a masked cumulative sum of the steps.
        acc = np.zeros((steps + 1, lay.s))
        acc[0] = snaps[lo, lay.exc_sl]
        acc[np.arange(1, steps + 1), active - 1] = (h / 6.0) * (
            exc_rate[:, 0] + 2.0 * (exc_rate[:, 1] + exc_rate[:, 2]) + exc_rate[:, 3]
        )
        snaps[lo + 1 : hi + 1, lay.exc_sl] = np.cumsum(acc, axis=0)[1:]

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
        observer[0, :n] = snaps[lo, lay.xhat_sl]
        observer[:steps, n:] = obs_step.T
        for k in range(steps):
            np.dot(self.observer_step, observer[k], out=observer[k + 1, :n])
        snaps[lo + 1 : hi + 1, lay.xhat_sl] = observer[1:, :n]
        return delta[:, 0], pre_reset


def _first_non_finite(snaps, lo, hi, pre_reset, layout) -> tuple[int, int] | None:
    """(row, component) of the earliest non-finite grid row in lo+1..hi,
    judged before any filter restart, or None."""
    finite = np.isfinite(snaps[lo + 1 : hi + 1]).all(axis=1)
    rows = [r for r, panels in pre_reset.items() if not np.isfinite(panels).all()]
    if not finite.all():
        rows.append(lo + 1 + int(np.argmin(finite)))
    if not rows:
        return None
    row = min(rows)
    flat = snaps[row].copy()
    if row in pre_reset:
        flat[layout.fs_sl] = pre_reset[row].ravel()
    return row, int(np.argmin(np.isfinite(flat)))


def run_simulation(
    model: PlantModel,
    estimator: DremEstimator,
    observer: ObserverState,
    cfg: StepConfig,
    noise: NoiseSpec | None = None,
    *,
    filter_gains,
    collect_diagnostics: bool = False,
    seed: int | None = None,
    mode_label: str | None = None,
) -> RunResult:
    """Run the cascade from the start time to the (rounded) end time.

    The filter bank is restarted at the start time and at every detected
    switch; the trace records one row per grid point, with switch instants
    and pre-reset determinants kept in the header.  ``estimator`` and
    ``observer`` provide initial values and are not mutated.
    """
    started = _time.perf_counter()
    n, m, s = model.n, model.m, model.s
    gains = np.atleast_2d(np.asarray(filter_gains, dtype=float))
    if gains.shape != (m + n, n):
        raise ConfigurationError(
            f"exactly m + n = {m + n} filter gains of length {n} are required, "
            f"got shape {gains.shape}"
        )
    if estimator.s != s or estimator.m != m:
        raise ConfigurationError(
            f"estimator is sized for (s, m) = ({estimator.s}, {estimator.m}), "
            f"model needs ({s}, {m})"
        )
    if observer.gain.shape != (n,):
        raise ConfigurationError(f"observer gain must have length {n}")
    gains_all = np.vstack([gains, observer.gain[None, :]])
    a_closed = np.stack(
        [stable_closed_loop(model, g, "filter gain") for g in gains]
        + [stable_closed_loop(model, observer.gain, "observer gain")]
    )

    layout = StateLayout(n, m, s)
    h = cfg.step_size
    t0 = cfg.start_time
    steps = cfg.num_steps

    snaps = np.empty((steps + 1, layout.size))
    x_v, xhat_v, fs_v, theta_v, exc_v = layout.views(snaps[0])
    x_v[:] = model.initial_state
    xhat_v[:] = observer.x_hat
    theta_v[:] = estimator.theta_hat
    exc_v[:] = 0.0
    fs_v[:] = layout.filter_reset_template()

    rule = model.switching_rule
    active = rule.subsystem_for(float(model.c @ model.initial_state), t0)
    plant = _Plant(model, noise, cfg, active)
    cascade = _Cascade(model, layout, a_closed, gains_all, estimator.gamma, h)

    events = [
        SwitchEvent(
            time=t0,
            subsystem=active,
            state=model.initial_state.copy(),
            delta_before=math.nan,
        )
    ]

    sigmas = np.empty(steps + 1, dtype=np.int64)
    vs = np.zeros(steps + 1)
    deltas = np.empty(steps + 1)
    event_of = np.zeros(steps + 1, dtype=np.int64)
    sigmas[0] = active
    if noise is not None:
        vs[0] = sample_noise(noise, 0)
    xs = snaps[:, layout.x_sl]

    # Overflow before the finiteness check just precedes an abort; keep the
    # warning stream quiet until then.
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        lo = 0
        while lo < steps:
            hi, signals, switches = plant.advance(xs, lo, min(lo + CHUNK, steps), sigmas, vs)
            ybar, u, psi = (np.array(column) for column in zip(*signals))
            rows = [row for row, _, _ in switches]
            deltas[lo:hi], pre_panels = cascade.advance(
                snaps,
                lo,
                hi,
                sigmas[lo:hi],
                ybar.reshape(-1, 4),
                u.reshape(-1, 4),
                psi.reshape(-1, 4, n, m),
                set(rows),
            )
            pre_reset = dict(zip(rows, pre_panels))
            bad = _first_non_finite(snaps, lo, hi, pre_reset, layout)
            if bad is not None:
                raise SimulationAbort(t0 + bad[0] * h, layout.component_name(bad[1]))
            event_of[lo + 1 : hi + 1] = len(events) - 1 + np.searchsorted(
                rows, np.arange(lo + 1, hi + 1), side="right"
            )
            if switches:
                pre_deltas = cascade.grid_delta(np.stack(pre_panels))
                for (row, target, state), pre in zip(switches, pre_deltas.tolist()):
                    events.append(SwitchEvent(t0 + row * h, target, state, pre))
            lo = hi
    deltas[steps] = cascade.grid_delta(layout.views(snaps[steps])[2][None])[0]
    flat = snaps[steps]

    meta = {
        "format": 1,
        "model": model.name,
        "n": n,
        "m": m,
        "s": s,
        "h": cfg.step_size,
        "t0": cfg.start_time,
        "t_end": cfg.effective_end,
        "mode": mode_label or ("robust" if noise is not None else "ideal"),
        "seed": seed if seed is not None else (noise.seed if noise is not None else None),
        "gamma": estimator.gamma.tolist(),
        "filter_gains": gains.tolist(),
        "observer_gain": observer.gain.tolist(),
        "theta_init": estimator.theta_hat.tolist(),
        "xhat_init": observer.x_hat.tolist(),
        "x0": model.initial_state.tolist(),
        "noise": None
        if noise is None
        else {
            "v0": noise.v0,
            "seed": noise.seed,
            "omega_bound": noise.omega_bound,
            "lipschitz_psi": noise.lipschitz_psi,
        },
    }
    trace, diagnostics = _assemble(
        model, layout, cfg, snaps, sigmas, vs, deltas, event_of, events, meta, collect_diagnostics
    )
    elapsed = _time.perf_counter() - started
    return RunResult(
        trace=trace,
        events=events,
        model=model,
        layout=layout,
        final_flat=flat.copy(),
        elapsed_seconds=elapsed,
        diagnostics=diagnostics,
    )


def _assemble(
    model: PlantModel,
    layout: StateLayout,
    cfg: StepConfig,
    snaps: np.ndarray,
    sigmas: np.ndarray,
    vs: np.ndarray,
    delta: np.ndarray,
    event_of: np.ndarray,
    events: list[SwitchEvent],
    meta: dict,
    collect_diagnostics: bool,
) -> tuple[SimulationTrace, Diagnostics | None]:
    n, m, s = layout.n, layout.m, layout.s
    mn, nu = layout.mn, layout.num_units
    rows = snaps.shape[0]
    t = cfg.start_time + cfg.step_size * np.arange(rows)

    x = snaps[:, layout.x_sl]
    xhat = snaps[:, layout.xhat_sl]
    fs = snaps[:, layout.fs_sl].reshape(rows, nu, n, layout.panel)
    xu = fs[:, :, :, 0]
    ups = fs[:, :, :, 1 : 1 + m]
    phi = fs[:, :, :, 1 + m :]
    theta = snaps[:, layout.theta_sl].reshape(rows, s, m)
    exc = snaps[:, layout.exc_sl]

    y = x @ model.c
    ybar = y + vs
    z = ybar[:, None] - xu[:, :mn] @ model.c
    theta_err = np.linalg.norm(theta - model.true_params[None], axis=2)
    x_err = np.linalg.norm(xhat - x, axis=1)

    data = np.empty((rows, len(column_names(n, m, s))))
    col = 0

    def put(block: np.ndarray, width: int):
        nonlocal col
        data[:, col : col + width] = block.reshape(rows, width)
        col += width

    put(t, 1)
    put(sigmas.astype(float), 1)
    put(x, n)
    put(xhat, n)
    put(y, 1)
    put(ybar, 1)
    put(z, mn)
    put(delta, 1)
    put(theta.reshape(rows, s * m), s * m)
    put(theta_err, s)
    put(x_err, 1)
    put(exc, s)

    trace = SimulationTrace(
        meta=meta,
        data=data,
        switch_times=[e.time for e in events],
        pre_reset_delta=[e.delta_before for e in events],
    )

    diagnostics = None
    if collect_diagnostics:
        event_states = np.stack([e.state for e in events])
        x_tk = event_states[event_of]
        theta_sigma = model.true_params[sigmas - 1]
        theta_bar = np.concatenate([theta_sigma, x_tk], axis=1)
        recon = (
            np.einsum("tij,tj->ti", phi[:, mn], x_tk)
            + xu[:, mn]
            + np.einsum("tij,tj->ti", ups[:, mn], theta_sigma)
        )
        decomp = np.linalg.norm(x - recon, axis=1)
        nt = np.einsum("k,tukj->tuj", model.c, fs[:, :mn, :, 1:])
        lre = np.abs(z - np.einsum("tuj,tj->tu", nt, theta_bar)).max(axis=1)
        dbar = np.empty((rows, mn))
        delta_cof = np.empty(rows)
        chunk = 4096  # bounds the cofactor route's temporaries
        for lo in range(0, rows, chunk):
            hi = min(lo + chunk, rows)
            dets, adjs = det_adjugate_batch(nt[lo:hi])
            zbar = np.einsum("tij,tj->ti", adjs, z[lo:hi])
            dbar[lo:hi] = zbar - dets[:, None] * theta_bar[lo:hi]
            delta_cof[lo:hi] = dets
        diagnostics = Diagnostics(
            time=t,
            theta_bar=theta_bar,
            decomposition_residual=decomp,
            lre_residual_max=lre,
            dbar=dbar,
            mixing_residual=np.abs(dbar).max(axis=1),
            delta=delta_cof,
        )
    return trace, diagnostics
