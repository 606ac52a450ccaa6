"""Fixed-step hybrid simulation of the coupled plant / filter / estimator /
observer system.

The full system state is flattened into one vector and advanced with the
classical fourth-order Runge-Kutta scheme.  Switching is detected on the
integration grid: when the switching rule's output changes at a grid point,
that grid time is the switching instant, the filter bank restarts (zero
filters, identity transition factor) before the next step, and the event is
recorded.  Measurement noise is sampled once per grid step and held constant
across the four stages of that step, so identical configurations and seeds
reproduce bit-identical runs.
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


class _PipelineDerivative:
    """Rates of the flat state, with all filter units batched.

    The mixing determinant and the adapted components of the mixed vector
    are recomputed from the stage's filter states at every stage via signed
    cofactors; the adjugate route never divides, so a singular regressor
    stack is handled transparently.  Only the cofactors that feed the
    adaptation law (columns below m, plus the first row for the
    determinant) are evaluated.
    """

    def __init__(
        self,
        model: PlantModel,
        layout: StateLayout,
        a_closed: np.ndarray,
        gains_all: np.ndarray,
        gamma: np.ndarray,
        noise: NoiseSpec | None,
    ):
        m, mn = model.m, layout.mn
        self.layout = layout
        self.mn = mn
        self.gains_all = gains_all
        self.acl = a_closed
        self.a = model.a
        self.b = model.b
        self.has_b = bool(np.any(model.b != 0.0))
        self.crow = model.c
        self.obs_gain = gains_all[-1]
        self.theta_star = model.true_params
        self.gamma = gamma
        self.psi_fn = model.psi
        self.u_fn = model.input_signal
        self.omega_fn = noise.omega if noise is not None else None
        # All (i, j) with j < m laid out row-major, then (0, j) for j >= m.
        self.cofactors = Cofactors(
            mn, [(i, j) for i in range(mn) for j in range(m)] + [(0, j) for j in range(m, mn)]
        )
        self.nt = np.empty((mn, mn))
        self.kbuf = np.empty_like(gains_all)
        self._views: dict[int, tuple] = {}

    def _views_of(self, flat: np.ndarray) -> tuple:
        key = id(flat)
        cached = self._views.get(key)
        if cached is None:
            cached = self.layout.views(flat)
            self._views[key] = cached
        return cached

    def _mix(self, fs: np.ndarray) -> tuple[float, np.ndarray]:
        """Mixing determinant of the filter panels' regressor stack and the
        adjugate columns below m."""
        m, mn = self.layout.m, self.mn
        nt = self.nt
        np.matmul(self.crow, fs[:mn, :, 1:], out=nt)
        cof = self.cofactors(nt)
        cof_jm = cof[: mn * m].reshape(mn, m)
        delta = float(nt[0, :m] @ cof_jm[0] + nt[0, m:] @ cof[mn * m :])
        return delta, cof_jm

    def __call__(
        self, t: float, flat: np.ndarray, active: int, v: float, out: np.ndarray
    ) -> float:
        """Write the rates at ``flat`` into ``out``; return the mixing
        determinant the adaptation law used."""
        m = self.layout.m
        x, xhat, fs, theta, _ = self._views_of(flat)
        out_x, out_xhat, out_fs, out_theta, out_exc = self._views_of(out)
        ai = active - 1

        y = float(self.crow @ x)
        u = self.u_fn(t)
        ybar = y + v
        psi_meas = self.psi_fn(ybar, u)
        psi_true = psi_meas if ybar == y else self.psi_fn(y, u)

        np.matmul(self.a, x, out=out_x)
        out_x += psi_true @ self.theta_star[ai]
        if self.has_b:
            out_x += self.b * u
        if self.omega_fn is not None:
            out_x += self.omega_fn(t)

        np.matmul(self.a, xhat, out=out_xhat)
        out_xhat += psi_meas @ theta[ai]
        out_xhat += self.obs_gain * (ybar - float(self.crow @ xhat))
        if self.has_b:
            out_xhat += self.b * u

        np.matmul(self.acl, fs, out=out_fs)
        np.multiply(self.gains_all, ybar, out=self.kbuf)
        out_fs[:, :, 0] += self.kbuf
        if self.has_b:
            out_fs[:, :, 0] += self.b * u
        out_fs[:, :, 1 : 1 + m] += psi_meas

        zf = ybar - fs[: self.mn, :, 0] @ self.crow
        delta, cof_jm = self._mix(fs)
        adaptation_rates(theta, self.gamma, delta, zf @ cof_jm, active, out_theta, out_exc)
        return delta

    def grid_delta(self, flat: np.ndarray) -> float:
        """The determinant the adaptation law uses at a grid state."""
        return self._mix(self._views_of(flat)[2])[0]


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
    """Run the coupled system from the start time to the (rounded) end time.

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

    flat = np.zeros(layout.size)
    x_v, xhat_v, fs_v, theta_v, _ = layout.views(flat)
    x_v[:] = model.initial_state
    xhat_v[:] = observer.x_hat
    theta_v[:] = estimator.theta_hat
    reset_template = layout.filter_reset_template()
    fs_v[:] = reset_template

    deriv = _PipelineDerivative(model, layout, a_closed, gains_all, estimator.gamma, noise)
    rule = model.switching_rule
    active = rule.subsystem_for(float(model.c @ model.initial_state), t0)

    events = [
        SwitchEvent(
            time=t0,
            subsystem=active,
            state=model.initial_state.copy(),
            delta_before=math.nan,
        )
    ]

    snaps = np.empty((steps + 1, layout.size))
    sigmas = np.empty(steps + 1, dtype=np.int64)
    vs = np.zeros(steps + 1)
    deltas = np.empty(steps + 1)
    event_of = np.zeros(steps + 1, dtype=np.int64)
    snaps[0] = flat
    sigmas[0] = active
    if noise is not None:
        vs[0] = sample_noise(noise, 0)

    k1 = np.empty(layout.size)
    k2 = np.empty(layout.size)
    k3 = np.empty(layout.size)
    k4 = np.empty(layout.size)
    stage = np.empty(layout.size)
    half = 0.5 * h
    sixth = h / 6.0
    x_sl = layout.x_sl
    crow = model.c

    # Overflow before the finiteness check just precedes an abort; keep the
    # warning stream quiet until then.
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for q in range(steps):
            t = t0 + q * h
            v = vs[q]
            deltas[q] = deriv(t, flat, active, v, k1)
            np.multiply(k1, half, out=stage)
            stage += flat
            deriv(t + half, stage, active, v, k2)
            np.multiply(k2, half, out=stage)
            stage += flat
            deriv(t + half, stage, active, v, k3)
            np.multiply(k3, h, out=stage)
            stage += flat
            deriv(t + h, stage, active, v, k4)
            k2 += k3
            k2 *= 2.0
            k2 += k1
            k2 += k4
            k2 *= sixth
            flat += k2
            t_next = t0 + (q + 1) * h
            if not np.isfinite(flat).all():
                bad = int(np.argmin(np.isfinite(flat)))
                raise SimulationAbort(t_next, layout.component_name(bad))
            y_next = float(crow @ flat[x_sl])
            target = rule.subsystem_for(y_next, t_next)
            if target != active:
                events.append(
                    SwitchEvent(
                        time=t_next,
                        subsystem=target,
                        state=flat[x_sl].copy(),
                        delta_before=deriv.grid_delta(flat),
                    )
                )
                active = target
                fs_v[:] = reset_template
            sigmas[q + 1] = active
            event_of[q + 1] = len(events) - 1
            if noise is not None:
                vs[q + 1] = sample_noise(noise, q + 1)
            snaps[q + 1] = flat
    deltas[steps] = deriv.grid_delta(flat)

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
