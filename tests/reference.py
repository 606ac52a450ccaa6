"""Independent reference composition of the observer pipeline, for tests.

Straight-line functions on plain arrays, one per pipeline stage, with no
validation.  They share nothing with the chunked kernel in ``dremobs.sim``
beyond the model description and the noise stream.  The reference steps one
flat state per grid row, laid out here: x, x_hat, the m+n filter panels
[xu | upsilon | phi], one per filter gain, theta_hat and the excitation
accumulators; a run is compared through ``final_state`` (its trace's last
row plus its final filter bank) and through the trace's per-row columns.
``component_names`` lists the flat state's components in order, the order
in which an aborted run names its first non-finite component.  Determinants
and adjugates come from LAPACK minors, not from the library's cofactor
route.  The trace text and the SVG polyline points are formatted value by
value, as the library's block formatters must reproduce byte for byte.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from dremobs.plant import sample_noise
from dremobs.trace import FORMAT_TAG


def _block_sizes(n, m, s):
    """Float counts of x, x_hat, the filter panels, theta_hat and excitation."""
    return n, n, (m + n) * n * (1 + m + n), s * m, s


def views(model, flat):
    """(x, x_hat, filter panels, theta_hat, excitation) views into a flat
    state; writing through a view writes the flat state."""
    n, m, s = model.n, model.m, model.s
    x, xhat, fs, theta, exc = np.split(flat, np.cumsum(_block_sizes(n, m, s))[:-1])
    return x, xhat, fs.reshape(m + n, n, 1 + m + n), theta.reshape(s, m), exc


def state_size(model):
    return sum(_block_sizes(model.n, model.m, model.s))


def component_names(n, m, s):
    """Name of every flat-state component, in flat order."""
    names = [f"x[{i}]" for i in range(n)] + [f"x_hat[{i}]" for i in range(n)]
    for unit in range(m + n):
        for row in range(n):
            names.append(f"filter[{unit}].xu[{row}]")
            names += [f"filter[{unit}].upsilon[{row},{j}]" for j in range(m)]
            names += [f"filter[{unit}].phi[{row},{j}]" for j in range(n)]
    names += [f"theta_hat[{i},{j}]" for i in range(s) for j in range(m)]
    return names + [f"excitation[{i}]" for i in range(s)]


def final_state(result):
    """A run's last grid state as a flat state: the trace's last row plus
    the final filter bank."""
    trace = result.trace
    return np.concatenate(
        [
            trace.x[-1],
            trace.xhat[-1],
            result.final_panels.ravel(),
            trace.theta_hat[-1].ravel(),
            trace.excitation[-1],
        ]
    )


def plant_rate(model, x, t, active, omega=None):
    """Plant right-hand side; the nonlinearity sees the true output."""
    y, u = float(model.c @ x), model.input_signal(t)
    dx = model.a @ x + model.b * u + model.psi(y, u) @ model.true_params[active - 1]
    return dx if omega is None else dx + omega(t)


def observer_rate(model, gain, xhat, theta_active, ybar, u):
    """Plant copy driven by the active estimate plus output injection."""
    injection = gain * (ybar - float(model.c @ xhat))
    return model.a @ xhat + model.b * u + model.psi(ybar, u) @ theta_active + injection


def filter_rates(model, gain, xu, ups, phi, ybar, u):
    """Rates of one filter unit's (xu, upsilon, phi)."""
    acl = model.a - np.outer(gain, model.c)
    return acl @ xu + model.b * u + gain * ybar, acl @ ups + model.psi(ybar, u), acl @ phi


def regressor_stack(model, panels, ybar):
    """Scalar regressions zf = nt @ [theta; x at the last switch], one row
    [C upsilon, C phi] per filter panel [xu | upsilon | phi]."""
    zf = np.array([ybar - float(model.c @ p[:, 0]) for p in panels])
    return zf, np.array([model.c @ p[:, 1:] for p in panels])


def adjugate(nt):
    """Transpose of the cofactor matrix, from LAPACK minors."""
    k = nt.shape[0]
    adj = np.ones((k, k))
    for i, j in np.ndindex(k, k) if k > 1 else ():
        adj[j, i] = (-1.0) ** (i + j) * np.linalg.det(np.delete(np.delete(nt, i, 0), j, 1))
    return adj


def mix(zf, nt):
    """Mixing determinant and the adjugate-mixed regression vector."""
    return float(np.linalg.det(nt)), adjugate(nt) @ zf


def residual(delta, zbar, theta_bar):
    """Mixed-equation residual against the augmented parameter."""
    return zbar - delta * theta_bar


def rk4(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def derivative(model, gains, obs_gain, gamma, t, flat, active, v, omega=None):
    """Rates of the flat state, composed unit by unit."""
    m, i = model.m, active - 1
    x, xhat, fs, theta, _ = views(model, flat)
    out = np.zeros_like(flat)
    ox, oxhat, ofs, otheta, oexc = views(model, out)
    u, ybar = model.input_signal(t), float(model.c @ x) + v
    ox[:] = plant_rate(model, x, t, active, omega)
    oxhat[:] = observer_rate(model, obs_gain, xhat, theta[i], ybar, u)
    for k, gain in enumerate(gains):
        p = fs[k]
        rates = filter_rates(model, gain, p[:, 0], p[:, 1 : 1 + m], p[:, 1 + m :], ybar, u)
        ofs[k, :, 0], ofs[k, :, 1 : 1 + m], ofs[k, :, 1 + m :] = rates
    delta, zbar = mix(*regressor_stack(model, fs, ybar))
    otheta[i] = gamma[i] * delta * (zbar[:m] - delta * theta[i])
    oexc[i] = delta * delta
    return out


def simulate(model, gains, obs_gain, gamma, theta0, xhat0, h, steps, noise=None):
    """Grid states, active subsystems and pre-reset determinants of a run
    from t = 0; switches are detected and all filters restarted (zero
    filters, identity transition factor) at grid points."""
    omega = noise.omega if noise is not None else None
    flat = np.zeros(state_size(model))
    x, xhat, fs, theta, _ = views(model, flat)
    x[:], xhat[:], theta[:] = model.initial_state, xhat0, theta0
    fs[:, :, 1 + model.m :] = np.eye(model.n)
    rule = model.switching_rule
    active = rule.subsystem_for(float(model.c @ x), 0.0)
    rows, sigmas, pre_reset = [flat.copy()], [active], [math.nan]
    for q in range(steps):
        v = sample_noise(noise, q) if noise is not None else 0.0

        def f(t, y):
            return derivative(model, gains, obs_gain, gamma, t, y, active, v, omega)

        flat = rk4(f, q * h, flat, h)
        x, _, fs, _, _ = views(model, flat)
        target = rule.subsystem_for(float(model.c @ x), (q + 1) * h)
        if target != active:
            pre_reset.append(mix(*regressor_stack(model, fs, 0.0))[0])
            fs[:] = 0.0
            fs[:, :, 1 + model.m :] = np.eye(model.n)
            active = target
        rows.append(flat.copy())
        sigmas.append(active)
    return np.array(rows), np.array(sigmas), pre_reset


def plant_grid(model, noise, h, steps, t0=0.0):
    """The plant alone on the grid: states, outputs, measured outputs,
    active subsystems and switch times, as the trace records them.

    Stepped in the integrator's floating-point operation order, with
    ``@``/``np.matmul`` for the products and one ``omega(t)`` call per
    stage: rate = ((A x + psi(y, u) theta) + B u) + omega(t), the B term
    only when B has a nonzero entry; stage k_s h/2 + x (k_3 h for the last
    stage); step x + ((((k2 + k3) 2 + k1) + k4) h/6).  Each row's output is
    c @ x of that row alone, as the switch check computes it.
    """
    omega = None if noise is None else noise.omega
    has_b = bool(np.any(model.b != 0.0))
    half, sixth = 0.5 * h, h / 6.0
    rule = model.switching_rule
    active = rule.subsystem_for(float(model.c @ model.initial_state), t0)
    vs = [sample_noise(noise, q) if noise is not None else 0.0 for q in range(steps + 1)]

    def rate(x, t):
        u = model.input_signal(t)
        y = float(model.c @ x)
        out = np.matmul(model.a, x)
        out += model.psi(y, u) @ model.true_params[active - 1]
        if has_b:
            out += model.b * u
        if omega is not None:
            out += omega(t)
        return out

    xs, sigmas, switch_times = [model.initial_state.copy()], [active], [t0]
    for q in range(steps):
        x, t = xs[-1], t0 + q * h
        k1 = rate(x, t)
        k2 = rate(k1 * half + x, t + half)
        k3 = rate(k2 * half + x, t + half)
        k4 = rate(k3 * h + x, t + h)
        x_next = x + ((k2 + k3) * 2.0 + k1 + k4) * sixth
        target = rule.subsystem_for(float(model.c @ x_next), t0 + (q + 1) * h)
        if target != active:
            active = target
            switch_times.append(t0 + (q + 1) * h)
        xs.append(x_next)
        sigmas.append(active)
    y = np.array([float(model.c @ x) for x in xs])
    return np.array(xs), y, y + np.array(vs), np.array(sigmas, dtype=float), switch_times


def trace_text(trace):
    """Canonical CSV text of a trace, formatted one value at a time."""
    lines = [f"# {FORMAT_TAG}"]
    lines.append("# meta: " + json.dumps(trace.meta, sort_keys=True, separators=(",", ":")))
    seed = trace.meta.get("seed")
    lines.append(f"# seed: {seed if seed is not None else 'none'}")
    for key in ("switch_times", "pre_reset_delta"):
        values = getattr(trace, key)
        lines.append(f"# {key}: [" + ",".join("%.17g" % v for v in values) + "]")
    lines.append(",".join(trace.columns))
    for row in trace.data:
        lines.append(
            ",".join(("%d" % int(v)) if j == 1 else ("%.17g" % v) for j, v in enumerate(row))
        )
    return "\n".join(lines) + "\n"


def polyline_points(px, py, xs, ys):
    """SVG polyline points, each point mapped and formatted on its own."""
    return " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys))


@dataclass(frozen=True)
class ErrorMetrics:
    """Per-grid-point estimation error norms with activity annotation."""

    time: np.ndarray
    x_error: np.ndarray
    theta_error: np.ndarray  # (s, T)
    active: np.ndarray  # (s, T) bool


def error_metrics(trace, model):
    """The trace's error norms recomputed from its states, estimates and
    active subsystems and the model's true parameters."""
    x_err = np.linalg.norm(trace.xhat - trace.x, axis=1)
    diff = trace.theta_hat - model.true_params[None, :, :]  # (T, s, m)
    theta_err = np.linalg.norm(diff, axis=2).T  # (s, T)
    active = np.stack([trace.sigma == i + 1 for i in range(model.s)])
    return ErrorMetrics(time=trace.t, x_error=x_err, theta_error=theta_err, active=active)
