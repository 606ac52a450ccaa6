"""Independent reference composition of the observer pipeline, for tests.

Straight-line functions on plain arrays, one per pipeline stage, with no
validation.  They share nothing with the fused kernel in ``dremobs.sim``
beyond the model description, the noise stream and the flat state layout
used to compare results.  Determinants and adjugates come from LAPACK
minors, not from the library's cofactor route.
"""

import math

import numpy as np

from dremobs.plant import sample_noise
from dremobs.sim import StateLayout


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
    layout = StateLayout(model.n, model.m, model.s)
    m, i = model.m, active - 1
    x, xhat, fs, theta, _ = layout.views(flat)
    out = np.zeros_like(flat)
    ox, oxhat, ofs, otheta, oexc = layout.views(out)
    u, ybar = model.input_signal(t), float(model.c @ x) + v
    ox[:] = plant_rate(model, x, t, active, omega)
    oxhat[:] = observer_rate(model, obs_gain, xhat, theta[i], ybar, u)
    for k, gain in enumerate(list(gains) + [obs_gain]):
        p = fs[k]
        rates = filter_rates(model, gain, p[:, 0], p[:, 1 : 1 + m], p[:, 1 + m :], ybar, u)
        ofs[k, :, 0], ofs[k, :, 1 : 1 + m], ofs[k, :, 1 + m :] = rates
    delta, zbar = mix(*regressor_stack(model, fs[: layout.mn], ybar))
    otheta[i] = gamma[i] * delta * (zbar[:m] - delta * theta[i])
    oexc[i] = delta * delta
    return out


def simulate(model, gains, obs_gain, gamma, theta0, xhat0, h, steps, noise=None):
    """Grid states, active subsystems and pre-reset determinants of a run
    from t = 0; switches are detected and all filters restarted (zero
    filters, identity transition factor) at grid points."""
    layout = StateLayout(model.n, model.m, model.s)
    omega = noise.omega if noise is not None else None
    flat = np.zeros(layout.size)
    x, xhat, fs, theta, _ = layout.views(flat)
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
        x, _, fs, _, _ = layout.views(flat)
        target = rule.subsystem_for(float(model.c @ x), (q + 1) * h)
        if target != active:
            pre_reset.append(mix(*regressor_stack(model, fs[: layout.mn], 0.0))[0])
            fs[:] = 0.0
            fs[:, :, 1 + model.m :] = np.eye(model.n)
            active = target
        rows.append(flat.copy())
        sigmas.append(active)
    return np.array(rows), np.array(sigmas), pre_reset
